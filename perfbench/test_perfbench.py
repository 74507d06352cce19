"""The benchmark's own tests: a seconds-long smoke profile of every
workload in both modes, plus the statistics helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [row["name"] for row in SPEC["workloads"]]


def run_bench(cwd: pathlib.Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--profile", "smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {row["name"] for row in rows}
    for row in rows:
        entry = result["metrics"][row["name"]]
        assert entry["unit"] == row["unit"]
        assert isinstance(entry["value"], float)
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, row["name"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, percentile, count = common.tail(values)
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_of_few_samples_is_the_maximum():
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    # Twelve samples put the tenth-from-top below the median.
    assert common.tail(list(range(12))) == (11.0, 100.0, 12)
