"""Shared helpers: the repro import guard, statistics, memory, profile.

Everything here is stdlib-only so the guard can run (and fail cleanly)
in a directory that holds the benchmark but not the program.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed daemon)."""


def load_profile() -> Dict:
    """The committed workload parameters (``perfbench/profile.json``)."""
    with open(HERE / "profile.json", encoding="utf-8") as handle:
        return json.load(handle)


def clean_env() -> Dict[str, str]:
    """This process's environment without ``REPRO_*`` overrides.

    The benchmark measures the program's defaults; an engine, shard or
    cache override inherited from the shell would silently change what
    is measured.  Returns the removed variables for the host record.
    """
    removed = {key: os.environ.pop(key)
               for key in list(os.environ) if key.startswith("REPRO_")}
    return removed


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: ``src`` importable, no overrides."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_repro():
    """Import ``repro`` from this checkout's ``src``, or raise.

    Refuses a ``repro`` found anywhere else: the benchmark must measure
    the tree it was checked out with.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"repro imported from {origin}, not {SRC}")
    return repro


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ``n`` sorted samples
    the value at rank ``n - 10`` (1-based) has exactly ten beyond it, so
    it sits at percentile ``100 * (n - 10) / n``.  Below twenty samples
    that percentile is under the median and no tail at all; the maximum
    is returned with percentile 100 and the caller states the sample
    count.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 20:
        return float(ordered[-1]), 100.0, n
    rank = n - 10
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def vm_hwm_kb(pid: Optional[int] = None) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB.

    Read from ``/proc/<pid>/status`` -- never ``ru_maxrss`` of reaped
    children, which a forked helper (``git``) inherits and inflates.
    """
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM in {path}")


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def host_record(removed_env: Dict[str, str]) -> Dict:
    """Host facts printed with every run (``why_host`` in profile.json);
    taken before the run, so the engine is the process default."""
    record = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "removed_env": sorted(removed_env),
    }
    try:
        import numpy

        record["numpy"] = numpy.__version__
    except ImportError:
        record["numpy"] = None
    try:
        from repro.sim.scheduler import default_engine

        record["default_engine"] = default_engine()
    except ImportError:
        record["default_engine"] = None
    return record


def summary_lines(workload: str, seed: int, values: Dict[str, Dict],
                  notes: List[str]) -> List[str]:
    """Human-readable lines printed above the final JSON object."""
    lines = [f"perfbench {workload} seed={seed}"]
    for name, entry in values.items():
        lines.append(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    lines.extend(f"  note: {note}" for note in notes)
    return lines
