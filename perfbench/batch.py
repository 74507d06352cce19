"""The two batch workloads: ``scale-ring`` and ``sweep-oldc``.

Both run in the benchmark's own process (each workload run is a fresh
interpreter).  A *pass* is one unit of work from inputs to checked
output; ``wall_s`` is the median of the warm passes.  ``setup_s`` comes
from probe subprocesses (see :func:`probe`).
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

import common
import tracing


# ----------------------------------------------------------------------
# scale-ring: `repro --engine vectorized scale --n N --json`, in-process
# ----------------------------------------------------------------------
def scale_pass(n: int, digest: str) -> Dict:
    """One ``repro scale`` call through ``repro.cli.main``, checked.

    Returns ``{"wall_s", "ok", "reason", "ledger"}``; ``ok`` needs exit
    status 0, ``valid: true`` and the committed color digest.
    """
    import repro.cli

    argv = ["--engine", "vectorized", "scale", "--n", str(n), "--json"]
    out = io.StringIO()
    # Every call starts from the same collector state, as a fresh
    # ``repro scale`` process would: otherwise whether a call pays a
    # full collection of the previous call's objects is chance.
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = repro.cli.main(argv)
    wall_s = time.perf_counter() - start
    reason = None
    try:
        envelope = json.loads(out.getvalue().strip().splitlines()[-1])
    except (ValueError, IndexError):
        envelope = {}
        reason = "no JSON envelope"
    result = envelope.get("result", {})
    if reason is None and status != 0:
        reason = f"exit status {status}"
    elif reason is None and result.get("valid") is not True:
        reason = f"valid={result.get('valid')}"
    elif reason is None and result.get("colors_blake2b") != digest:
        reason = (f"colors_blake2b {result.get('colors_blake2b')} != "
                  f"committed {digest}")
    return {"wall_s": wall_s, "ok": reason is None, "reason": reason,
            "ledger": envelope.get("ledger", {})}


def kernel_guard(runs: int, hits: int) -> Optional[str]:
    """The pinned vectorized engine must have served every run."""
    if runs == 0 or hits != runs:
        return f"vectorized kernel hits {hits}/{runs}: the engine fell back"
    return None


def run_scale(cfg: Dict, seconds: float, min_rounds: int = 2) -> Dict:
    """Rounds of ``light_calls`` light calls and one headline call until
    ``seconds`` have passed and at least ``min_rounds`` ran.

    One light call first pays the process's lazy imports; it is checked
    like every other call.
    """
    from repro.sim.kernels import kernel_stats

    light_n, heavy_n = cfg["light_n"], cfg["heavy_n"]
    light_digest = cfg["digests"][str(light_n)]
    heavy_digest = cfg["digests"][str(heavy_n)]
    warmup = [scale_pass(light_n, light_digest)]
    before = kernel_stats()
    light: List[Dict] = []
    heavy: List[Dict] = []
    started = time.perf_counter()
    while len(heavy) < min_rounds or time.perf_counter() - started < seconds:
        light.extend(scale_pass(light_n, light_digest)
                     for _ in range(cfg["light_calls"]))
        heavy.append(scale_pass(heavy_n, heavy_digest))
    after = kernel_stats()
    return {"warmup": warmup, "light": light, "heavy": heavy,
            "kernel_runs": after["runs"] - before["runs"],
            "kernel_hits": after["hits"] - before["hits"]}


def scale_traced(cfg: Dict) -> Dict:
    """One untraced and one traced headline solve, with the span ledger."""
    from repro.sim.kernels import kernel_stats

    n, digest = cfg["heavy_n"], cfg["digests"][str(cfg["heavy_n"])]
    warmup = scale_pass(cfg["light_n"], cfg["digests"][str(cfg["light_n"])])
    untraced = scale_pass(n, digest)
    ledger = tracing.SpanLedger()
    ledger.install(tracing.SCALE_FUNCTIONS)
    before = kernel_stats()
    try:
        traced = scale_pass(n, digest)
    finally:
        ledger.uninstall()
    after = kernel_stats()
    return {"warmup": warmup, "untraced": untraced, "traced": traced,
            "spans": ledger.snapshot(),
            "kernel_runs": after["runs"] - before["runs"],
            "kernel_hits": after["hits"] - before["hits"]}


# ----------------------------------------------------------------------
# sweep-oldc: parallel_sweep over seeded G(n, 6/n) OLDC trials
# ----------------------------------------------------------------------
#: Set by sweep passes before the pool forks; workers inherit it and
#: report their span deltas per trial when tracing.
_LEDGER: Optional[tracing.SpanLedger] = None


def sweep_trial(**params) -> Dict:
    """One trial; under tracing the whole trial is a ``trial`` span, so
    its self time is the trial's time outside every layer."""
    if _LEDGER is None:
        return _trial(**params)
    before = _LEDGER.snapshot()
    record = _LEDGER.wrap(_trial, "trial")(**params)
    record["spans"] = tracing.delta(before, _LEDGER.snapshot())
    return record


def _trial(n: int, p: int, algorithm: str, epsilon: float,
           seed: int) -> Dict:
    """build -> orient_by_id -> random_oldc_instance -> solve -> check.

    Functions are looked up on their modules at call time, so a traced
    run's wrappers are seen.
    """
    from repro.coloring import random_instances, validate
    from repro.graphs import generators, identifiers, oriented
    from repro.sim.metrics import CostLedger

    # ``repro.core`` re-exports the functions under the module names.
    sweep_mod = importlib.import_module("repro.core.two_sweep")
    fast_mod = importlib.import_module("repro.core.fast_two_sweep")

    start = time.perf_counter()
    network = generators.gnp_graph(n, 6.0 / n, seed=seed)
    graph = oriented.orient_by_id(network)
    instance = random_instances.random_oldc_instance(
        graph, p=p, seed=seed, epsilon=epsilon)
    ids = identifiers.sequential_ids(network)
    ledger = CostLedger()
    if algorithm == "fast_two_sweep":
        result = fast_mod.fast_two_sweep(instance, ids, n, p, epsilon,
                                         ledger=ledger)
    else:
        result = sweep_mod.two_sweep(instance, ids, n, p, ledger=ledger)
    violations = validate.check_oldc(instance, result.colors)
    return {
        "t_start": start,
        "violations": len(violations),
        "rounds": ledger.rounds, "messages": ledger.messages,
        "round_bound": 2 * n + 1,
        "pid": os.getpid(), "vm_hwm_kb": common.vm_hwm_kb(),
    }


def sweep_params(cfg: Dict, seed: int) -> List[Dict]:
    from repro.sim.parallel import derive_seed

    params = []
    for n in cfg["sizes"]:
        for p in cfg["ps"]:
            for algorithm in ("two_sweep", "fast_two_sweep"):
                params.append({
                    "n": n, "p": p, "algorithm": algorithm,
                    "epsilon": (cfg["epsilon"]
                                if algorithm == "fast_two_sweep" else 0.0),
                    "seed": derive_seed(seed, len(params)),
                })
    return params


def trial_failure(record: Dict) -> Optional[str]:
    if record["violations"]:
        return f"{record['violations']} check_oldc violations"
    if record["rounds"] > record["round_bound"]:
        return (f"{record['rounds']} rounds exceed 2q+1 = "
                f"{record['round_bound']}")
    return None


def sweep_pass(params: List[Dict], workers: int) -> Dict:
    """One ``parallel_sweep`` pass; per-worker VmHWM from the records."""
    from repro.sim import parallel

    start = time.perf_counter()
    report = parallel.parallel_sweep(
        sweep_trial, params, max_workers=workers, timing=True,
        engine="vectorized", report=True)
    wall_s = time.perf_counter() - start
    hwm = {worker["pid"]: 0 for worker in report.workers}
    busy = {worker["pid"]: 0.0 for worker in report.workers}
    records = list(report)
    for record in records:
        pid = record["pid"]
        hwm[pid] = max(hwm.get(pid, 0), record["vm_hwm_kb"])
        busy[pid] = busy.get(pid, 0.0) + record["wall_s"]
    runs = sum(worker["runs"] for worker in report.workers)
    hits = sum(worker["hits"] for worker in report.workers)
    return {
        "start": start, "wall_s": wall_s, "records": records,
        "worker_hwm_kb": hwm, "worker_busy_s": busy,
        "parent_hwm_kb": common.vm_hwm_kb(),
        "kernel_runs": runs, "kernel_hits": hits,
    }


def run_sweep(cfg: Dict, seed: int, seconds: float,
              min_passes: int = 3) -> Dict:
    params = sweep_params(cfg, seed)
    warmup = sweep_pass(params[:2], cfg["workers"])  # pays lazy imports
    passes = []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < seconds:
        passes.append(sweep_pass(params, cfg["workers"]))
    return {"warmup": warmup, "passes": passes}


def sweep_traced(cfg: Dict, seed: int) -> Dict:
    global _LEDGER

    params = sweep_params(cfg, seed)
    warmup = sweep_pass(params[:2], cfg["workers"])
    untraced = sweep_pass(params, cfg["workers"])
    ledger = tracing.SpanLedger()
    ledger.install(tracing.SWEEP_FUNCTIONS)
    _LEDGER = ledger
    try:
        traced = sweep_pass(params, cfg["workers"])
    finally:
        _LEDGER = None
        ledger.uninstall()
    spans = ledger.snapshot()
    for record in traced["records"]:
        tracing.add(spans, record.pop("spans", {}))
    return {"warmup": warmup, "untraced": untraced, "traced": traced,
            "spans": spans}


# ----------------------------------------------------------------------
# setup_s probes: cold first pass in a fresh interpreter minus warm
# ----------------------------------------------------------------------
def probe(workload: str, cfg: Dict, seed: int, start: float) -> Dict:
    """Run inside a probe subprocess; ``start`` precedes any repro import.

    The cold pass pays imports and first-use caches; the warm passes
    repeat the same inputs.  Reported as ``cold_s - median(warm_s)``.
    """
    warm = []
    if workload == "scale-ring":
        n, digest = cfg["probe_n"], cfg["digests"][str(cfg["probe_n"])]
        first = scale_pass(n, digest)
        cold_s = time.perf_counter() - start
        ok = first["ok"]
        for _ in range(cfg["probe_warm"]):
            again = scale_pass(n, digest)
            ok = ok and again["ok"]
            warm.append(again["wall_s"])
    else:
        params = sweep_params(cfg["probe"], seed)
        first = sweep_pass(params, cfg["workers"])
        cold_s = time.perf_counter() - start
        ok = not any(trial_failure(r) for r in first["records"])
        for _ in range(cfg["probe_warm"]):
            again = sweep_pass(params, cfg["workers"])
            ok = ok and not any(trial_failure(r) for r in again["records"])
            warm.append(again["wall_s"])
    return {"cold_s": cold_s, "warm_s": warm, "ok": ok}


def run_probes(workload: str, seed: int, count: int,
               profile: str) -> List[Dict]:
    """``count`` fresh-interpreter probes, one after another."""
    results = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(common.HERE / "run.py"), "--probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--profile", profile],
            capture_output=True, text=True, cwd=str(common.ROOT),
            env=common.child_env(), timeout=120,
        )
        if proc.returncode != 0:
            raise common.BenchError(
                f"{workload} probe failed: {proc.stderr[-2000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results
