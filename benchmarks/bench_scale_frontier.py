"""Scale frontier benchmark: million-node coloring end to end.

Three sections, all built on the streaming CSR topology path
(:mod:`repro.graphs.streaming`) so no per-node ``Network`` dicts are
ever materialized:

* **workloads** -- greedy color reduction on a streamed ring, per
  engine, on an n ladder sized to each engine's envelope (the reference
  engine walks dicts per round, the fast engine per-node programs, the
  vectorized engine CSR columns).  Each record carries wall-clock,
  nodes/sec, rounds, and the process peak RSS after the run.  The
  headline is the largest vectorized run -- n = 1,000,000 at full
  scale.
* **sharded** -- the headline workload rerun under the sharded engine
  at 1/2/4 shards, asserting the coloring stays bit-identical to the
  serial vectorized run; each row records the execution mode (worker
  lanes vs in-process shards), total halo traffic, and per-shard
  halo/barrier breakdowns.  The best multi-shard row becomes the
  ``headline_multicore`` section.
* **build** -- topology construction throughput for the streaming
  builders (ring, G(n,p) via geometric edge skipping, random regular
  via the pairing model): edges/sec straight into CSR buffers.
* **sweep** -- a ``parallel_sweep`` over a streamed ring with the
  topology published to :mod:`repro.sim.shm` (workers map one shared
  CSR segment) vs each worker rebuilding its own copy, at 1 and 2
  workers.  Per-worker peak RSS comes from ``SweepReport.workers``;
  the shared-memory segment size is reported alongside.  The tracked
  property is that shared-mode per-worker RSS stays flat as workers
  are added (the segment is mapped, not copied).

Chunked execution: the largest vectorized workload is also run once
with ``REPRO_SIM_CHUNK`` set, recording the chunked wall-clock and
verifying the coloring is identical -- the memory knob must never be a
semantics knob.

Results go to ``BENCH_scale.json`` at the repository root (uploaded as
a CI artifact, with a run-manifest sidecar) and to
``benchmarks/results/BENCH_scale.txt``.

Run directly for the full sizes, or with ``--smoke`` for a seconds-long
sanity pass::

    PYTHONPATH=src python benchmarks/bench_scale_frontier.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.graphs.streaming import (
    gnp_edges,
    inflated_seed_coloring,
    regular_edges,
    ring_edges,
    stream_ring,
)
from repro.sim import (
    CostLedger,
    parallel_sweep,
    shard_stats,
    shm,
    use_engine,
    use_shards,
)
from repro.sim.compiled import CompiledNetwork
from repro.obs.manifest import peak_rss_kb
from repro.obs.metrics import reset_metrics
from repro.substrates.greedy import greedy_color_reduction

from _util import emit, write_manifest_sidecar

REPO_ROOT = pathlib.Path(__file__).parent.parent
JSON_PATH = REPO_ROOT / "BENCH_scale.json"

#: Palette handed to :func:`inflated_seed_coloring`; on a ring (Delta=2,
#: target=3) this yields q in {12, 13, 14} and therefore ~10 reduction
#: rounds -- enough rounds to amortize setup, few enough that the
#: largest n stays minutes, not hours.
PALETTE = 14

#: Per-engine n ladders.  Each engine gets sizes inside its envelope;
#: the vectorized ladder tops out at the million-node headline.
LADDERS = {
    "reference": [2_000, 20_000],
    "fast": [20_000, 200_000],
    "vectorized": [100_000, 1_000_000],
}
SMOKE_LADDERS = {
    "reference": [500],
    "fast": [1_000],
    "vectorized": [2_000],
}

#: Shard counts for the sharded-engine ladder over the headline n.
#: 1 exercises the fallback path (must price at serial vectorized);
#: 2 and 4 run the worker lanes with halo exchange.
SHARD_COUNTS = [1, 2, 4]

#: Sweep section sizing: ring size shared across workers, trials per
#: sweep, and the worker counts compared.
SWEEP_N = 200_000
SWEEP_SMOKE_N = 5_000
SWEEP_TRIALS = 4
SWEEP_WORKERS = [1, 2]


def _solve_ring(compiled: CompiledNetwork, engine: str):
    """One greedy color reduction on a streamed ring; returns
    ``(colors, q, rounds, wall_s)``."""
    colors, q = inflated_seed_coloring(compiled, PALETTE)
    target = compiled.raw_max_degree() + 1
    ledger = CostLedger()
    start = time.perf_counter()
    with use_engine(engine):
        result = greedy_color_reduction(compiled, colors, q, target,
                                        ledger=ledger)
    wall_s = time.perf_counter() - start
    return result, q, ledger.rounds, wall_s


def _spot_check(compiled: CompiledNetwork, result: Dict) -> None:
    """Cheap validity probe: every ring edge must be bichromatic."""
    indptr, indices = compiled.indptr, compiled.indices
    step = max(1, compiled.n // 1024)
    for i in range(0, compiled.n, step):
        for j in indices[indptr[i]:indptr[i + 1]]:
            if result[i] == result[j]:
                raise AssertionError(
                    f"monochromatic edge ({i}, {j}) at n={compiled.n}"
                )


def _bench_workloads(ladders: Dict[str, List[int]]) -> List[Dict]:
    rows: List[Dict] = []
    for engine, sizes in ladders.items():
        for n in sizes:
            compiled = stream_ring(n)
            result, q, rounds, wall_s = _solve_ring(compiled, engine)
            _spot_check(compiled, result)
            rows.append({
                "engine": engine,
                "n": n,
                "m": compiled.m,
                "q": q,
                "rounds": rounds,
                "wall_s": round(wall_s, 4),
                "nodes_per_s": round(n / wall_s) if wall_s > 0 else None,
                "peak_rss_kb": peak_rss_kb(),
            })
    return rows


def _bench_chunked(headline_n: int) -> Dict:
    """Re-run the headline workload chunked; colors must be identical."""
    compiled = stream_ring(headline_n)
    baseline, _, _, plain_s = _solve_ring(compiled, "vectorized")
    chunk = max(1, headline_n // 8)
    os.environ["REPRO_SIM_CHUNK"] = str(chunk)
    try:
        chunked, _, _, chunked_s = _solve_ring(compiled, "vectorized")
    finally:
        del os.environ["REPRO_SIM_CHUNK"]
    if chunked != baseline:
        raise AssertionError(
            f"chunked coloring diverged at n={headline_n} chunk={chunk}"
        )
    return {
        "n": headline_n,
        "chunk": chunk,
        "plain_s": round(plain_s, 4),
        "chunked_s": round(chunked_s, 4),
        "identical": True,
    }


def _bench_sharded(headline_n: int) -> Dict:
    """Sharded-engine ladder over the headline workload.

    Every shard count must reproduce the serial vectorized coloring
    bit-for-bit -- the ladder measures layout, never semantics.  Rows
    carry the execution mode actually taken (``process`` worker lanes
    vs in-process ``serial`` shards vs fallback), total halo traffic,
    and the per-shard halo/barrier breakdown from the engine's stats.
    """
    compiled = stream_ring(headline_n)
    baseline, _, _, baseline_s = _solve_ring(compiled, "vectorized")
    rows: List[Dict] = []
    for shards in SHARD_COUNTS:
        reset_metrics()
        with use_shards(shards):
            result, q, rounds, wall_s = _solve_ring(compiled, "sharded")
        if result != baseline:
            raise AssertionError(
                f"sharded coloring diverged at n={headline_n} "
                f"shards={shards}"
            )
        # ``last_run`` outlives reset_metrics(): read it only when this
        # rung engaged, so a fallback row never shows an earlier run.
        stats = shard_stats()
        last = (stats["last_run"] if stats["engaged"] else None) or {}
        nodes_per_s = round(headline_n / wall_s) if wall_s > 0 else None
        rows.append({
            "shards": shards,
            "n": headline_n,
            "q": q,
            "rounds": rounds,
            "wall_s": round(wall_s, 4),
            "nodes_per_s": nodes_per_s,
            "peak_rss_kb": peak_rss_kb(),
            "mode": last.get("mode", "fallback"),
            "backend": last.get("backend"),
            "halo_bytes": last.get("halo_bytes"),
            "barrier_wait_s": last.get("barrier_wait_s"),
            "per_shard": last.get("per_shard"),
            "identical": True,
        })
    return {
        "n": headline_n,
        "serial_wall_s": round(baseline_s, 4),
        "serial_nodes_per_s": (round(headline_n / baseline_s)
                               if baseline_s > 0 else None),
        "rows": rows,
    }


def _bench_build(smoke: bool) -> List[Dict]:
    from repro.graphs.streaming import csr_from_edges

    scale = 50 if smoke else 1
    ring_n = 1_000_000 // scale
    gnp_n = 200_000 // scale
    reg_n = 100_000 // scale
    cases = [
        ("ring", ring_n, lambda: ring_edges(ring_n)),
        ("gnp", gnp_n, lambda: gnp_edges(gnp_n, 2e-5 * scale, 7)),
        ("regular", reg_n, lambda: regular_edges(reg_n, 4, 7)),
    ]
    rows: List[Dict] = []
    for name, n, edges in cases:
        # The generator is created inside the timed region so edge
        # generation and CSR fill are both on the clock; the stream
        # flows straight into the fill, never into a Python list.
        start = time.perf_counter()
        indptr, indices = csr_from_edges(n, edges())
        wall_s = time.perf_counter() - start
        m = len(indices) // 2
        rows.append({
            "builder": name,
            "n": n,
            "m": m,
            "wall_s": round(wall_s, 4),
            "edges_per_s": round(m / wall_s) if wall_s > 0 else None,
        })
    return rows


# ----------------------------------------------------------------------
# Sweep section: the measure function must be importable by pool
# workers, so it lives at module scope.  It resolves the topology via
# shm.lookup -- a mapped shared segment when the parent published one,
# a worker-local rebuild otherwise.
# ----------------------------------------------------------------------
def _sweep_measure(seed: int, n: int) -> Dict:
    compiled = shm.lookup(("ring-stream", n)) or stream_ring(n)
    colors, q = inflated_seed_coloring(compiled, PALETTE)
    target = compiled.raw_max_degree() + 1
    result = greedy_color_reduction(compiled, colors, q, target)
    return {"distinct": len(set(result.values())), "q": q}


def _bench_sweep(n: int) -> Dict:
    compiled = stream_ring(n)
    key = ("ring-stream", n)
    params = [{"seed": seed, "n": n} for seed in range(SWEEP_TRIALS)]
    modes: Dict[str, List[Dict]] = {}
    for mode in ("shared", "rebuild"):
        topologies = {key: compiled} if mode == "shared" else None
        for workers in SWEEP_WORKERS:
            start = time.perf_counter()
            report = parallel_sweep(
                _sweep_measure, params, max_workers=workers,
                engine="vectorized", report=True, topologies=topologies,
            )
            wall_s = time.perf_counter() - start
            worker_rss = [w.get("rss_kb") for w in report.workers
                          if w.get("rss_kb") is not None]
            modes.setdefault(mode, []).append({
                "workers": workers,
                "pool_workers": len(report.workers),
                "wall_s": round(wall_s, 4),
                "worker_peak_rss_kb": worker_rss,
                "max_worker_rss_kb": max(worker_rss, default=None),
            })
    segment = shm.segment_bytes(key)
    return {
        "n": n,
        "trials": SWEEP_TRIALS,
        "segment_bytes": segment,
        "shared": modes["shared"],
        "rebuild": modes["rebuild"],
    }


def run_benchmark(smoke: bool) -> Dict:
    ladders = SMOKE_LADDERS if smoke else LADDERS
    workloads = _bench_workloads(ladders)
    headline_n = max(ladders["vectorized"])
    headline = next(
        row for row in workloads
        if row["engine"] == "vectorized" and row["n"] == headline_n
    )
    chunked = _bench_chunked(headline_n)
    sharded = _bench_sharded(headline_n)
    build = _bench_build(smoke)
    sweep = _bench_sweep(SWEEP_SMOKE_N if smoke else SWEEP_N)
    from repro.sim import arrays

    # The multi-core headline: the best multi-shard row, priced against
    # the serial vectorized baseline measured on the same instance.
    multi_rows = [row for row in sharded["rows"] if row["shards"] > 1]
    best = max(multi_rows, key=lambda row: row["nodes_per_s"] or 0)
    serial_rate = sharded["serial_nodes_per_s"]
    headline_multicore = {
        "engine": "sharded",
        "shards": best["shards"],
        "mode": best["mode"],
        "n": best["n"],
        "nodes_per_s": best["nodes_per_s"],
        "wall_s": best["wall_s"],
        "peak_rss_kb": best["peak_rss_kb"],
        "vs_serial": (round(best["nodes_per_s"] / serial_rate, 3)
                      if best["nodes_per_s"] and serial_rate else None),
    }

    return {
        "benchmark": "bench_scale_frontier",
        "description": ("streamed-CSR million-node coloring: per-engine "
                        "scale ladders, builder throughput, shared-"
                        "memory sweeps"),
        "smoke": smoke,
        "python": platform.python_version(),
        "arrays_backend": {
            "backend": arrays.backend_name(),
            "numpy": arrays.numpy_version(),
        },
        "headline": {
            "engine": "vectorized",
            "n": headline["n"],
            "nodes_per_s": headline["nodes_per_s"],
            "wall_s": headline["wall_s"],
            "peak_rss_kb": headline["peak_rss_kb"],
        },
        "headline_multicore": headline_multicore,
        "workloads": workloads,
        "chunked": chunked,
        "sharded": sharded,
        "build": build,
        "sweep": sweep,
    }


def _render(report: Dict) -> str:
    lines = [
        "BENCH_scale: streamed-CSR scale frontier "
        f"(smoke={report['smoke']}, "
        f"backend={report['arrays_backend']['backend']})",
        f"{'engine':<12} {'n':>9} {'m':>9} {'rounds':>7} {'wall_s':>9} "
        f"{'nodes/s':>11} {'rss MiB':>8}",
    ]
    for row in report["workloads"]:
        rss = row["peak_rss_kb"]
        lines.append(
            f"{row['engine']:<12} {row['n']:>9} {row['m']:>9} "
            f"{row['rounds']:>7} {row['wall_s']:>9.3f} "
            f"{row['nodes_per_s']:>11,} "
            f"{'n/a' if rss is None else f'{rss / 1024:.0f}':>8}"
        )
    chunked = report["chunked"]
    lines.append(
        f"chunked n={chunked['n']} chunk={chunked['chunk']}: "
        f"{chunked['plain_s']:.3f}s plain vs {chunked['chunked_s']:.3f}s "
        f"chunked, colors identical"
    )
    sharded = report["sharded"]
    lines.append(
        f"sharded n={sharded['n']:,} (serial vectorized "
        f"{sharded['serial_nodes_per_s']:,} nodes/s):"
    )
    for row in sharded["rows"]:
        halo = row["halo_bytes"]
        lines.append(
            f"  shards={row['shards']} mode={row['mode']:<8} "
            f"wall {row['wall_s']:>8.3f}s {row['nodes_per_s']:>11,} "
            f"nodes/s  halo "
            f"{'n/a' if halo is None else f'{halo:,} B'}"
        )
    for row in report["build"]:
        lines.append(
            f"build {row['builder']:<8} n={row['n']:>9} m={row['m']:>9} "
            f"{row['wall_s']:>8.3f}s {row['edges_per_s']:>11,} edges/s"
        )
    sweep = report["sweep"]
    seg = sweep["segment_bytes"]
    lines.append(
        f"sweep n={sweep['n']} ({sweep['trials']} trials, segment "
        f"{'n/a' if seg is None else f'{seg / 2**20:.1f} MiB'}):"
    )
    for mode in ("shared", "rebuild"):
        for row in sweep[mode]:
            rss = row["max_worker_rss_kb"]
            lines.append(
                f"  {mode:<8} workers={row['workers']} "
                f"wall {row['wall_s']:>7.3f}s  max worker rss "
                f"{'n/a' if rss is None else f'{rss / 1024:.0f} MiB'}"
            )
    head = report["headline"]
    lines.append(
        f"headline: vectorized n={head['n']:,} at "
        f"{head['nodes_per_s']:,} nodes/s ({head['wall_s']:.2f}s)"
    )
    multi = report["headline_multicore"]
    vs = multi["vs_serial"]
    lines.append(
        f"headline multicore: sharded x{multi['shards']} "
        f"({multi['mode']}) n={multi['n']:,} at "
        f"{multi['nodes_per_s']:,} nodes/s"
        f"{'' if vs is None else f' ({vs:.2f}x serial)'}"
    )
    return "\n".join(lines)


def write_report(report: Dict, json_path: pathlib.Path = JSON_PATH) -> None:
    json_path.write_text(json.dumps(report, indent=2) + "\n")
    emit("BENCH_scale", _render(report))
    print(f"wrote {json_path}")
    write_manifest_sidecar(json_path, extra={
        "benchmark": report["benchmark"],
        "smoke": report["smoke"],
        "headline": report["headline"],
        "headline_multicore": report["headline_multicore"],
        # Per-shard halo/barrier accounting for the multi-core rows --
        # the provenance trail for the parallel numbers above.
        "sharded": [
            {
                "shards": row["shards"],
                "mode": row["mode"],
                "halo_bytes": row["halo_bytes"],
                "barrier_wait_s": row["barrier_wait_s"],
                "per_shard": row["per_shard"],
            }
            for row in report["sharded"]["rows"]
        ],
    })


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def test_scale_benchmark(benchmark):
    """Pytest entry: smoke-scale run with sanity assertions."""
    report = run_benchmark(smoke=True)
    assert report["headline"]["nodes_per_s"] > 0
    assert report["chunked"]["identical"] is True
    for row in report["workloads"]:
        assert row["rounds"] > 0
    assert report["headline_multicore"]["nodes_per_s"] > 0
    for row in report["sharded"]["rows"]:
        assert row["identical"] is True
    benchmark(_solve_ring, stream_ring(2_000), "vectorized")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI sanity runs")
    parser.add_argument("--out", default=str(JSON_PATH),
                        help="path for the JSON report")
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    write_report(report, pathlib.Path(args.out))
    print(_render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
