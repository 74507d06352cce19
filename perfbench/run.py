#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload scale-ring --seed 1 --seconds 20 --trace 0

* ``scale-ring`` -- ``repro --engine vectorized scale --n 1000000
  --json`` called in-process through ``repro.cli.main``, between the
  200,000-node calls of ``docs/observability.md``; checked against
  committed digests.
* ``sweep-oldc`` -- one ``parallel_sweep`` of Two-Sweep and
  Fast-Two-Sweep trials on seeded G(n, 6/n); every trial must pass
  ``check_oldc`` within 2q+1 rounds.
* ``serve-mix`` -- a ``repro serve`` daemon driven open-loop at a light
  and a heavy rate, interleaved with closed-loop passes of the same
  mix; every response must equal a serial ``execute_request``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics (layers a workload bypasses read 0).  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit status is non-zero when any output fails its check.
``--profile smoke`` shrinks every workload to seconds (the benchmark's
own tests use it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

START = time.perf_counter()

# START precedes these imports: a setup probe's cold time includes them.
import batch  # noqa: E402
import common  # noqa: E402
import tracing as tr  # noqa: E402

WORKLOADS = ("scale-ring", "sweep-oldc", "serve-mix")


def declared_metrics(trace: bool) -> dict:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares."""
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def latency_metrics(metrics: dict, level: str, samples_s, notes) -> None:
    samples = [value * 1000.0 for value in samples_s]
    value, pct, count = common.tail(samples)
    metrics[f"latency_p50_ms.{level}"] = statistics.median(samples)
    metrics[f"latency_tail_ms.{level}"] = value
    notes.append(f"{level}: p50 and tail p{pct:.1f} over {count} samples")


# ----------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ----------------------------------------------------------------------
def scale_ring(cfg, seed, seconds, notes):
    probes = batch.run_probes("scale-ring", seed, cfg["probes"],
                              cfg["profile"])
    run = batch.run_scale(cfg, seconds)
    light, heavy = run["light"], run["heavy"]
    ops = run["warmup"] + light + heavy
    failures = [op["reason"] for op in ops if not op["ok"]]
    failures += ["probe check failed" for p in probes if not p["ok"]]
    guard = batch.kernel_guard(run["kernel_runs"], run["kernel_hits"])
    failures += [guard] if guard else []
    measured = light + heavy
    metrics = {
        "setup_s": statistics.median(
            p["cold_s"] - statistics.median(p["warm_s"]) for p in probes),
        "peak_rss_mb": common.vm_hwm_kb() / 1024.0,
        "wall_s": statistics.median(op["wall_s"] for op in heavy),
        "max_rps": len(measured) / sum(op["wall_s"] for op in measured),
    }
    latency_metrics(metrics, "light", [op["wall_s"] for op in light], notes)
    latency_metrics(metrics, "heavy", [op["wall_s"] for op in heavy], notes)
    notes.append(f"wall_s: median of {len(heavy)} warm {cfg['heavy_n']} "
                 f"node calls; light calls: {cfg['light_n']} nodes, "
                 f"{cfg['light_calls']} before each headline call")
    notes.append(f"kernel hits {run['kernel_hits']}/{run['kernel_runs']}")
    attempted = len(ops) + sum(1 + len(p["warm_s"]) for p in probes)
    return metrics, attempted, failures


def sweep_oldc(cfg, seed, seconds, notes):
    probes = batch.run_probes("sweep-oldc", seed, cfg["probes"],
                              cfg["profile"])
    run = batch.run_sweep(cfg, seed, seconds)
    passes = run["passes"]
    records = [r for p in passes for r in p["records"]]
    checked = run["warmup"]["records"] + records
    failures = [f for f in map(batch.trial_failure, checked) if f]
    failures += ["probe check failed" for p in probes if not p["ok"]]
    hits = sum(p["kernel_hits"] for p in passes)
    runs = sum(p["kernel_runs"] for p in passes)
    guard = batch.kernel_guard(runs, hits)
    failures += [guard] if guard else []
    light = set(cfg["light_sizes"])
    own = passes[0]["parent_hwm_kb"]
    peak_kb = max(
        p["parent_hwm_kb"] + sum(kb for pid, kb in p["worker_hwm_kb"].items()
                                 if pid != os.getpid())
        for p in passes)
    metrics = {
        "setup_s": statistics.median(
            p["cold_s"] - statistics.median(p["warm_s"]) for p in probes),
        "peak_rss_mb": peak_kb / 1024.0,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "max_rps": len(records) / sum(p["wall_s"] for p in passes),
    }
    latency_metrics(metrics, "light",
                    [r["wall_s"] for r in records if r["n"] in light], notes)
    latency_metrics(metrics, "heavy",
                    [r["wall_s"] for r in records if r["n"] not in light],
                    notes)
    notes.append(f"wall_s: median of {len(passes)} sweeps of "
                 f"{len(passes[0]['records'])} trials; parent VmHWM "
                 f"{own / 1024:.1f} MiB")
    notes.append(f"kernel hits {hits}/{runs}")
    attempted = len(checked) + sum(
        (1 + len(p["warm_s"])) * len(cfg["probe"]["sizes"])
        * len(cfg["probe"]["ps"]) * 2 for p in probes)
    return metrics, attempted, failures


# ----------------------------------------------------------------------
# Traced runs: per-layer metrics
# ----------------------------------------------------------------------
def scale_ring_traced(cfg, seed, seconds, notes):
    run = batch.scale_traced(cfg)
    spans = run["spans"]
    wall = run["traced"]["wall_s"]
    failures = [op["reason"] for op in
                (run["warmup"], run["untraced"], run["traced"]) if not op["ok"]]
    guard = batch.kernel_guard(run["kernel_runs"], run["kernel_hits"])
    failures += [guard] if guard else []
    ledger = run["traced"]["ledger"]
    metrics = {
        "cli.self_s": tr.self_time(spans, "cli"),
        "graphs.build_s": tr.total(spans, "graphs.build"),
        "graphs.build_calls": tr.calls(spans, "graphs.build"),
        "graphs.seed_s": tr.total(spans, "graphs.seed"),
        "substrates.reduce_self_s": tr.self_time(spans, "substrates.reduce"),
        "obs.trace_overhead": wall / run["untraced"]["wall_s"],
        "obs.traced_wall_s": wall,
        "unattributed_s": wall - tr.total(spans, "cli"),
        "sim.kernel_hit_ratio": (run["kernel_hits"] / run["kernel_runs"]
                                 if run["kernel_runs"] else 0.0),
        "sim.rounds": ledger.get("rounds", 0),
        "sim.messages": ledger.get("messages", 0),
    }
    metrics.update(sim_spans(spans))
    return metrics, 3, failures


def sim_spans(spans) -> dict:
    return {
        "sim.scheduler_init_s": tr.total(spans, "sim.scheduler_init"),
        "sim.run_self_s": tr.self_time(spans, "sim.run"),
        "sim.kernel_prepare_s": tr.total(spans, "sim.kernel_prepare"),
        "sim.kernel_step_s": tr.total(spans, "sim.kernel_step"),
        "sim.kernel_finalize_s": tr.total(spans, "sim.kernel_finalize"),
        "sim.outputs_s": tr.total(spans, "sim.outputs"),
    }


def sweep_oldc_traced(cfg, seed, seconds, notes):
    run = batch.sweep_traced(cfg, seed)
    spans, traced = run["spans"], run["traced"]
    records = traced["records"]
    checked = (run["warmup"]["records"] + run["untraced"]["records"]
               + records)
    failures = [f for f in map(batch.trial_failure, checked) if f]
    guard = batch.kernel_guard(traced["kernel_runs"], traced["kernel_hits"])
    failures += [guard] if guard else []
    busy = list(traced["worker_busy_s"].values())
    metrics = {
        "graphs.build_s": tr.total(spans, "graphs.build"),
        "graphs.build_calls": tr.calls(spans, "graphs.build"),
        "graphs.orient_s": tr.total(spans, "graphs.orient"),
        "coloring.instance_s": tr.total(spans, "coloring.instance"),
        "coloring.check_s": tr.total(spans, "coloring.check"),
        "core.two_sweep_self_s": tr.self_time(spans, "core.two_sweep"),
        "core.fast_two_sweep_self_s": tr.self_time(spans,
                                                   "core.fast_two_sweep"),
        "parallel.pool_start_s": (min(r["t_start"] for r in records)
                                  - traced["start"]),
        "parallel.worker_busy_s": sum(busy),
        "parallel.worker_skew": max(busy) / (sum(busy) / len(busy)),
        "parallel.overhead_s": traced["wall_s"] - max(busy),
        "obs.trace_overhead": traced["wall_s"] / run["untraced"]["wall_s"],
        "obs.traced_wall_s": traced["wall_s"],
        "unattributed_s": tr.self_time(spans, "trial"),
        "sim.kernel_hit_ratio": (traced["kernel_hits"]
                                 / traced["kernel_runs"]
                                 if traced["kernel_runs"] else 0.0),
        "sim.rounds": sum(r["rounds"] for r in records),
        "sim.messages": sum(r["messages"] for r in records),
    }
    metrics.update(sim_spans(spans))
    notes.append("unattributed_s: trial time outside every layer span, "
                 "summed over workers")
    return metrics, len(checked), failures


def serve_mix(cfg, seed, seconds, notes):
    import servemix  # asyncio and http: not worth a probe's cold time

    return servemix.run_untraced(cfg, seed, seconds, notes)


def serve_mix_traced(cfg, seed, seconds, notes):
    import servemix

    return servemix.run_traced(cfg, seed, seconds, notes)


RUNNERS = {
    ("scale-ring", False): scale_ring,
    ("sweep-oldc", False): sweep_oldc,
    ("serve-mix", False): serve_mix,
    ("scale-ring", True): scale_ring_traced,
    ("sweep-oldc", True): sweep_oldc_traced,
    ("serve-mix", True): serve_mix_traced,
}


def smoke_profile(profile: dict) -> dict:
    """Seconds-long sizes for the benchmark's own tests."""
    profile["scale-ring"].update(heavy_n=40000, light_n=5000, light_calls=1,
                                 probe_n=5000, probes=1, probe_warm=1)
    profile["sweep-oldc"].update(sizes=[100, 200], light_sizes=[100],
                                 ps=[2], probes=1, probe_warm=1)
    profile["sweep-oldc"]["probe"].update(sizes=[60], ps=[2])
    profile["serve-mix"].update(launches=1, closed_ops=12, blocks=1)
    return profile


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    removed = common.clean_env()
    try:
        common.import_repro()
        profile = common.load_profile()
        if args.profile == "smoke":
            profile = smoke_profile(profile)
        cfg = dict(profile[args.workload], profile=args.profile)
        if args.probe:
            print(json.dumps(batch.probe(args.workload, cfg, args.seed,
                                         START)))
            return 0
        host = common.host_record(removed)
        declared = declared_metrics(bool(args.trace))
        notes: list = []
        values, attempted, failures = RUNNERS[args.workload,
                                              bool(args.trace)](
            cfg, args.seed, args.seconds, notes)
    except common.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    extra = sorted(set(values) - set(declared))
    if args.trace:
        # Layers this workload bypasses read 0.
        values["error_rate"] = len(failures) / attempted
        values = {name: values.get(name, 0.0) for name in declared}
    missing = sorted(set(declared) - set(values))
    if missing or extra:
        print(f"perfbench: metrics missing {missing}, undeclared {extra}",
              file=sys.stderr)
        return 2
    metrics = {name: common.metric(float(values[name]), declared[name])
               for name in declared}
    notes.append(f"error_rate {len(failures)}/{attempted}")
    notes.extend(f"FAILED: {reason}" for reason in failures[:20])
    notes.append(f"host {json.dumps(host)}")
    for line in common.summary_lines(args.workload, args.seed, metrics,
                                     notes):
        print(line)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
