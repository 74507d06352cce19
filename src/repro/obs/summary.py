"""Trace summarization backing the ``repro trace`` CLI subcommand.

Turns a JSONL trace (manifest + records) into the three tables an
operator actually wants from a run:

* **per-phase profile** -- wall-clock, rounds, messages, bits and
  broadcasts per named phase, aggregated over invocations, sorted by
  wall-clock (where did the time go, and did it go where the theory
  says the rounds went?);
* **kernel hit-rate** -- how many scheduler runs went through a
  vectorized kernel vs fell back, by kernel and by fallback reason
  (is the benchmark measuring the code path it thinks it is?);
* **worker skew** -- per-worker wall-clock totals for merged parallel
  sweeps (is one straggler worker hiding the speedup?).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple


def _phase_profile(events: Iterable[Dict[str, Any]]
                   ) -> List[Tuple[str, int, float, int, int, int, int]]:
    """``(name, invocations, wall_s, rounds, messages, bits, broadcasts)``
    per phase span name, sorted by wall-clock descending."""
    totals: Dict[str, List[Any]] = {}
    for record in events:
        if record.get("kind") != "phase":
            continue
        row = totals.setdefault(record.get("name", "?"),
                                [0, 0.0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += record.get("wall_s", 0.0) or 0.0
        row[2] += record.get("rounds", 0) or 0
        row[3] += record.get("messages", 0) or 0
        row[4] += record.get("bits", 0) or 0
        row[5] += record.get("broadcasts", 0) or 0
    return sorted(
        ((name, *row) for name, row in totals.items()),
        key=lambda entry: (-entry[2], entry[0]),
    )


def _kernel_rate(events: Iterable[Dict[str, Any]]
                 ) -> Dict[str, Any]:
    """Hit/fallback counts over the trace's vectorized scheduler runs."""
    runs = hits = fallbacks = 0
    by_kernel: Dict[str, int] = {}
    by_backend: Dict[str, int] = {}
    by_reason: Dict[str, int] = {}
    for record in events:
        if record.get("kind") != "run" \
                or record.get("engine") != "vectorized":
            continue
        runs += 1
        kernel = record.get("kernel")
        if kernel:
            hits += 1
            by_kernel[kernel] = by_kernel.get(kernel, 0) + 1
            backend = record.get("backend") or "python"
            key = f"{kernel}[{backend}]"
            by_backend[key] = by_backend.get(key, 0) + 1
        else:
            fallbacks += 1
            reason = record.get("fallback") or "unknown"
            by_reason[reason] = by_reason.get(reason, 0) + 1
    return {
        "runs": runs,
        "hits": hits,
        "fallbacks": fallbacks,
        "hit_rate": (hits / runs) if runs else None,
        "by_kernel": by_kernel,
        "by_backend": by_backend,
        "by_reason": by_reason,
    }


def _worker_skew(events: Iterable[Dict[str, Any]]
                 ) -> List[Tuple[Any, int, float]]:
    """``(worker, run_spans, wall_s)`` per worker id, busiest first."""
    totals: Dict[Any, List[Any]] = {}
    for record in events:
        worker = record.get("worker")
        if worker is None or record.get("kind") != "run":
            continue
        row = totals.setdefault(worker, [0, 0.0])
        row[0] += 1
        row[1] += record.get("wall_s", 0.0) or 0.0
    return sorted(
        ((worker, count, wall) for worker, (count, wall) in totals.items()),
        key=lambda entry: -entry[2],
    )


def summarize_trace(manifest: Optional[Dict[str, Any]],
                    events: List[Dict[str, Any]]) -> str:
    """The multi-line human summary printed by ``repro trace``."""
    from ..analysis import render_table

    lines: List[str] = []
    if manifest is not None:
        git = manifest.get("git") or {}
        commit = git.get("commit")
        lines.append(
            f"trace: repro {manifest.get('version')} "
            f"engine={manifest.get('engine')} "
            f"python={manifest.get('python')} "
            f"git={commit[:12] if commit else 'n/a'}"
            f"{'+dirty' if git.get('dirty') else ''}"
        )
        env = manifest.get("env") or {}
        if env:
            lines.append("env: " + " ".join(
                f"{key}={value}" for key, value in sorted(env.items())
            ))
        rss = manifest.get("rss") or {}
        if rss.get("max_rss_kb") is not None:
            lines.append(f"peak rss: {rss['max_rss_kb'] / 1024:.1f} MiB")
    runs = sum(1 for record in events if record.get("kind") == "run")
    total_wall = sum(
        record.get("wall_s", 0.0) or 0.0
        for record in events
        if record.get("kind") == "run"
    )
    lines.append(
        f"{len(events)} records, {runs} scheduler run(s), "
        f"{total_wall:.4f}s summed run wall-clock"
    )

    profile = _phase_profile(events)
    if profile:
        lines.append("")
        lines.append(render_table(
            ["phase", "invocations", "wall_s", "rounds", "messages",
             "bits", "broadcasts"],
            [
                [name, invocations, f"{wall:.4f}", rounds, messages,
                 bits, broadcasts]
                for name, invocations, wall, rounds, messages, bits,
                broadcasts in profile
            ],
        ))

    rate = _kernel_rate(events)
    if rate["runs"]:
        kernels = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(rate["by_backend"].items())
        ) or "-"
        reasons = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(rate["by_reason"].items())
        ) or "-"
        lines.append("")
        lines.append(
            f"vectorized runs: {rate['hits']}/{rate['runs']} kernel hits "
            f"({rate['hit_rate']:.0%}); kernels [{kernels}]; "
            f"fallbacks [{reasons}]"
        )

    skew = _worker_skew(events)
    if skew:
        walls = [wall for _, _, wall in skew]
        busiest, idlest = max(walls), min(walls)
        lines.append("")
        lines.append(render_table(
            ["worker", "run spans", "wall_s"],
            [[worker, count, f"{wall:.4f}"] for worker, count, wall in skew],
        ))
        if idlest > 0 and len(skew) > 1:
            lines.append(
                f"worker skew: busiest/idlest = {busiest / idlest:.2f}x"
            )

    metrics = (manifest or {}).get("metrics")
    if metrics:
        from .top import render_top, summarize_metrics

        lines.append("")
        lines.append("metrics registry at capture:")
        lines.append(render_top(summarize_metrics(metrics)))
    return "\n".join(lines)
