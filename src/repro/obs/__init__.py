"""Engine-agnostic run telemetry: tracing, profiling, and manifests.

The simulator's :class:`~repro.sim.metrics.CostLedger` accounts for the
*logical* cost of a run (rounds, messages, bits -- the quantities the
paper's theorems bound).  This package accounts for the *physical* run:
which engine executed it, how much wall-clock each phase took, whether
the vectorized kernels actually fired, which seeds and environment
produced the numbers.  Three pieces:

* :class:`Tracer` (:mod:`repro.obs.tracer`) -- structured span/event
  records (run -> phase -> round-batch) emitted through zero-overhead
  hooks in all three scheduler engines; the *logical* projection of a
  trace is part of the engine-equivalence contract, while physical
  fields (wall-clock, pid, engine, kernel, worker) are stripped by
  :func:`logical_view`;
* :func:`collect_manifest` (:mod:`repro.obs.manifest`) -- the
  provenance record (engine, seeds, ``REPRO_SIM_*`` env, cache/kernel
  counters, package + git versions) written with every trace and as a
  ``*.manifest.json`` sidecar of every benchmark JSON;
* exporters and tooling (:mod:`repro.obs.export`,
  :mod:`repro.obs.schema`, :mod:`repro.obs.summary`) -- JSONL and
  Chrome ``trace_event`` writers, a dependency-free schema validator,
  and the summarizer behind the ``repro trace`` CLI subcommand.
"""

from .export import chrome_trace, write_chrome, write_jsonl, write_manifest
from .manifest import MANIFEST_VERSION, collect_manifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsFlusher,
    MetricsRegistry,
    counter,
    exposition,
    gauge,
    histogram,
    log_buckets,
    merge,
    nearest_rank,
    percentile,
    record_run,
    reset_metrics,
    snapshot,
    snapshot_delta,
)
from .schema import (
    TRACE_SCHEMA,
    load_trace_file,
    validate_events,
    validate_record,
    validate_trace_file,
)
from .summary import summarize_trace
from .tracer import (
    PHYSICAL_FIELDS,
    PHYSICAL_KINDS,
    Span,
    Tracer,
    canonical_lines,
    current_tracer,
    logical_view,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_VERSION",
    "MetricError",
    "MetricsFlusher",
    "MetricsRegistry",
    "PHYSICAL_FIELDS",
    "PHYSICAL_KINDS",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "canonical_lines",
    "chrome_trace",
    "collect_manifest",
    "counter",
    "current_tracer",
    "exposition",
    "gauge",
    "histogram",
    "load_trace_file",
    "log_buckets",
    "logical_view",
    "merge",
    "nearest_rank",
    "percentile",
    "record_run",
    "reset_metrics",
    "set_tracer",
    "snapshot",
    "snapshot_delta",
    "summarize_trace",
    "use_tracer",
    "validate_events",
    "validate_record",
    "validate_trace_file",
    "write_chrome",
    "write_jsonl",
    "write_manifest",
]
