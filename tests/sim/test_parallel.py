"""Tests for the process-parallel trial runner."""

from __future__ import annotations

import pytest

from repro.analysis import grid, sweep
from repro.sim import SweepReport, default_engine, use_engine
from repro.sim.parallel import (
    WorkerPool,
    derive_seed,
    parallel_sweep,
    resolve_workers,
    run_trials,
)


def measure_square(n: int, offset: int = 0) -> dict:
    """Module-level so it pickles into worker processes."""
    return {"square": n * n + offset}


def measure_seeded(seed: int, scale: int = 1) -> int:
    return seed * scale


def measure_engine(n: int) -> dict:
    """Report the engine the trial actually ran under (in the worker)."""
    return {"engine": default_engine()}


def measure_engine_result(seed: int) -> str:
    return default_engine()


def measure_two_sweep(n: int) -> dict:
    """A real protocol trial: Two-Sweep on a small random graph."""
    from repro.coloring import random_oldc_instance
    from repro.core import two_sweep
    from repro.graphs import gnp_graph, orient_by_id, sequential_ids
    from repro.sim import CostLedger

    network = gnp_graph(n, 0.3, seed=11)
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, p=2, seed=11)
    ids = sequential_ids(network)
    ledger = CostLedger()
    result = two_sweep(instance, ids, n, 2, ledger=ledger, check=False)
    return {
        "rounds": ledger.rounds,
        "colors": tuple(sorted(result.colors.items())),
    }


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_per_trial(self):
        seeds = {derive_seed(0, i) for i in range(200)}
        assert len(seeds) == 200

    def test_distinct_per_base(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_non_negative_31_bit(self):
        for i in range(50):
            assert 0 <= derive_seed(123, i) < 2 ** 31


class TestParallelSweep:
    def test_matches_serial_sweep(self):
        params = grid(n=[1, 2, 3, 4], offset=[0, 10])
        serial = sweep(measure_square, params)
        parallel = parallel_sweep(measure_square, params, max_workers=2)
        assert parallel == serial

    def test_order_preserved(self):
        params = [{"n": n} for n in (5, 1, 3)]
        records = parallel_sweep(measure_square, params, max_workers=2)
        assert [record["n"] for record in records] == [5, 1, 3]

    def test_serial_fallback(self):
        records = parallel_sweep(
            measure_square, [{"n": 6}], max_workers=1
        )
        assert records == [{"n": 6, "square": 36}]

    def test_timing_flag(self):
        records = parallel_sweep(
            measure_square, [{"n": 2}], max_workers=1, timing=True
        )
        assert records[0]["wall_s"] >= 0

    def test_env_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        records = parallel_sweep(measure_square, grid(n=[1, 2]))
        assert [record["square"] for record in records] == [1, 4]


class TestEngineResolution:
    def test_env_set_after_import_reaches_workers(self, monkeypatch):
        # Regression: the engine is resolved in the parent at *call* time
        # and shipped to every worker explicitly, so REPRO_SIM_ENGINE set
        # after the module (or a previous pool) came up still wins --
        # forked workers freeze their environment at spawn.
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        records = parallel_sweep(
            measure_engine, grid(n=[1, 2]), max_workers=2
        )
        assert [r["engine"] for r in records] == ["reference", "reference"]

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        records = parallel_sweep(
            measure_engine, [{"n": 1}], max_workers=1, engine="fast"
        )
        assert records[0]["engine"] == "fast"

    def test_serial_path_honors_engine(self):
        records = parallel_sweep(
            measure_engine, grid(n=[1, 2]), max_workers=1,
            engine="vectorized",
        )
        assert [r["engine"] for r in records] == ["vectorized", "vectorized"]

    def test_invalid_engine_rejected_in_parent(self):
        import pytest

        from repro.sim import SchedulerError

        with pytest.raises(SchedulerError, match="unknown scheduler engine"):
            parallel_sweep(measure_engine, [{"n": 1}], engine="warp")

    def test_vectorized_pool_matches_serial_reference(self):
        params = grid(n=[8, 12, 16])
        with use_engine("reference"):
            baseline = sweep(measure_two_sweep, params)
        records = parallel_sweep(
            measure_two_sweep, params, max_workers=2, engine="vectorized"
        )
        assert records == baseline


class TestSweepReport:
    def test_report_type_and_attributes(self):
        report = parallel_sweep(
            measure_two_sweep, grid(n=[8, 12]), max_workers=2,
            engine="vectorized", report=True,
        )
        assert isinstance(report, SweepReport)
        assert report.engine == "vectorized"
        assert report.wall_s >= 0
        assert report.workers
        for worker in report.workers:
            assert worker["engine"] == "vectorized"
            assert worker["runs"] == worker["hits"] + worker["fallbacks"]
        # Every trial kernelizes, so the pool saw only hits.
        assert sum(w["hits"] for w in report.workers) == 2
        assert sum(
            w["by_kernel"].get("TwoSweepKernel", 0) for w in report.workers
        ) == 2

    def test_report_is_a_record_list(self):
        report = parallel_sweep(
            measure_square, grid(n=[2, 3]), max_workers=1, report=True
        )
        assert list(report) == sweep(measure_square, grid(n=[2, 3]))
        assert report.records == list(report)
        assert all("__metrics__" not in record for record in report)

    def test_describe_mentions_engine_and_workers(self):
        report = parallel_sweep(
            measure_two_sweep, [{"n": 8}], max_workers=1,
            engine="vectorized", report=True,
        )
        text = report.describe()
        assert "engine=vectorized" in text
        assert "worker pid=" in text
        assert "TwoSweepKernel x1" in text


class TestRunTrials:
    def test_deterministic_and_seeded(self):
        first = run_trials(measure_seeded, 5, base_seed=9, max_workers=1)
        second = run_trials(measure_seeded, 5, base_seed=9, max_workers=2)
        assert first == second
        assert first == [derive_seed(9, i) for i in range(5)]

    def test_common_kwargs_forwarded(self):
        results = run_trials(
            measure_seeded, 3, base_seed=4, max_workers=1, scale=2
        )
        assert results == [2 * derive_seed(4, i) for i in range(3)]

    def test_engine_passthrough(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        results = run_trials(
            measure_engine_result, 2, base_seed=1, max_workers=2,
            engine="vectorized",
        )
        assert results == ["vectorized", "vectorized"]


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "8")
        assert resolve_workers(3) == 3

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        assert resolve_workers() == 2

    def test_bad_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "lots")
        assert resolve_workers() >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1


class TestTraceMerge:
    def test_worker_traces_merge_into_parent(self):
        from repro.obs import Tracer, use_tracer, validate_events

        tracer = Tracer()
        with use_tracer(tracer):
            report = parallel_sweep(
                measure_two_sweep, [{"n": 8}, {"n": 9}, {"n": 10}],
                max_workers=2, report=True,
            )
        assert isinstance(report, SweepReport)
        assert report.trace_events
        # Every worker record carries its worker pid; the pids match the
        # report's worker attribution.
        workers = {
            record["worker"] for record in report.trace_events
            if "worker" in record
        }
        assert workers <= {stats["pid"] for stats in report.workers}
        # The merged stream (algorithm span + per-trial runs) is a valid
        # trace: unique span ids, no dangling parents.
        assert validate_events(tracer.events) == []
        kinds = {record["kind"] for record in tracer.events}
        assert "algorithm" in kinds and "run" in kinds
        run_spans = [
            record for record in tracer.events if record["kind"] == "run"
        ]
        assert len(run_spans) == 3
        assert "traced" in report.describe()

    def test_trial_results_unchanged_by_tracing(self):
        from repro.obs import Tracer, use_tracer

        baseline = parallel_sweep(
            measure_two_sweep, [{"n": 8}, {"n": 9}], max_workers=2,
        )
        with use_tracer(Tracer()):
            traced = parallel_sweep(
                measure_two_sweep, [{"n": 8}, {"n": 9}], max_workers=2,
            )
        assert traced == baseline

    def test_untraced_sweep_has_no_trace_events(self):
        report = parallel_sweep(
            measure_square, grid(n=[2, 3]), max_workers=1, report=True
        )
        assert report.trace_events == []
        assert "traced" not in report.describe()

    def test_serial_fallback_traces_inline(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            parallel_sweep(measure_two_sweep, [{"n": 8}], max_workers=1)
        # max_workers=1 runs serially in-process: spans flow straight
        # into the ambient tracer, with no worker stamping.
        assert any(record["kind"] == "run" for record in tracer.events)
        assert all("worker" not in record for record in tracer.events)


class TestWorkerMetricsMerge:
    """Worker registry deltas ride the record channel into the parent."""

    @staticmethod
    def _sim_runs(snap) -> float:
        entry = snap.get("repro_sim_runs_total") or {}
        return sum(s["value"] for s in entry.get("samples", ()))

    def test_pool_sweep_matches_serial_counts(self):
        from repro.obs import metrics as obs_metrics

        params = [{"n": 8}, {"n": 9}, {"n": 10}, {"n": 11}]
        obs_metrics.reset_metrics()
        serial = parallel_sweep(measure_two_sweep, params, max_workers=1)
        serial_runs = self._sim_runs(obs_metrics.snapshot())
        assert serial_runs > 0

        obs_metrics.reset_metrics()
        pooled = parallel_sweep(measure_two_sweep, params, max_workers=2)
        pooled_runs = self._sim_runs(obs_metrics.snapshot())
        # Same trials, same per-run instrumentation: the merged worker
        # deltas must account for exactly the serial total -- neither
        # lost (deltas dropped) nor doubled (same-pid re-merge).
        assert pooled_runs == serial_runs
        assert list(pooled) == list(serial)

    def test_metrics_key_stripped_from_records(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset_metrics()
        records = parallel_sweep(
            measure_two_sweep, [{"n": 8}, {"n": 9}], max_workers=2,
        )
        assert all("__metrics__" not in record for record in records)

    def test_rounds_and_messages_merge(self):
        from repro.obs import metrics as obs_metrics

        obs_metrics.reset_metrics()
        parallel_sweep(measure_two_sweep, [{"n": 8}], max_workers=2)
        snap = obs_metrics.snapshot()
        rounds = sum(
            s["value"]
            for s in snap["repro_sim_rounds_total"]["samples"]
        )
        messages = sum(
            s["value"]
            for s in snap["repro_sim_messages_total"]["samples"]
        )
        assert rounds > 0
        assert messages > 0


class TestOneStatsStore:
    """Sweep reports and ``kernel_stats()`` read the one registry."""

    PARAMS = [{"n": n} for n in (8, 9, 10, 11, 12, 13)]

    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_reused_pool_reports_only_this_sweeps_runs(self, mode):
        with WorkerPool(max_workers=2, engine="vectorized",
                        mode=mode) as pool:
            reports = [
                parallel_sweep(measure_two_sweep, self.PARAMS, pool=pool,
                               report=True)
                for _ in range(2)
            ]
        for report in reports:
            # One kernelized run per trial, counted once per sweep.
            assert sum(w["runs"] for w in report.workers) == len(self.PARAMS)
            assert sum(w["hits"] for w in report.workers) == len(self.PARAMS)

    def test_serial_and_pooled_worker_entries_share_keys(self):
        serial = parallel_sweep(measure_two_sweep, self.PARAMS,
                                max_workers=1, engine="vectorized",
                                report=True)
        pooled = parallel_sweep(measure_two_sweep, self.PARAMS,
                                max_workers=2, engine="vectorized",
                                report=True)
        keys = {frozenset(w) for w in serial.workers + pooled.workers}
        assert keys == {frozenset({
            "pid", "engine", "rss_kb", "runs", "hits", "fallbacks",
            "warmup_s", "by_kernel", "by_reason", "by_backend",
        })}

    def test_kernel_stats_equal_merged_registry_after_pooled_sweep(self):
        from repro.obs import metrics as obs_metrics
        from repro.sim import kernel_stats

        obs_metrics.reset_metrics()
        try:
            report = parallel_sweep(measure_two_sweep, self.PARAMS,
                                    max_workers=2, engine="vectorized",
                                    report=True)
            stats = kernel_stats()
            dispatch = obs_metrics.snapshot()["repro_kernel_dispatch_total"]
        finally:
            obs_metrics.reset_metrics()
        assert stats["runs"] == len(self.PARAMS)
        assert stats["runs"] == sum(s["value"] for s in dispatch["samples"])
        assert stats["runs"] == sum(w["runs"] for w in report.workers)
        assert stats["by_kernel"] == {"TwoSweepKernel": len(self.PARAMS)}
