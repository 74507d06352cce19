"""The sharded engine: partition, halo exchange, byte-identity, stats.

The acceptance contract is absolute: for every shard count, both
execution modes (in-process serial shards and the persistent worker
lanes), and both kernel backends, colors, ledgers, exception order, and
the canonical logical trace stream must be byte-identical to the serial
vectorized engine.  Process mode is exercised by dropping
``MIN_SHARD_NODES`` so modest streamed topologies take the worker-lane
path for real -- halo state crossing an actual shared-memory segment.
"""

from __future__ import annotations

import pytest

from repro.graphs.streaming import (
    inflated_seed_coloring,
    stream_gnp,
    stream_grid,
    stream_regular,
    stream_ring,
)
from repro.obs import Tracer, canonical_lines, reset_metrics, use_tracer
from repro.sim import (
    CongestModel,
    CostLedger,
    AlgorithmFailure,
    default_shards,
    run_protocol,
    set_default_shards,
    shard_stats,
    use_engine,
    use_shards,
)
from repro.sim import sharded
from repro.substrates.greedy import (
    _ColorReductionProgram,
    greedy_color_reduction,
)


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_metrics()
    yield
    reset_metrics()


def _ledger_state(ledger: CostLedger):
    return (
        ledger.rounds, ledger.messages, ledger.bits,
        ledger.max_message_bits, ledger.broadcasts,
        {
            name: (stats.rounds, stats.messages, stats.bits,
                   stats.max_message_bits, stats.broadcasts,
                   stats.invocations)
            for name, stats in ledger.phases.items()
        },
    )


def _reduce(compiled, bandwidth=None):
    """The scale workload on a streamed CSR: palette down to Delta+1."""
    target = compiled.raw_max_degree() + 1
    colors, q = inflated_seed_coloring(compiled, max(14, 2 * target))
    ledger = CostLedger()
    result = greedy_color_reduction(compiled, colors, q, target,
                                    ledger=ledger, bandwidth=bandwidth)
    return result, ledger


class TestShardsAPI:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(sharded.SHARDS_ENV, raising=False)
        assert default_shards() == 1

    def test_env_read_dynamically(self, monkeypatch):
        monkeypatch.setenv(sharded.SHARDS_ENV, "3")
        assert default_shards() == 3
        monkeypatch.setenv(sharded.SHARDS_ENV, "junk")
        assert default_shards() == 1

    def test_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(sharded.SHARDS_ENV, "3")
        previous = set_default_shards(5)
        try:
            assert default_shards() == 5
        finally:
            sharded._shards_override = None
        assert previous == 3

    def test_set_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_default_shards(0)

    def test_use_shards_restores(self):
        before = default_shards()
        with use_shards(4):
            assert default_shards() == 4
            with use_shards(2):
                assert default_shards() == 2
            assert default_shards() == 4
        assert default_shards() == before


class TestFallbackChain:
    def test_single_shard_falls_back(self):
        compiled = stream_ring(64)
        with use_engine("sharded"), use_shards(1):
            result, ledger = _reduce(compiled)
        stats = shard_stats()
        assert stats["engaged"] == 0
        assert stats["by_reason"].get("single-shard") == 1
        assert ledger.rounds > 0

    def test_unregistered_program_falls_back(self):
        from repro.sim import NodeProgram

        class Anon(NodeProgram):
            def on_round(self, ctx):
                ctx.halt()

        compiled = stream_ring(32)
        programs = {node: Anon() for node in compiled.order}
        with use_engine("sharded"), use_shards(2):
            run_protocol(compiled, programs)
        assert shard_stats()["by_reason"].get("unregistered") == 1

    def test_engaged_run_records_stats(self):
        compiled = stream_ring(96)
        with use_engine("sharded"), use_shards(2):
            _reduce(compiled)
        stats = shard_stats()
        assert stats["engaged"] == 1
        assert stats["by_shards"] == {2: 1}
        last = stats["last_run"]
        assert last["shards"] == 2
        assert last["rounds"] > 0
        assert len(last["per_shard"]) == 2
        for entry in last["per_shard"]:
            assert entry["nodes"] > 0
            assert entry["barrier_wait_s"] >= 0.0
            assert entry["halo_in_bytes"] >= 0


class TestSerialShardIdentity:
    """Satellite property test: shard counts x streamed families.

    ``stream_*`` topologies are CSR-direct (dense ``range`` order), the
    regime the engine is built for; every observable -- colors, full
    ledger state, canonical logical trace -- must be byte-identical to
    the serial vectorized engine for every shard count.
    """

    TOPOLOGIES = {
        "ring": lambda: stream_ring(240),
        "grid": lambda: stream_grid(14, 14),
        "gnp": lambda: stream_gnp(220, 0.03, seed=7),
        "regular": lambda: stream_regular(210, 4, seed=11),
    }

    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_identical_to_vectorized(self, topology, shards):
        compiled = self.TOPOLOGIES[topology]()
        ref_tracer = Tracer()
        with use_engine("vectorized"), use_tracer(ref_tracer):
            ref_result, ref_ledger = _reduce(compiled)
        tracer = Tracer()
        with use_engine("sharded"), use_shards(shards), \
                use_tracer(tracer):
            result, ledger = _reduce(compiled)
        assert result == ref_result
        assert _ledger_state(ledger) == _ledger_state(ref_ledger)
        assert canonical_lines(tracer.events) == \
            canonical_lines(ref_tracer.events)
        if shards > 1:
            assert shard_stats()["engaged"] == 1

    def test_congest_identical(self):
        compiled = stream_ring(180)
        bandwidth = CongestModel(180, factor=64)
        with use_engine("vectorized"):
            ref_result, ref_ledger = _reduce(compiled, bandwidth)
        with use_engine("sharded"), use_shards(3):
            result, ledger = _reduce(compiled, bandwidth)
        assert result == ref_result
        assert _ledger_state(ledger) == _ledger_state(ref_ledger)


def _infeasible_programs(n=8):
    """A ring population engineered to fail during reduction.

    ``target=1`` is below Delta+1, so the first decider whose stale
    neighborhood occupies color 0 has no free color below the target --
    node 0 here, making the expected exception order unambiguous.
    """
    compiled = stream_ring(n)
    colors = [(i % 4 + 3) % 4 for i in range(n)]  # 3,0,1,2,3,0,...
    programs = {
        i: _ColorReductionProgram(i, colors[i], 4, 1) for i in range(n)
    }
    return compiled, programs


class TestFailureSemantics:
    def test_failure_matches_vectorized(self):
        errors = {}
        ledgers = {}
        for engine, shards in (("vectorized", 1), ("sharded", 2),
                               ("sharded", 4)):
            compiled, programs = _infeasible_programs()
            ledger = CostLedger()
            with use_engine(engine), use_shards(shards):
                with pytest.raises(AlgorithmFailure) as info:
                    run_protocol(compiled, programs, ledger=ledger)
            errors[(engine, shards)] = str(info.value)
            ledgers[(engine, shards)] = _ledger_state(ledger)
        assert errors[("sharded", 2)] == errors[("vectorized", 1)]
        assert errors[("sharded", 4)] == errors[("vectorized", 1)]
        assert "node 0" in errors[("vectorized", 1)]
        assert ledgers[("sharded", 2)] == ledgers[("vectorized", 1)]
        assert ledgers[("sharded", 4)] == ledgers[("vectorized", 1)]


class TestProcessMode:
    """Worker-lane execution over a real shared-memory state segment."""

    @pytest.fixture()
    def small_threshold(self, monkeypatch):
        monkeypatch.setattr(sharded, "MIN_SHARD_NODES", 128)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_identical_to_vectorized(self, small_threshold, shards):
        compiled = stream_ring(1500)
        with use_engine("vectorized"):
            ref_result, ref_ledger = _reduce(compiled)
        with use_engine("sharded"), use_shards(shards):
            result, ledger = _reduce(compiled)
        assert result == ref_result
        assert _ledger_state(ledger) == _ledger_state(ref_ledger)
        stats = shard_stats()
        assert stats["engaged"] == 1
        last = stats["last_run"]
        if last["mode"] == "process":
            # Ring halos are two boundary nodes per shard; some round
            # must actually move bytes through the segment.
            assert last["halo_bytes"] > 0
        else:  # pragma: no cover - pools unusable in this sandbox
            assert last["mode"] == "serial"

    def test_repeat_runs_reuse_lanes(self, small_threshold):
        compiled = stream_ring(1500)
        with use_engine("sharded"), use_shards(2):
            first, _ = _reduce(compiled)
            second, _ = _reduce(compiled)
        assert first == second
        stats = shard_stats()
        assert stats["engaged"] == 2

    def test_congest_identical_in_process_mode(self, small_threshold):
        compiled = stream_ring(1200)
        bandwidth = CongestModel(1200, factor=64)
        with use_engine("vectorized"):
            ref_result, ref_ledger = _reduce(compiled, bandwidth)
        with use_engine("sharded"), use_shards(2):
            result, ledger = _reduce(compiled, bandwidth)
        assert result == ref_result
        assert _ledger_state(ledger) == _ledger_state(ref_ledger)

    def test_failure_crosses_process_boundary(self, small_threshold):
        compiled, programs = _infeasible_programs(400)
        with use_engine("vectorized"):
            ref_programs = {
                i: _ColorReductionProgram(i, (i % 4 + 3) % 4, 4, 1)
                for i in range(400)
            }
            with pytest.raises(AlgorithmFailure) as ref_info:
                run_protocol(compiled, ref_programs)
        with use_engine("sharded"), use_shards(2):
            with pytest.raises(AlgorithmFailure) as info:
                run_protocol(compiled, programs)
        assert str(info.value) == str(ref_info.value)


class TestTracePhysicalFields:
    def test_shard_annotations_are_physical_only(self):
        """Shard telemetry must never leak into the logical stream."""
        from repro.obs.tracer import logical_view

        compiled = stream_ring(96)
        tracer = Tracer()
        with use_engine("sharded"), use_shards(2), use_tracer(tracer):
            _reduce(compiled)
        shard_events = [e for e in tracer.events
                        if e.get("kind") == "kernel"
                        and e.get("name") == "shard"]
        assert len(shard_events) == 2
        for event in shard_events:
            assert event["halo_bytes"] >= 0
            assert event["barrier_wait_s"] >= 0.0
        for event in logical_view(tracer.events):
            assert event.get("name") != "shard"
            for field in ("shard", "shards", "halo_bytes",
                          "barrier_wait_s"):
                assert field not in event
