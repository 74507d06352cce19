"""Tests for the trace schema, exporters, and the summarizer."""

from __future__ import annotations

import json

from repro.coloring import random_oldc_instance
from repro.core import two_sweep
from repro.graphs import gnp_graph, orient_by_id, sequential_ids
from repro.obs import (
    Tracer,
    canonical_lines,
    chrome_trace,
    collect_manifest,
    load_trace_file,
    summarize_trace,
    use_tracer,
    validate_events,
    validate_record,
    validate_trace_file,
    write_chrome,
    write_jsonl,
    write_manifest,
)
from repro.sim import CostLedger, use_engine


def _traced_two_sweep(engine="vectorized"):
    """A small real traced run: (tracer, ledger)."""
    network = gnp_graph(30, 0.15, seed=5)
    graph = orient_by_id(network)
    instance = random_oldc_instance(graph, p=2, seed=5)
    ledger = CostLedger()
    tracer = Tracer()
    with use_engine(engine), use_tracer(tracer):
        two_sweep(
            instance, sequential_ids(network), len(network), 2,
            ledger=ledger,
        )
    return tracer, ledger


class TestSchema:
    def test_real_trace_validates(self):
        tracer, _ = _traced_two_sweep()
        assert validate_events(tracer.events) == []

    def test_unknown_kind_rejected(self):
        assert validate_record({"kind": "mystery"}, 3)

    def test_manifest_only_first(self):
        manifest = collect_manifest()
        assert validate_events([manifest]) == []
        errors = validate_events([manifest, manifest])
        assert any("first record" in error for error in errors)

    def test_round_batch_requires_counts(self):
        errors = validate_record(
            {"kind": "round-batch", "name": "rounds", "parent": 1,
             "rounds": 3}, 0,
        )
        assert any("messages" in error for error in errors)

    def test_span_requires_timing(self):
        errors = validate_record(
            {"kind": "run", "name": "r", "span": 1, "parent": 0}, 0,
        )
        assert any("wall_s" in error for error in errors)

    def test_duplicate_span_ids_rejected(self):
        record = {"kind": "run", "name": "r", "span": 1, "parent": 0,
                  "t0": 0.0, "wall_s": 0.0}
        errors = validate_events([record, dict(record)])
        assert any("duplicate" in error for error in errors)

    def test_dangling_parent_rejected(self):
        errors = validate_events([
            {"kind": "run", "name": "r", "span": 1, "parent": 9,
             "t0": 0.0, "wall_s": 0.0},
        ])
        assert any("names no span" in error for error in errors)


class TestJsonl:
    def test_roundtrip_with_manifest(self, tmp_path):
        tracer, ledger = _traced_two_sweep()
        manifest = collect_manifest(ledger=ledger)
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(path, tracer.events, manifest)
        loaded_manifest, loaded_events = load_trace_file(path)
        assert loaded_manifest["kind"] == "manifest"
        assert loaded_manifest["ledger"]["rounds"] == ledger.rounds
        assert canonical_lines(loaded_events) == \
            canonical_lines(tracer.events)
        assert validate_trace_file(path) == []

    def test_file_without_manifest(self, tmp_path):
        tracer, _ = _traced_two_sweep()
        path = str(tmp_path / "bare.jsonl")
        write_jsonl(path, tracer.events)
        manifest, events = load_trace_file(path)
        assert manifest is None
        assert len(events) == len(tracer.events)

    def test_malformed_json_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "run"}\nnot json\n')
        errors = validate_trace_file(str(path))
        assert errors and ":2:" in errors[0]


class TestChrome:
    def test_spans_become_complete_slices(self):
        tracer, ledger = _traced_two_sweep()
        manifest = collect_manifest(ledger=ledger)
        payload = chrome_trace(tracer.events, manifest)
        slices = [
            entry for entry in payload["traceEvents"]
            if entry["ph"] == "X"
        ]
        assert slices, "no span slices"
        for entry in slices:
            assert entry["ts"] >= 0.0 and entry["dur"] >= 0.0
        assert payload["metadata"]["kind"] == "manifest"

    def test_point_events_become_instants(self):
        tracer, _ = _traced_two_sweep()
        payload = chrome_trace(tracer.events)
        phases = {entry["ph"] for entry in payload["traceEvents"]}
        assert "i" in phases

    def test_worker_maps_to_thread_lane(self):
        tracer = Tracer()
        with tracer.span("run", "trial"):
            pass
        tracer.events[0]["worker"] = 42
        payload = chrome_trace(tracer.events)
        assert payload["traceEvents"][0]["tid"] == 42

    def test_write_chrome_is_valid_json(self, tmp_path):
        tracer, _ = _traced_two_sweep()
        path = str(tmp_path / "trace.json")
        write_chrome(path, tracer.events, collect_manifest())
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["traceEvents"]


class TestManifestSidecar:
    def test_write_manifest_roundtrips(self, tmp_path):
        path = str(tmp_path / "x.manifest.json")
        write_manifest(path, collect_manifest(extra={"marker": True}))
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["kind"] == "manifest"
        assert loaded["marker"] is True


class TestSummary:
    def test_summarize_real_trace(self):
        tracer, ledger = _traced_two_sweep(engine="vectorized")
        manifest = collect_manifest(ledger=ledger)
        text = summarize_trace(manifest, tracer.events)
        assert "two-sweep" in text
        assert "kernel hits" in text
        assert "scheduler run(s)" in text
        config_line, = [line for line in text.splitlines()
                        if line.startswith("config: ")]
        assert f"engine={manifest['config']['engine']}" in config_line.split()

    def test_summarize_empty_trace(self):
        text = summarize_trace(None, [])
        assert text  # degrades gracefully, never raises
