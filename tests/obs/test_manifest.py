"""Tests for run-manifest collection."""

from __future__ import annotations

import json

import repro
from repro.obs import MANIFEST_VERSION, collect_manifest, validate_events
from repro.sim import CostLedger, default_engine


class TestCollectManifest:
    def test_core_fields(self):
        manifest = collect_manifest()
        assert manifest["kind"] == "manifest"
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["tool"] == "repro"
        assert manifest["version"] == repro.__version__
        assert manifest["engine"] == default_engine()
        assert manifest["python"]
        assert isinstance(manifest["pid"], int)

    def test_engine_override(self):
        assert collect_manifest(engine="reference")["engine"] == "reference"

    def test_env_capture(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "vectorized")
        monkeypatch.setenv("UNRELATED_VAR", "nope")
        env = collect_manifest()["env"]
        assert env["REPRO_SIM_ENGINE"] == "vectorized"
        assert "UNRELATED_VAR" not in env

    def test_seeds_and_argv_recorded_verbatim(self):
        manifest = collect_manifest(
            seeds={"seed": 7}, argv=["two-sweep", "--n", "40"]
        )
        assert manifest["seeds"] == {"seed": 7}
        assert manifest["argv"] == ["two-sweep", "--n", "40"]

    def test_ledger_embedded_as_dict(self):
        ledger = CostLedger()
        with ledger.phase("work"):
            ledger.charge_round(messages=2, bits=10)
        manifest = collect_manifest(ledger=ledger)
        assert manifest["ledger"]["rounds"] == 1
        assert manifest["ledger"]["phases"]["work"]["messages"] == 2

    def test_extra_wins(self):
        manifest = collect_manifest(extra={"engine": "custom", "run": 3})
        assert manifest["engine"] == "custom"
        assert manifest["run"] == 3

    def test_kernel_and_cache_counters_present(self):
        manifest = collect_manifest()
        assert "runs" in manifest["kernels"]
        assert "enabled" in manifest["caches"]
        assert isinstance(manifest["caches"]["registries"], dict)

    def test_rss_section_holds_only_own_peak(self):
        # A forked child starts with the parent's resident pages, so a
        # children figure would only repeat this process's own peak.
        rss = collect_manifest()["rss"]
        assert set(rss) == {"max_rss_kb"}
        assert rss["max_rss_kb"] > 0

    def test_counts_are_views_of_the_metrics_section(self):
        from repro.sim import kernel_stats, shard_stats
        from repro.substrates.cache import cache_counters, record_lookup

        record_lookup("manifest-test", hit=True)
        manifest = collect_manifest()
        snap = manifest["metrics"]
        assert manifest["kernels"] == kernel_stats(snap)
        assert manifest["caches"]["counters"] == cache_counters(snap)
        assert manifest["sharded"]["stats"] == shard_stats(snap)

    def test_json_serializable(self):
        json.dumps(collect_manifest())

    def test_valid_as_first_trace_record(self):
        assert validate_events([collect_manifest()]) == []
