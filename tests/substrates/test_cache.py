"""Tests for the process-level substrate caches."""

from __future__ import annotations

import pytest

from repro.obs.metrics import reset_metrics
from repro.substrates import (
    PolynomialFamily,
    cache_enabled,
    clear_substrate_cache,
    defective_schedule,
    is_prime,
    next_prime,
    proper_schedule,
    set_cache_enabled,
    shared_family,
)
from repro.substrates import cache
from repro.substrates.cache import (
    CACHE_DIR_ENV,
    CACHE_FILE_VERSION,
    cache_file_path,
    load_from_disk,
    registry,
    restore,
    save_to_disk,
    snapshot,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_substrate_cache()
    yield
    set_cache_enabled(True)
    clear_substrate_cache()


class TestPrimeMemo:
    def test_memoized_matches_raw(self):
        values = list(range(0, 60)) + [97, 98, 121, 7919]
        warm = [is_prime(v) for v in values]
        set_cache_enabled(False)
        raw = [is_prime(v) for v in values]
        assert warm == raw

    def test_next_prime_memoized_matches_raw(self):
        values = [0, 1, 2, 3, 14, 24, 90, 7907]
        warm = [next_prime(v) for v in values]
        again = [next_prime(v) for v in values]
        set_cache_enabled(False)
        raw = [next_prime(v) for v in values]
        assert warm == again == raw


class TestSharedFamily:
    def test_same_parameters_share_one_instance(self):
        assert shared_family(100, 11, 2) is shared_family(100, 11, 2)

    def test_distinct_parameters_get_distinct_instances(self):
        assert shared_family(100, 11, 2) is not shared_family(99, 11, 2)

    def test_disabled_cache_returns_fresh_instances(self):
        set_cache_enabled(False)
        assert shared_family(100, 11, 2) is not shared_family(100, 11, 2)

    def test_shared_instance_evaluates_like_a_fresh_one(self):
        shared = shared_family(50, 7, 2)
        fresh = PolynomialFamily(50, 7, 2)
        for index in range(50):
            assert shared.coefficients(index) == fresh.coefficients(index)
            for x in range(7):
                assert shared.evaluate(index, x) == fresh.evaluate(index, x)

    def test_evaluation_memo_handles_out_of_field_points(self):
        family = PolynomialFamily(50, 7, 2)
        # x and x + m evaluate identically over F_m; the memo key must
        # not collide them with other polynomial indices.
        assert family.evaluate(1, 9) == family.evaluate(1, 2)
        assert family.evaluate(2, 0) == PolynomialFamily(50, 7, 2).evaluate(2, 0)

    def test_step_family_is_shared_when_enabled(self):
        schedule = proper_schedule(2047, 3)
        assert schedule
        assert schedule[0].family() is schedule[0].family()


class TestScheduleMemo:
    def test_proper_schedule_memo_returns_equal_fresh_lists(self):
        first = proper_schedule(2047, 3)
        second = proper_schedule(2047, 3)
        assert first == second
        assert first is not second
        second.append("sentinel")
        assert proper_schedule(2047, 3) == first

    def test_defective_schedule_memo_matches_raw(self):
        warm = defective_schedule(5000, 0.25)
        again = defective_schedule(5000, 0.25)
        set_cache_enabled(False)
        raw = defective_schedule(5000, 0.25)
        assert warm == again == raw

    def test_invalid_alpha_rejected_before_memo(self):
        with pytest.raises(ValueError):
            defective_schedule(100, 0.0)
        with pytest.raises(ValueError):
            defective_schedule(100, 1.5)


class TestSnapshotRestore:
    def test_snapshot_roundtrip_restores_shared_objects(self):
        schedule = proper_schedule(2047, 3)
        family = schedule[0].family()
        family.evaluate(5, 2)
        state = snapshot()
        assert "proper_schedule" in state and "families" in state
        clear_substrate_cache()
        assert schedule[0].family() is not family
        restore(state)
        assert schedule[0].family() is family

    def test_snapshot_is_picklable(self):
        import pickle

        proper_schedule(2047, 3)[0].family().evaluate(3, 1)
        state = pickle.loads(pickle.dumps(snapshot()))
        clear_substrate_cache()
        restore(state)
        assert proper_schedule(2047, 3)

    def test_restore_none_or_empty_is_noop(self):
        restore(None)
        restore({})

    def test_restore_while_disabled_is_noop(self):
        proper_schedule(2047, 3)
        state = snapshot()
        set_cache_enabled(False)
        restore(state)
        assert not registry("proper_schedule")

    def test_set_cache_enabled_reports_previous_state(self):
        assert cache_enabled()
        assert set_cache_enabled(False) is True
        assert not cache_enabled()
        assert set_cache_enabled(True) is False


class TestDiskSpill:
    def test_path_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert cache_file_path() is None
        assert cache_file_path("/explicit/file.pkl") == "/explicit/file.pkl"
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        resolved = cache_file_path()
        assert resolved == str(tmp_path / "substrate_cache.pkl")

    def test_save_and_load_roundtrip(self, tmp_path):
        target = str(tmp_path / "spill" / "substrate_cache.pkl")
        schedule = proper_schedule(2047, 3)
        assert save_to_disk(target) == target
        clear_substrate_cache()
        assert not registry("proper_schedule")
        assert load_from_disk(target)
        assert proper_schedule(2047, 3) == schedule
        assert registry("proper_schedule")

    def test_roundtrip_via_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        proper_schedule(2047, 3)
        written = save_to_disk()
        assert written == str(tmp_path / "substrate_cache.pkl")
        clear_substrate_cache()
        assert load_from_disk()

    def test_save_without_configuration_is_noop(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        proper_schedule(2047, 3)
        assert save_to_disk() is None

    def test_save_empty_registries_writes_nothing(self, tmp_path):
        target = str(tmp_path / "substrate_cache.pkl")
        assert save_to_disk(target) is None
        assert not (tmp_path / "substrate_cache.pkl").exists()

    def test_save_unwritable_destination_degrades(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        proper_schedule(2047, 3)
        assert save_to_disk(str(blocker / "substrate_cache.pkl")) is None

    def test_load_missing_file_is_cold_start(self, tmp_path):
        assert not load_from_disk(str(tmp_path / "absent.pkl"))

    def test_load_corrupt_file_is_cold_start(self, tmp_path):
        target = tmp_path / "substrate_cache.pkl"
        target.write_bytes(b"definitely not a pickle")
        assert not load_from_disk(str(target))
        assert not registry("proper_schedule")

    def test_load_truncated_file_is_cold_start(self, tmp_path):
        source = str(tmp_path / "substrate_cache.pkl")
        proper_schedule(2047, 3)
        assert save_to_disk(source)
        data = (tmp_path / "substrate_cache.pkl").read_bytes()
        (tmp_path / "substrate_cache.pkl").write_bytes(data[: len(data) // 2])
        clear_substrate_cache()
        assert not load_from_disk(source)

    def test_load_wrong_version_is_cold_start(self, tmp_path):
        import pickle

        target = tmp_path / "substrate_cache.pkl"
        payload = {
            "version": CACHE_FILE_VERSION + 1,
            "registries": {"proper_schedule": {(2047, 3): []}},
        }
        target.write_bytes(pickle.dumps(payload))
        assert not load_from_disk(str(target))
        assert not registry("proper_schedule")

    def test_load_wrong_shape_is_cold_start(self, tmp_path):
        import pickle

        target = tmp_path / "substrate_cache.pkl"
        for payload in (
            ["not", "a", "dict"],
            {"version": CACHE_FILE_VERSION},  # registries missing
            {"version": CACHE_FILE_VERSION, "registries": "nope"},
            {"version": CACHE_FILE_VERSION, "registries": {1: {}}},
            {"version": CACHE_FILE_VERSION,
             "registries": {"families": "nope"}},
            {"version": CACHE_FILE_VERSION, "registries": {}},
        ):
            target.write_bytes(pickle.dumps(payload))
            assert not load_from_disk(str(target))

    def test_disk_spill_disabled_with_cache(self, tmp_path):
        source = str(tmp_path / "substrate_cache.pkl")
        proper_schedule(2047, 3)
        assert save_to_disk(source)
        set_cache_enabled(False)
        assert not load_from_disk(source)
        assert save_to_disk(source) is None


class TestCounters:
    def setup_method(self):
        reset_metrics()

    def teardown_method(self):
        reset_metrics()

    def test_record_lookup_counts_hits_and_misses(self):
        cache.record_lookup("widgets", False)
        cache.record_lookup("widgets", True)
        cache.record_lookup("widgets", True)
        assert cache.cache_counters() == {
            "widgets": {"hits": 2, "misses": 1}
        }

    def test_counters_are_copies(self):
        cache.record_lookup("widgets", True)
        counters = cache.cache_counters()
        counters["widgets"]["hits"] = 99
        assert cache.cache_counters()["widgets"]["hits"] == 1

    def test_shared_family_counts(self):
        from repro.substrates.cover_free import shared_family

        cache.clear_substrate_cache()
        reset_metrics()
        shared_family(9, 3, 1)
        shared_family(9, 3, 1)
        counters = cache.cache_counters()["families"]
        assert counters == {"hits": 1, "misses": 1}

    def test_disabled_cache_counts_all_misses(self):
        from repro.substrates.cover_free import shared_family

        previous = cache.set_cache_enabled(False)
        try:
            reset_metrics()
            shared_family(9, 3, 1)
            shared_family(9, 3, 1)
            assert cache.cache_counters()["families"] == {
                "hits": 0, "misses": 2
            }
        finally:
            cache.set_cache_enabled(previous)

    def test_interned_network_counts(self):
        from repro.graphs.generators import star_graph

        cache.clear_substrate_cache()
        reset_metrics()
        star_graph(23)
        star_graph(23)
        counters = cache.cache_counters()["networks"]
        assert counters["misses"] == 1 and counters["hits"] == 1

    def test_manifest_carries_counters_and_disk_state(self):
        from repro.obs import collect_manifest

        cache.record_lookup("widgets", True)
        caches = collect_manifest()["caches"]
        assert caches["counters"]["widgets"]["hits"] >= 1
        assert set(caches["disk"]) == {"path", "loaded", "saved"}


class TestDiskState:
    def test_load_marks_state(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        cache.registry("disk_state_probe")["k"] = "v"
        try:
            assert cache.save_to_disk() is not None
            assert cache.disk_state()["saved"] is True
            assert cache.load_from_disk() is True
            state = cache.disk_state()
            assert state["loaded"] is True
            assert state["path"].endswith("substrate_cache.pkl")
        finally:
            cache.registry("disk_state_probe").clear()
