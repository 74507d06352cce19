"""The execution config: precedence, environment parsing, overrides."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cli import main
from repro.sim import SchedulerError, config, message
from repro.sim.config import (
    ENV_VARS,
    ExecutionConfig,
    current,
    from_env,
    set_config,
    setting,
    use_config,
)
from repro.sim.parallel import WorkerPool

#: ``(field, env string, its parsed value, override, explicit)`` -- three
#: distinct non-default values per field, so each layer is visible.
LAYERS = [
    ("engine", "reference", "reference", "vectorized", "sharded"),
    ("shards", "3", 3, 5, 7),
    ("chunk", "11", 11, 13, 17),
    ("arrays", "0", False, True, False),
    ("cache_dir", "/tmp/env-dir", "/tmp/env-dir", "/tmp/override-dir",
     "/tmp/explicit-dir"),
    ("workers", "3", 3, 4, 5),
]


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    for variable in ENV_VARS.values():
        monkeypatch.delenv(variable, raising=False)
    with use_config():
        yield


def _resolved(name, explicit=None):
    """The field through both resolvers, which must agree."""
    value = setting(name, explicit)
    assert getattr(current(**{name: explicit}), name) == value
    return value


class TestPrecedence:
    @pytest.mark.parametrize("name,raw,parsed,override,explicit", LAYERS)
    def test_argument_override_env_default(self, monkeypatch, name, raw,
                                           parsed, override, explicit):
        assert _resolved(name) == getattr(ExecutionConfig(), name)
        monkeypatch.setenv(ENV_VARS[name], raw)
        assert _resolved(name) == parsed
        with use_config(**{name: override}):
            assert _resolved(name) == override
            assert _resolved(name, explicit) == explicit
        assert _resolved(name) == parsed

    def test_cache_env_is_read_at_import(self, monkeypatch):
        # The payload memo checks ``cache`` per message, so its variable
        # is read once at import; the other layers work as for any field.
        before = _resolved("cache")
        monkeypatch.setenv("REPRO_SIM_CACHE", "0" if before else "1")
        assert _resolved("cache") == before
        assert from_env().cache is (not before)
        with use_config(cache=not before):
            assert _resolved("cache") is (not before)
            assert config.caching is (not before)
            assert _resolved("cache", before) is before
        assert config.caching is before

    def test_every_field_is_covered(self):
        covered = {layer[0] for layer in LAYERS} | {"cache"}
        assert covered == set(ENV_VARS) == set(vars(ExecutionConfig()))


class TestFromEnv:
    def test_empty_environment_is_the_default(self):
        assert from_env({}) == ExecutionConfig()

    def test_variables_map_to_fields(self):
        environ = {
            "REPRO_SIM_ENGINE": "vectorized", "REPRO_SIM_SHARDS": "2",
            "REPRO_SIM_CHUNK": "64", "REPRO_SIM_ARRAYS": "0",
            "REPRO_SIM_CACHE": "0", "REPRO_SIM_CACHE_DIR": "/tmp/spill",
            "REPRO_PARALLEL": "0",
        }
        assert from_env(environ) == ExecutionConfig(
            engine="vectorized", shards=2, chunk=64, arrays=False,
            cache=False, cache_dir="/tmp/spill", workers=1,
        )

    @pytest.mark.parametrize("variable,raw,name,expected", [
        ("REPRO_SIM_SHARDS", "junk", "shards", 1),
        ("REPRO_SIM_SHARDS", "-4", "shards", 1),
        ("REPRO_SIM_CHUNK", "abc", "chunk", 0),
        ("REPRO_SIM_CHUNK", "-3", "chunk", 0),
        ("REPRO_SIM_CACHE_DIR", "", "cache_dir", None),
        ("REPRO_PARALLEL", "lots", "workers",
         ExecutionConfig().workers),
    ])
    def test_numeric_knobs_parse_leniently(self, variable, raw, name,
                                           expected):
        assert getattr(from_env({variable: raw}), name) == expected

    def test_unknown_engine_names_the_variable(self):
        with pytest.raises(SchedulerError, match="REPRO_SIM_ENGINE"):
            from_env({"REPRO_SIM_ENGINE": "junk"})

    def test_unknown_engine_fails_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "junk")
        with pytest.raises(SchedulerError, match="REPRO_SIM_ENGINE"):
            current()
        # An engine named by a higher layer never reads the variable.
        assert current(engine="fast").engine == "fast"

    def test_worker_pool_rejects_unknown_engine_before_spawning(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "junk")
        children = len(multiprocessing.active_children())
        with pytest.raises(SchedulerError, match="REPRO_SIM_ENGINE"):
            WorkerPool()
        assert len(multiprocessing.active_children()) == children


class TestOverrides:
    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="colour"):
            set_config(colour="blue")
        with pytest.raises(TypeError):
            current(colour="blue")

    def test_set_config_checks_every_value_first(self):
        with pytest.raises(SchedulerError):
            set_config(shards=4, engine="warp")
        assert setting("shards") == 1
        with pytest.raises(ValueError, match="positive"):
            set_config(engine="vectorized", shards=0)
        assert setting("engine") == "fast"

    def test_none_drops_an_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CHUNK", "9")
        set_config(chunk=5)
        assert setting("chunk") == 5
        set_config(chunk=None)
        assert setting("chunk") == 9

    def test_use_config_restores_exactly(self):
        set_config(shards=2)
        with use_config(shards=6, engine="reference"):
            with use_config(shards=None):
                assert setting("shards") == 1
                assert setting("engine") == "reference"
            assert setting("shards") == 6
        assert (setting("shards"), setting("engine")) == (2, "fast")

    def test_disabling_cache_empties_the_payload_memo(self):
        message.payload_bits((1, 2, 3))
        assert message._payload_bits_memo
        with use_config(cache=False):
            assert not message._payload_bits_memo
            message.payload_bits((1, 2, 3))
            assert not message._payload_bits_memo


class TestCliConfig:
    def test_unknown_engine_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "junk")
        with pytest.raises(SystemExit) as info:
            main(["two-sweep", "--n", "16", "--p", "2", "--seed", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "REPRO_SIM_ENGINE" in captured.err
        assert captured.out == ""

    def test_engine_flag_beats_a_bad_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "junk")
        assert main(["--engine", "fast", "two-sweep", "--n", "16", "--p",
                     "2", "--seed", "1"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_flags_are_one_override(self):
        assert main(["--shards", "3", "info"]) == 0
        assert (setting("engine"), setting("shards")) == ("sharded", 3)
