"""The execution config: every run setting, resolved in one place.

Seven settings shape *how* a run executes, never *what* it computes.
:class:`ExecutionConfig` names them; this module is the only reader of
their environment variables and the only place that overrides them.
Each field resolves from an explicit argument, else an override
(:func:`set_config` / :func:`use_config`), else its environment
variable read at call time, else the default.  ``REPRO_SIM_CACHE`` is
the exception: the payload memo checks ``cache`` per message, so the
variable is read once at import and the resolved value kept in
:data:`caching`, a plain attribute.  The table of fields, variables
and parse rules is "Execution config" in ``docs/simulator.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from .errors import SchedulerError

#: The engines understood by :meth:`~repro.sim.scheduler.Scheduler.run`.
ENGINES = ("fast", "reference", "vectorized", "sharded")


def _cpu_count() -> int:
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ExecutionConfig:
    """One resolved set of execution settings (fields as in the table
    of ``docs/simulator.md``)."""

    engine: str = "fast"
    shards: int = 1
    chunk: int = 0
    arrays: bool = True
    cache: bool = True
    cache_dir: Optional[str] = None
    workers: int = field(default_factory=_cpu_count)


def _int(raw: Optional[str], fallback: int) -> int:
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        return fallback


def _engine(name: str, where: str = "") -> str:
    if name not in ENGINES:
        raise SchedulerError(
            f"unknown scheduler engine {name!r}{where}; "
            f"expected one of {ENGINES}"
        )
    return name


def _shards(value: Any) -> int:
    shards = int(value)
    if shards < 1:
        raise ValueError("shards must be positive")
    return shards


#: ``field -> (environment variable, parse its raw string or None,
#: check an explicit or override value)``.  Numeric variables parse
#: leniently (garbage means the default); an unknown engine is an error
#: wherever it comes from.
_FIELDS: Dict[str, tuple] = {
    "engine": ("REPRO_SIM_ENGINE",
               lambda raw: _engine("fast" if raw is None else raw,
                                   " in REPRO_SIM_ENGINE"),
               _engine),
    "shards": ("REPRO_SIM_SHARDS", lambda raw: max(1, _int(raw, 1)),
               _shards),
    "chunk": ("REPRO_SIM_CHUNK", lambda raw: max(0, _int(raw, 0)),
              lambda value: max(0, int(value))),
    "arrays": ("REPRO_SIM_ARRAYS", lambda raw: raw != "0", bool),
    "cache": ("REPRO_SIM_CACHE", lambda raw: raw != "0", bool),
    "cache_dir": ("REPRO_SIM_CACHE_DIR", lambda raw: raw or None,
                  os.fspath),
    "workers": ("REPRO_PARALLEL",
                lambda raw: max(1, _int(raw, _cpu_count())),
                lambda value: max(1, int(value))),
}

#: ``field -> environment variable``.
ENV_VARS: Dict[str, str] = {name: spec[0] for name, spec in _FIELDS.items()}

#: The overrides in force (:func:`set_config` / :func:`use_config`).
_overrides: Dict[str, Any] = {}

_cache_env: bool = _FIELDS["cache"][1](os.environ.get(ENV_VARS["cache"]))

#: The resolved ``cache`` field as a plain attribute: the payload memo
#: reads it per message and the substrate registries per lookup.
#: Derived -- change it through ``set_config(cache=...)``.
caching: bool = _cache_env

#: Memo-table clears to run when ``cache`` turns off.
_cache_clears: List[Callable[[], None]] = []


def setting(name: str, explicit: Any = None) -> Any:
    """One field: ``explicit`` when not ``None``, else the override,
    else the environment, else the default."""
    env_var, parse, check = _FIELDS[name]
    if explicit is not None:
        return check(explicit)
    if name in _overrides:
        return _overrides[name]
    if name == "cache":
        return _cache_env
    return parse(os.environ.get(env_var))


def _checked(fields: Mapping[str, Any]) -> Dict[str, Any]:
    unknown = sorted(set(fields) - set(_FIELDS))
    if unknown:
        raise TypeError(f"unknown execution config field(s): {unknown}")
    return {name: None if value is None else _FIELDS[name][2](value)
            for name, value in fields.items()}


def current(**explicit: Any) -> ExecutionConfig:
    """The config in force, with the non-``None`` ``explicit`` fields
    winning.  Raises :class:`~repro.sim.errors.SchedulerError` for an
    unknown engine, from any layer."""
    explicit = _checked(explicit)
    return ExecutionConfig(**{name: setting(name, explicit.get(name))
                              for name in _FIELDS})


def from_env(environ: Optional[Mapping[str, str]] = None
             ) -> ExecutionConfig:
    """The config an environment alone selects (``os.environ`` when
    ``environ`` is ``None``), ignoring overrides."""
    environ = os.environ if environ is None else environ
    return ExecutionConfig(**{name: spec[1](environ.get(spec[0]))
                              for name, spec in _FIELDS.items()})


def _install(overrides: Dict[str, Any]) -> None:
    global _overrides, caching
    _overrides = overrides
    was_caching = caching
    caching = overrides.get("cache", _cache_env)
    if was_caching and not caching:
        for clear in _cache_clears:
            clear()


def set_config(**fields: Any) -> None:
    """Override fields process-wide; a ``None`` value drops that field's
    override (back to the environment).  Every value is checked before
    any is applied."""
    staged = dict(_overrides)
    for name, value in _checked(fields).items():
        if value is None:
            staged.pop(name, None)
        else:
            staged[name] = value
    _install(staged)


@contextmanager
def use_config(**fields: Any) -> Iterator[None]:
    """:func:`set_config` for the ``with`` block; on exit the previous
    overrides are restored exactly."""
    saved = _overrides
    set_config(**fields)
    try:
        yield
    finally:
        _install(saved)


def on_cache_disabled(clear: Callable[[], None]) -> None:
    """Register a memo-table ``clear`` to run when ``cache`` turns off,
    so a disabled cache holds nothing."""
    _cache_clears.append(clear)
