"""Run manifests: the provenance record written next to every trace.

A benchmark JSON or trace file without provenance answers *what* the
numbers were but not *under which conditions* -- engine, seeds,
``REPRO_SIM_*`` environment, cache and kernel counters, package and git
versions.  :func:`collect_manifest` gathers all of that into one
JSON-serializable dict (``kind: "manifest"``), written as the first line
of a JSONL trace, the ``metadata`` of a Chrome trace, or a
``*.manifest.json`` sidecar next to a ``BENCH_*.json``.

Everything here is best-effort and dependency-free: a missing git
binary, a non-repo working directory, or an import failure degrades to
``None`` fields, never to an exception -- provenance collection must not
be able to break the run it documents.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Mapping, Optional

from .metrics import snapshot as metrics_snapshot

#: Environment prefixes captured into the manifest (the knobs that can
#: change what a run measures).
ENV_PREFIXES = ("REPRO_SIM_", "REPRO_PARALLEL")

#: Bumped when the manifest's key conventions change shape.
MANIFEST_VERSION = 1


def _git_state() -> Optional[Dict[str, Any]]:
    """``{"commit", "dirty"}`` for the current directory, or ``None``."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5,
        )
        return {
            "commit": commit.stdout.strip(),
            "dirty": bool(status.returncode == 0 and status.stdout.strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return None


def _captured_env() -> Dict[str, str]:
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith(ENV_PREFIXES)
    }


def _kernel_counters(snap: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    try:
        from ..sim.kernels import kernel_stats

        return kernel_stats(snap)
    except ImportError:  # pragma: no cover - sim always ships
        return None


def _arrays_state() -> Optional[Dict[str, Any]]:
    """Kernel array-backend provenance: enabled + NumPy version.

    ``{"enabled": False, "numpy": None}`` means the pure-Python columns
    ran (NumPy missing or ``REPRO_SIM_ARRAYS=0``); the ``kernels``
    section's ``by_backend`` counters say which kernels actually took
    the array path.
    """
    try:
        from ..sim import arrays

        return {
            "enabled": arrays.arrays_enabled(),
            "numpy": arrays.numpy_version(),
        }
    except ImportError:  # pragma: no cover - sim always ships
        return None


def _sharded_state(snap: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Sharded-engine provenance: shard count plus run/halo counters.

    ``shards`` is the resolved default shard count (override, then
    ``REPRO_SIM_SHARDS``, then 1); ``stats`` is the cumulative
    :func:`repro.sim.sharded.shard_stats` snapshot, whose ``last_run``
    entry carries the per-shard halo-bytes and barrier-wait columns for
    the most recent engaged run.
    """
    try:
        from ..sim import sharded

        return {
            "shards": sharded.default_shards(),
            "stats": sharded.shard_stats(snap),
        }
    except ImportError:  # pragma: no cover - sim always ships
        return None


def peak_rss_kb() -> Optional[int]:
    """This process's peak resident set size in KiB, or ``None`` where
    unmeasurable.

    ``resource.getrusage`` reports ``ru_maxrss`` in kilobytes on Linux
    and in bytes on macOS; this normalizes to KiB.  A *physical*
    quantity: it varies run to run and never participates in
    logical-stream comparisons.  There is deliberately no children
    variant: a forked child starts with its parent's resident pages, so
    ``RUSAGE_CHILDREN`` reports the parent's own peak, not the
    children's; pool workers report their own figure instead.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    try:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (OSError, ValueError):  # pragma: no cover - defensive
        return None
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak //= 1024
    return int(peak)


def _rss_state() -> Optional[Dict[str, Any]]:
    """Peak RSS of this process, in KiB."""
    own = peak_rss_kb()
    if own is None:
        return None
    return {"max_rss_kb": own}


def _cache_state(snap: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    try:
        from ..substrates import cache as substrate_cache

        return {
            "enabled": substrate_cache.cache_enabled(),
            "registries": substrate_cache.registry_sizes(),
            "counters": substrate_cache.cache_counters(snap),
            "disk": substrate_cache.disk_state(),
        }
    except ImportError:  # pragma: no cover - substrates always ship
        return None


def collect_manifest(engine: Optional[str] = None,
                     seeds: Optional[Mapping[str, Any]] = None,
                     ledger: Optional[Any] = None,
                     argv: Optional[Any] = None,
                     extra: Optional[Mapping[str, Any]] = None
                     ) -> Dict[str, Any]:
    """Gather the provenance of the current process into one dict.

    ``engine`` defaults to the scheduler's resolved default;  ``seeds``
    is whatever parameter mapping the caller wants recorded verbatim;
    ``ledger`` (a :class:`~repro.sim.metrics.CostLedger`) contributes its
    :meth:`~repro.sim.metrics.CostLedger.to_dict` as the run's logical
    cost record; ``extra`` keys are merged last and win.

    One metrics-registry snapshot backs every count in the manifest:
    the ``metrics`` section itself (``None`` when nothing instrumented
    ran) and the ``kernels`` / ``sharded`` / ``caches`` views of it.
    """
    if engine is None:
        try:
            from ..sim.scheduler import default_engine

            engine = default_engine()
        except ImportError:  # pragma: no cover - sim always ships
            engine = None
    try:
        from .. import __version__ as version
    except ImportError:  # pragma: no cover - package always importable
        version = None
    snap = metrics_snapshot()
    manifest: Dict[str, Any] = {
        "kind": "manifest",
        "manifest_version": MANIFEST_VERSION,
        "tool": "repro",
        "version": version,
        "created_unix_s": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "argv": list(argv) if argv is not None else list(sys.argv),
        "engine": engine,
        "seeds": dict(seeds) if seeds is not None else None,
        "env": _captured_env(),
        "git": _git_state(),
        "kernels": _kernel_counters(snap),
        "arrays": _arrays_state(),
        "sharded": _sharded_state(snap),
        "caches": _cache_state(snap),
        "rss": _rss_state(),
        "metrics": snap or None,
        "ledger": ledger.to_dict() if ledger is not None else None,
    }
    if extra:
        manifest.update(extra)
    return manifest
