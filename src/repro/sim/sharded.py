"""Sharded single-graph execution: one run, many workers, halo exchange.

Every other engine executes one graph on one core.  This module
partitions a compiled CSR topology into contiguous node shards
(:mod:`repro.graphs.partition`), publishes the topology once through
:mod:`repro.sim.shm`, and runs each shard's kernel columns in a
persistent pool of shard-pinned worker processes.  Workers synchronize
once per round by exchanging only *halo* state -- the new colors of
boundary nodes owned by other shards -- through a shared int64 state
segment with a double-buffered read/write epoch: round ``r`` writes its
boundary updates into the ``r % 2`` staging buffers and reads the
``(r - 1) % 2`` buffers, so every worker sees exactly the previous
round's view (the serial engines' stale-view semantics) with no locks
and no torn reads.

The observational contract is the same byte-identity the vectorized
engine honors: colors, ledgers, CONGEST exception order, and canonical
logical trace streams match serial execution exactly.  That works
because the supported populations are *bucketed reductions*: each
round's deciders are determined by their initial color, deciders read
only stale neighbor state, and shard ranges are contiguous in dense-id
order -- so per-shard results merged in shard index order reproduce the
serial engine's global ascending-node order, and the first failure in
the lowest failing shard is the globally first failure.

Engagement is transparent, like the vectorized engine's fallback chain:
populations the sharded registry does not cover (or shard count <= 1)
fall through to ``Scheduler._run_vectorized`` and its own fallback
chain.  Eligible populations always execute shard-wise; they use the
process pool only when the topology is CSR-direct, the graph is large
enough (:data:`MIN_SHARD_NODES`), shared memory works here, and we are
not already inside a pool worker -- otherwise the shards run serially
in-process over the same code path, byte-identically.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..graphs.partition import Partition, partition_by_edges
from ..obs import metrics as obs_metrics
from . import arrays, shm
from . import config as _config
from .congest import LocalModel
from .errors import AlgorithmFailure, RoundLimitExceeded
from .message import intern_broadcast

__all__ = [
    "MIN_SHARD_NODES",
    "ShardSpec",
    "default_shards",
    "register_sharded",
    "shard_stats",
    "sharded_for",
]

#: Below this node count, eligible runs keep the shard execution model
#: but skip the process pool: per-round task dispatch would dominate the
#: per-shard compute.  Module constant so tests can monkeypatch it.
MIN_SHARD_NODES = 65_536

_ITEMSIZE = 8  # native int64 cells throughout the state segment

#: True inside a pool worker (set by the pool initializer): nested runs
#: execute their shards serially instead of spawning nested pools.
_in_worker = False


def default_shards() -> int:
    """The shard count used by ``engine="sharded"`` (the ``shards``
    field of :mod:`repro.sim.config`, default 1 -- which makes the
    sharded engine a transparent alias for the vectorized one until
    somebody actually asks for shards)."""
    return _config.setting("shards")


def _mark_worker() -> None:
    """Called by the pool initializer: this process is a pool worker."""
    global _in_worker
    _in_worker = True


# ----------------------------------------------------------------------
# Registry: program class -> shard-spec builder
# ----------------------------------------------------------------------
class ShardSpec:
    """A shardable bucketed-reduction population, flattened to columns.

    ``colors`` is the initial per-node int column; round ``t >= 2``
    retires color ``q - t + 1`` (deciders recolor to the mex of their
    stale neighborhood, must land below ``target``), and the run
    terminates after ``q - target + 2`` rounds.  ``finalize(colors,
    programs)`` writes the final column back into the programs --
    parent-side only, never pickled.
    """

    __slots__ = ("colors", "q", "target", "bits", "tag", "finalize",
                 "name")

    def __init__(self, colors: List[int], q: int, target: int, bits: int,
                 tag: str, finalize: Callable[[List[int], list], None],
                 name: str):
        self.colors = colors
        self.q = q
        self.target = target
        self.bits = bits
        self.tag = tag
        self.finalize = finalize
        self.name = name

    @property
    def total_rounds(self) -> int:
        # 1 broadcast + (q - target) decider rounds + 1 terminal no-op.
        return self.q - self.target + 2


#: Exact program class -> builder(compiled, programs, bandwidth) ->
#: Optional[ShardSpec].  Separate from the vectorized kernel registry:
#: a kernelized program class is not automatically safe to shard.
_registry: Dict[type, Callable[..., Optional[ShardSpec]]] = {}


def register_sharded(program_class: type,
                     builder: Callable[..., Optional[ShardSpec]]) -> None:
    """Register a shard-spec builder for ``program_class``."""
    _registry[program_class] = builder


def sharded_for(program_class: type
                ) -> Optional[Callable[..., Optional[ShardSpec]]]:
    """The registered builder for exactly ``program_class``, if any."""
    return _registry.get(program_class)


# ----------------------------------------------------------------------
# Process-level statistics
# ----------------------------------------------------------------------
#: The most recent engaged run's record (``shard_stats()["last_run"]``):
#: a per-run description, not a tally, so it lives outside the registry.
_last_run: Optional[Dict[str, Any]] = None


def shard_stats(snap: Optional[Mapping[str, Any]] = None
                ) -> Dict[str, Any]:
    """This process's sharded-engine counts, read from the registry.

    ``runs = engaged + fallbacks``; ``by_reason`` counts fallbacks,
    ``by_shards`` / ``by_mode`` count engaged runs, and ``halo_bytes`` /
    ``barrier_wait_s`` accumulate over them.  ``snap`` reads a registry
    snapshot or delta instead of the live registry.  ``last_run``
    describes the most recent engaged run in this process (``None``
    before the first) and is not cleared by
    :func:`repro.obs.metrics.reset_metrics`.
    """
    if snap is None:
        snap = obs_metrics.snapshot()
    values = obs_metrics.sample_values
    by_shards: Dict[int, int] = {}
    by_mode: Dict[str, int] = {}
    for (mode, shards), count in values(
            snap, "repro_shard_runs_total").items():
        by_shards[int(shards)] = by_shards.get(int(shards), 0) + int(count)
        by_mode[mode] = by_mode.get(mode, 0) + int(count)
    by_reason = {
        reason: int(count) for (reason,), count in values(
            snap, "repro_shard_fallbacks_total").items()
    }
    engaged = sum(by_mode.values())
    fallbacks = sum(by_reason.values())
    return {
        "runs": engaged + fallbacks,
        "engaged": engaged,
        "fallbacks": fallbacks,
        "by_reason": by_reason,
        "by_shards": by_shards,
        "by_mode": by_mode,
        "halo_bytes": int(values(
            snap, "repro_shard_halo_bytes_total").get((), 0)),
        "barrier_wait_s": values(
            snap, "repro_shard_barrier_wait_seconds_total").get((), 0.0),
        "last_run": dict(_last_run) if _last_run is not None else None,
    }


def _record_shard_fallback(reason: str) -> None:
    obs_metrics.counter(
        "repro_shard_fallbacks_total",
        "Sharded-engine fallbacks by reason", ("reason",),
    ).labels(reason=reason).inc()


# ----------------------------------------------------------------------
# State-segment layout (computed identically in parent and workers)
# ----------------------------------------------------------------------
def _layout(n: int, bounds: Tuple[int, ...]) -> Dict[str, Any]:
    """Cell offsets of the shared int64 state segment.

    ``[init colors | final colors | staging x2]`` where each staging
    epoch holds, per shard, ``[count | (node, color) * capacity]`` with
    capacity = shard size (boundary updates can never exceed it; the
    slack buys a layout independent of the cut structure, so workers
    need no global pre-scan).
    """
    shards = len(bounds) - 1
    stage_off = [0]
    for s in range(shards):
        stage_off.append(stage_off[-1] + 1 + 2 * (bounds[s + 1] - bounds[s]))
    epoch_cells = stage_off[-1]
    return {
        "init": 0,
        "final": n,
        "stage_base": 2 * n,
        "stage_off": stage_off,
        "epoch_cells": epoch_cells,
        "cells": 2 * n + 2 * epoch_cells,
    }


def _stage_cell(layout: Dict[str, Any], epoch: int, shard: int) -> int:
    return (layout["stage_base"] + epoch * layout["epoch_cells"]
            + layout["stage_off"][shard])


def _read_cells(buf, cell: int, count: int) -> list:
    """Copy ``count`` int64 cells out of a shared buffer (no exports
    left behind, so the segment can still be closed)."""
    view = memoryview(buf)[_ITEMSIZE * cell:_ITEMSIZE * (cell + count)]
    cast = view.cast("q")
    out = cast.tolist()
    cast.release()
    view.release()
    return out


def _write_bytes(buf, cell: int, raw: bytes) -> None:
    start = _ITEMSIZE * cell
    buf[start:start + len(raw)] = raw


def _int64_bytes(values) -> bytes:
    from array import array

    return bytes(memoryview(array("q", values)))


# ----------------------------------------------------------------------
# Shard-local compute (shared by the serial and process modes)
# ----------------------------------------------------------------------
class _ShardState:
    """One shard's working state: colors view, buckets, boundary/halo.

    ``colors`` is the full-length column (list in the pure-Python
    backend, int64 ndarray in the NumPy backend); only cells in
    ``[lo, hi)`` and the halo are kept current.  ``order`` labels nodes
    in exception messages and CONGEST envelopes; ``None`` means dense
    ids are the labels (CSR-direct topologies).
    """

    __slots__ = ("shard", "lo", "hi", "colors", "np", "by_color",
                 "sorted_ids", "sorted_colors", "boundary_mask",
                 "halo_mask", "boundary", "halo", "indptr", "indices",
                 "degrees", "order", "check_fanout")

    def __init__(self, shard, lo, hi):
        self.shard = shard
        self.lo = lo
        self.hi = hi
        self.np = None
        self.by_color = None
        self.sorted_ids = None
        self.sorted_colors = None
        self.boundary_mask = None
        self.halo_mask = None
        self.boundary = None
        self.halo = None
        self.order = None
        self.check_fanout = None


def _build_state(shard: int, lo: int, hi: int, compiled, colors,
                 bandwidth, want_numpy: bool, want_halo: bool
                 ) -> _ShardState:
    """Set up one shard's buckets and (optionally) boundary/halo sets.

    ``colors`` is the *initial* column; buckets are keyed on it, which
    stays correct for the whole run because recolored nodes land below
    ``target`` and every later active color is ``>= target``.
    """
    state = _ShardState(shard, lo, hi)
    state.indptr = compiled.indptr
    state.indices = compiled.indices
    state.degrees = compiled.degrees
    state.check_fanout = (None if type(bandwidth) is LocalModel
                          else bandwidth.check_fanout)
    np = arrays.get_numpy() if want_numpy else None
    views = compiled.numpy_views() if np is not None else None
    if views is not None:
        state.np = np
        state.indptr, state.indices, state.degrees = views
        state.colors = colors  # int64 ndarray, shared across shards
        local = colors[lo:hi]
        sorter = np.argsort(local, kind="stable")
        state.sorted_ids = sorter.astype(np.int64) + lo
        state.sorted_colors = local[sorter]
    else:
        state.colors = colors  # plain list, shared across shards
        by_color: Dict[int, list] = {}
        for i in range(lo, hi):
            by_color.setdefault(colors[i], []).append(i)
        state.by_color = by_color
    if want_halo:
        _build_halo(state)
    return state


def _build_halo(state: _ShardState) -> None:
    """Boundary/halo sets for the staging protocol (process mode)."""
    lo, hi = state.lo, state.hi
    np = state.np
    if np is not None:
        n = len(state.degrees)
        span = state.indices[state.indptr[lo]:state.indptr[hi]]
        external = (span < lo) | (span >= hi)
        halo = np.unique(span[external])
        halo_mask = np.zeros(n, dtype=bool)
        halo_mask[halo] = True
        # Per-node "any external neighbor": reduce the external flags
        # over each row of the span (guard empty shards/rows).
        boundary_mask = np.zeros(n, dtype=bool)
        if hi > lo and len(span):
            starts = (state.indptr[lo:hi] - state.indptr[lo])
            row_ext = np.zeros(hi - lo, dtype=bool)
            lengths = np.diff(
                np.append(starts, len(span))
            )
            nonempty = lengths > 0
            if nonempty.any():
                reduced = np.bitwise_or.reduceat(
                    external, starts[nonempty]
                )
                row_ext[nonempty] = reduced
            boundary_mask[lo:hi] = row_ext
        state.boundary_mask = boundary_mask
        state.halo_mask = halo_mask
    else:
        indptr, indices = state.indptr, state.indices
        boundary = set()
        halo = set()
        for i in range(lo, hi):
            for k in range(indptr[i], indptr[i + 1]):
                j = indices[k]
                if j < lo or j >= hi:
                    boundary.add(i)
                    halo.add(j)
        state.boundary = boundary
        state.halo = halo


def _round_broadcast(state: _ShardState, colors, bits: int, tag: str
                     ) -> Tuple[int, int]:
    """Round 1 over one shard: ``(copies, envelopes)`` plus CONGEST
    checks in ascending node order -- the exact serial prefix."""
    degrees = state.degrees
    lo, hi = state.lo, state.hi
    check_fanout = state.check_fanout
    copies = 0
    envelopes = 0
    if state.np is not None and check_fanout is None:
        local = degrees[lo:hi]
        copies = int(local.sum())
        envelopes = int((local > 0).sum())
        return copies, envelopes
    order = state.order
    for i in range(lo, hi):
        degree = degrees[i]
        if degree:
            if check_fanout is not None:
                label = order[i] if order is not None else i
                check_fanout(
                    intern_broadcast(label, tag, int(colors[i]), bits),
                    int(degree),
                )
            copies += int(degree)
            envelopes += 1
    return copies, envelopes


def _decide(state: _ShardState, active_color: int, target: int,
            bits: int, tag: str) -> Tuple[list, int, int]:
    """One decider round over one shard.

    Returns ``(updates, messages, broadcasts)`` with ``updates`` a list
    of ``(node, new_color)`` in ascending node order.  Raises the same
    :class:`AlgorithmFailure` / CONGEST exceptions, at the same node,
    as the serial kernel -- callers decide whether to re-raise locally
    (serial mode) or ship the failure to the parent (process mode).
    Updates are **not** applied here; same-round deciders must read the
    stale view.
    """
    if state.np is not None and state.check_fanout is None:
        return _decide_numpy(state, active_color, target)
    return _decide_python(state, active_color, target, bits, tag)


def _decide_python(state: _ShardState, active_color: int, target: int,
                   bits: int, tag: str) -> Tuple[list, int, int]:
    deciders = (state.by_color or {}).get(active_color, ())
    colors = state.colors
    indptr = state.indptr
    indices = state.indices
    degrees = state.degrees
    order = state.order
    check_fanout = state.check_fanout
    messages = 0
    broadcasts = 0
    updates = []
    for i in deciders:
        used = {colors[j] for j in indices[indptr[i]:indptr[i + 1]]}
        new_color = 0
        while new_color in used:
            new_color += 1
        if new_color >= target:
            label = order[i] if order is not None else i
            raise AlgorithmFailure(
                f"node {label!r}: no free color "
                f"below {target}; target must be at least Delta + 1"
            )
        updates.append((i, new_color))
        degree = degrees[i]
        if degree:
            if check_fanout is not None:
                label = order[i] if order is not None else i
                check_fanout(
                    intern_broadcast(label, tag, new_color, bits),
                    int(degree),
                )
            messages += int(degree)
            broadcasts += 1
    return updates, messages, broadcasts


def _decide_numpy(state: _ShardState, active_color: int, target: int
                  ) -> Tuple[list, int, int]:
    """Batched mex over every decider of the shard at once
    (:func:`repro.sim.arrays.batched_mex`)."""
    np = state.np
    left = np.searchsorted(state.sorted_colors, active_color, side="left")
    right = np.searchsorted(state.sorted_colors, active_color, side="right")
    deciders = state.sorted_ids[left:right]
    if not len(deciders):
        return [], 0, 0
    lengths = state.degrees[deciders]
    mex = arrays.batched_mex(np, state.indptr, state.indices, state.colors,
                             deciders)
    failing = np.nonzero(mex >= target)[0]
    if len(failing):
        # Deciders are ascending, so the first failing entry is the
        # globally smallest failing node of this shard.
        node = int(deciders[failing[0]])
        label = state.order[node] if state.order is not None else node
        raise AlgorithmFailure(
            f"node {label!r}: no free color "
            f"below {target}; target must be at least Delta + 1"
        )
    updates = list(zip(deciders.tolist(), mex.tolist()))
    return updates, int(lengths.sum()), int((lengths > 0).sum())


def _apply_updates(state: _ShardState, updates: list) -> None:
    colors = state.colors
    for i, new_color in updates:
        colors[i] = new_color


# ----------------------------------------------------------------------
# Worker side (process mode)
# ----------------------------------------------------------------------
#: Per-worker shard contexts, keyed by shard id, scoped to one run
#: token; a new token drops everything from the previous run.
_worker_run: Dict[str, Any] = {"token": None, "contexts": {}}


class _WorkerContext:
    __slots__ = ("state", "segment", "layout", "bounds", "spec_bits",
                 "q", "target", "bits", "tag", "rounds_total", "n",
                 "halo_in", "halo_out")

    def __init__(self):
        self.halo_in = 0
        self.halo_out = 0


def _attach_state_segment(name: str):
    from multiprocessing import shared_memory

    # Untracked: the parent owns the segment's lifecycle (see
    # shm._attach_untracked for why a worker must never register it).
    return shm._attach_untracked(shared_memory, name)


def _drop_worker_contexts() -> None:
    for ctx in _worker_run["contexts"].values():
        try:
            ctx.segment.close()
        except (BufferError, OSError):  # pragma: no cover - best effort
            pass
    _worker_run["contexts"].clear()


def _worker_drop(token) -> bool:
    """Parent-requested cleanup after a failed or finished run."""
    if _worker_run["token"] == token:
        _drop_worker_contexts()
        _worker_run["token"] = None
    return True


def _ensure_context(payload: Dict[str, Any]) -> _WorkerContext:
    token = payload["run"]
    if _worker_run["token"] != token:
        _drop_worker_contexts()
        _worker_run["token"] = token
    shard = payload["shard"]
    ctx = _worker_run["contexts"].get(shard)
    if ctx is not None:
        return ctx
    init = payload["init"]
    if payload["round"] != 1:  # pragma: no cover - affinity violated
        raise RuntimeError(
            f"shard {shard} context missing at round {payload['round']}"
        )
    key, handle = init["topology"]
    shm.receive_handles({key: handle})
    compiled = shm.lookup(key)
    if compiled is None:
        raise RuntimeError("worker could not attach the shared topology")
    ctx = _WorkerContext()
    ctx.segment = _attach_state_segment(init["state"])
    ctx.bounds = tuple(init["bounds"])
    ctx.n = init["n"]
    ctx.layout = _layout(ctx.n, ctx.bounds)
    ctx.q = init["q"]
    ctx.target = init["target"]
    ctx.bits = init["bits"]
    ctx.tag = init["tag"]
    ctx.rounds_total = init["rounds_total"]
    bandwidth = (pickle.loads(init["bandwidth"])
                 if init["bandwidth"] is not None else LocalModel())
    lo, hi = ctx.bounds[shard], ctx.bounds[shard + 1]
    np = arrays.get_numpy()
    initial = _read_cells(ctx.segment.buf, ctx.layout["init"], ctx.n)
    use_numpy = np is not None and type(bandwidth) is LocalModel
    colors = (np.array(initial, dtype=np.int64) if use_numpy else initial)
    ctx.state = _build_state(
        shard, lo, hi, compiled, colors, bandwidth,
        want_numpy=use_numpy, want_halo=True,
    )
    _worker_run["contexts"][shard] = ctx
    return ctx


def _apply_staged(ctx: _WorkerContext, round_number: int) -> None:
    """Ingest the previous round's boundary updates from other shards."""
    state = ctx.state
    epoch = (round_number - 1) % 2
    buf = ctx.segment.buf
    np = state.np
    for other in range(len(ctx.bounds) - 1):
        if other == state.shard:
            continue
        cell = _stage_cell(ctx.layout, epoch, other)
        count = _read_cells(buf, cell, 1)[0]
        if not count:
            continue
        pairs = _read_cells(buf, cell + 1, 2 * count)
        if np is not None:
            flat = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            keep = state.halo_mask[flat[:, 0]]
            kept = flat[keep]
            state.colors[kept[:, 0]] = kept[:, 1]
            ctx.halo_in += 2 * _ITEMSIZE * int(keep.sum())
        else:
            halo = state.halo
            colors = state.colors
            for idx in range(count):
                node = pairs[2 * idx]
                if node in halo:
                    colors[node] = pairs[2 * idx + 1]
                    ctx.halo_in += 2 * _ITEMSIZE


def _stage_updates(ctx: _WorkerContext, round_number: int,
                   updates: list) -> None:
    """Publish this shard's boundary updates for the next round."""
    state = ctx.state
    epoch = round_number % 2
    cell = _stage_cell(ctx.layout, epoch, state.shard)
    buf = ctx.segment.buf
    np = state.np
    if np is not None:
        if updates:
            pairs = np.array(updates, dtype=np.int64)
            keep = state.boundary_mask[pairs[:, 0]]
            staged = pairs[keep]
        else:
            staged = ()
        count = len(staged)
        _write_bytes(buf, cell, _int64_bytes([count]))
        if count:
            _write_bytes(buf, cell + 1, staged.tobytes())
            ctx.halo_out += 2 * _ITEMSIZE * count
    else:
        boundary = state.boundary
        staged = [pair for pair in updates if pair[0] in boundary]
        _write_bytes(buf, cell, _int64_bytes([len(staged)]))
        if staged:
            flat = [cell_value for pair in staged for cell_value in pair]
            _write_bytes(buf, cell + 1, _int64_bytes(flat))
            ctx.halo_out += 2 * _ITEMSIZE * len(staged)


def _worker_round(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One shard-round in a pool worker; never raises, ships failures."""
    try:
        ctx = _ensure_context(payload)
        state = ctx.state
        round_number = payload["round"]
        start = time.perf_counter()
        if round_number == 1:
            copies, envelopes = _round_broadcast(
                state, state.colors, ctx.bits, ctx.tag
            )
            result = {
                "ok": True,
                "messages": copies,
                "bits": copies * ctx.bits,
                "max_message_bits": ctx.bits if copies else 0,
                "broadcasts": envelopes,
            }
        elif round_number >= ctx.rounds_total:
            lo, hi = state.lo, state.hi
            if hi > lo:
                final = state.colors[lo:hi]
                raw = (final.tobytes() if state.np is not None
                       else _int64_bytes(final))
                _write_bytes(
                    ctx.segment.buf, ctx.layout["final"] + lo, raw
                )
            result = {"ok": True, "messages": 0, "bits": 0,
                      "max_message_bits": 0, "broadcasts": 0,
                      "terminal": True}
        else:
            _apply_staged(ctx, round_number)
            active_color = ctx.q - round_number + 1
            updates, messages, broadcasts = _decide(
                state, active_color, ctx.target, ctx.bits, ctx.tag
            )
            _stage_updates(ctx, round_number, updates)
            _apply_updates(state, updates)
            result = {
                "ok": True,
                "messages": messages,
                "bits": messages * ctx.bits,
                "max_message_bits": ctx.bits if messages else 0,
                "broadcasts": broadcasts,
            }
        result["halo_in"] = ctx.halo_in
        result["halo_out"] = ctx.halo_out
        result["compute_s"] = time.perf_counter() - start
        return result
    except Exception as error:  # ship it; the parent re-raises in order
        return {"ok": False, "error": error}


# ----------------------------------------------------------------------
# Parent side: the persistent shard-pinned worker lanes
# ----------------------------------------------------------------------
#: One single-worker process pool per shard index.  Affinity matters:
#: a shard's context (colors, buckets, halo sets) lives in exactly one
#: worker, so every round of shard ``s`` must land on lane ``s``.
_lanes: List[Any] = []
_lanes_atexit = False

#: Topologies this module published for its own runs, kept alive (and
#: keyed by object identity) so repeated runs on one topology reuse the
#: same segment instead of re-copying the CSR every run.
_published: Dict[int, Tuple[Any, dict, Any]] = {}
_publish_seq = 0


def _close_lanes() -> None:
    global _lanes
    lanes, _lanes = _lanes, []
    for lane in lanes:
        try:
            lane.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


def _ensure_lanes(shards: int) -> Optional[List[Any]]:
    """Warm single-worker process lanes 0..shards-1, or ``None``."""
    global _lanes_atexit
    from .parallel import PoolUnavailable, WorkerPool

    if not _lanes_atexit:
        atexit.register(_close_lanes)
        _lanes_atexit = True
    while len(_lanes) < shards:
        lane = WorkerPool(max_workers=1, engine="fast")
        try:
            lane.warm()
        except PoolUnavailable:
            lane.close()
            return None
        if lane.mode != "process":
            lane.close()
            return None
        _lanes.append(lane)
    return _lanes[:shards]


def _topology_handle(compiled) -> Optional[Tuple[Any, dict]]:
    """``(key, handle)`` for ``compiled`` in shared memory.

    Reuses an existing publication of the same object (e.g. an interned
    streaming topology a sweep already published) before making one of
    our own under a run-scoped key.
    """
    global _publish_seq
    for key, entry in list(shm._exported.items()):
        if entry[2] is compiled:
            return key, entry[1]
    cached = _published.get(id(compiled))
    if cached is not None and cached[2] is compiled:
        return cached[0], cached[1]
    _publish_seq += 1
    key = ("sharded-topology", os.getpid(), _publish_seq)
    handle = shm.publish(key, compiled)
    if handle is None:
        return None
    # Strong reference keeps id(compiled) stable for the cache's life.
    _published[id(compiled)] = (key, handle, compiled)
    return key, handle


class _ProcessUnavailable(Exception):
    """Internal: process mode cannot run here; fall back to serial."""


class _ProcessRunner:
    """Parent-side orchestration of one process-mode run.

    The parent drives rounds: it submits one task per shard per round
    and gathers the futures -- the gather *is* the barrier.  Per-shard
    barrier wait is the gap between that shard's completion and the
    round's last completion, accumulated across rounds.
    """

    def __init__(self, compiled, spec: ShardSpec, partition: Partition,
                 bandwidth):
        self.n = compiled.n
        self.partition = partition
        self.spec = spec
        k = partition.shards
        if type(bandwidth) is LocalModel:
            bandwidth_bytes = None
        else:
            try:
                bandwidth_bytes = pickle.dumps(bandwidth)
            except Exception as error:
                raise _ProcessUnavailable(
                    f"bandwidth model not picklable: {error}"
                ) from error
        topology = _topology_handle(compiled)
        if topology is None:
            raise _ProcessUnavailable("shared memory unusable")
        lanes = _ensure_lanes(k)
        if lanes is None:
            raise _ProcessUnavailable("process pool unusable")
        self.lanes = lanes
        self.layout = _layout(self.n, partition.bounds)
        try:
            from multiprocessing import shared_memory

            self.segment = shared_memory.SharedMemory(
                create=True,
                size=max(1, _ITEMSIZE * self.layout["cells"]),
            )
        except (OSError, PermissionError, ValueError) as error:
            raise _ProcessUnavailable(
                f"state segment unavailable: {error}"
            ) from error
        _write_bytes(self.segment.buf, self.layout["init"],
                     _int64_bytes(spec.colors))
        self.token = (os.getpid(), time.monotonic_ns())
        self.base = {
            "n": self.n,
            "bounds": partition.bounds,
            "q": spec.q,
            "target": spec.target,
            "bits": spec.bits,
            "tag": spec.tag,
            "rounds_total": spec.total_rounds,
            "state": self.segment.name,
            "topology": topology,
            "bandwidth": bandwidth_bytes,
        }
        self.barrier_wait_s = [0.0] * k
        self.halo_in = [0] * k
        self.halo_out = [0] * k
        self.compute_s = [0.0] * k

    def round(self, round_number: int) -> Tuple[int, int, int, int]:
        k = self.partition.shards
        done = [0.0] * k
        futures = []
        for shard in range(k):
            payload = {
                "run": self.token,
                "shard": shard,
                "round": round_number,
                "init": self.base,
            }
            future = self.lanes[shard].submit(_worker_round, payload)

            def _stamp(_f, shard=shard):
                done[shard] = time.perf_counter()

            future.add_done_callback(_stamp)
            futures.append(future)
        results = [future.result() for future in futures]
        last = max(done)
        for shard in range(k):
            self.barrier_wait_s[shard] += last - done[shard]
        failures = [
            (shard, result) for shard, result in enumerate(results)
            if not result["ok"]
        ]
        if failures:
            # Shard ranges ascend with the shard index, so the lowest
            # failing shard holds the globally first failing node --
            # exactly the serial engines' exception order.
            raise failures[0][1]["error"]
        messages = bits = broadcasts = 0
        max_bits = 0
        for shard, result in enumerate(results):
            messages += result["messages"]
            bits += result["bits"]
            broadcasts += result["broadcasts"]
            if result["max_message_bits"] > max_bits:
                max_bits = result["max_message_bits"]
            self.halo_in[shard] = result["halo_in"]
            self.halo_out[shard] = result["halo_out"]
            self.compute_s[shard] += result["compute_s"]
        return messages, bits, max_bits, broadcasts

    def final_colors(self) -> List[int]:
        return _read_cells(self.segment.buf, self.layout["final"], self.n)

    def close(self) -> None:
        from .parallel import PoolUnavailable

        drops = []
        for lane in self.lanes:
            try:
                drops.append(lane.submit(_worker_drop, self.token))
            except PoolUnavailable:  # pragma: no cover - closing pool
                pass
        for drop in drops:
            try:
                drop.result(timeout=10)
            except Exception:  # pragma: no cover - best effort cleanup
                pass
        try:
            self.segment.close()
            self.segment.unlink()
        except (BufferError, OSError):  # pragma: no cover - best effort
            pass


class _SerialRunner:
    """The same shard execution, in-process, over one shared column.

    Shards still compute independently against the stale round-start
    view (updates are applied only at the round boundary) and their
    charges merge in shard index order -- byte-identical to process
    mode and to the serial engines, minus the segment plumbing.  Used
    for small graphs, inside pool workers, for non-CSR-direct
    topologies, and wherever shared memory or pools are unusable.
    """

    def __init__(self, compiled, spec: ShardSpec, partition: Partition,
                 bandwidth):
        self.spec = spec
        self.partition = partition
        np = arrays.get_numpy()
        use_numpy = np is not None and type(bandwidth) is LocalModel
        if use_numpy and compiled.numpy_views() is None:  # pragma: no cover
            use_numpy = False
        self.colors = (np.array(spec.colors, dtype=np.int64)
                       if use_numpy else list(spec.colors))
        order = compiled.order
        dense = isinstance(order, range)
        self.states = []
        for shard in range(partition.shards):
            lo, hi = partition.range_of(shard)
            state = _build_state(
                shard, lo, hi, compiled, self.colors, bandwidth,
                want_numpy=use_numpy, want_halo=False,
            )
            if not dense:
                state.order = order
            self.states.append(state)
        self.barrier_wait_s = [0.0] * partition.shards
        self.halo_in = [0] * partition.shards
        self.halo_out = [0] * partition.shards
        self.compute_s = [0.0] * partition.shards

    def round(self, round_number: int) -> Tuple[int, int, int, int]:
        spec = self.spec
        messages = bits = broadcasts = 0
        max_bits = 0
        if round_number >= spec.total_rounds:
            return 0, 0, 0, 0
        all_updates: List[list] = []
        for state in self.states:
            start = time.perf_counter()
            if round_number == 1:
                copies, envelopes = _round_broadcast(
                    state, self.colors, spec.bits, spec.tag
                )
                shard_messages, shard_broadcasts = copies, envelopes
            else:
                updates, shard_messages, shard_broadcasts = _decide(
                    state, spec.q - round_number + 1, spec.target,
                    spec.bits, spec.tag,
                )
                all_updates.append(updates)
            messages += shard_messages
            broadcasts += shard_broadcasts
            self.compute_s[state.shard] += time.perf_counter() - start
        for updates in all_updates:
            for i, new_color in updates:
                self.colors[i] = new_color
        bits = messages * spec.bits
        if messages:
            max_bits = spec.bits
        return messages, bits, max_bits, broadcasts

    def final_colors(self) -> List[int]:
        if isinstance(self.colors, list):
            return self.colors
        return self.colors.tolist()

    def close(self) -> None:
        return None


# ----------------------------------------------------------------------
# Engine entry point
# ----------------------------------------------------------------------
def run_sharded(scheduler, max_rounds: int):
    """``Scheduler.run(engine="sharded")`` lands here.

    Mirrors ``_run_vectorized``'s eligibility chain, then executes the
    population shard-wise -- in the persistent worker lanes when the
    run is big and CSR-direct, serially in-process otherwise.  Anything
    the sharded registry cannot cover falls through to the vectorized
    engine (which applies its own fallback chain), so ``sharded`` is
    always a safe default engine.
    """
    global _last_run
    from .kernels import _record_hit

    def fall_back(reason: str):
        _record_shard_fallback(reason)
        return scheduler._run_vectorized(max_rounds)

    if scheduler.observer is not None:
        return fall_back("observer")
    if scheduler.stop_when is not None:
        return fall_back("stop_when")
    programs_map = scheduler.programs
    if not programs_map:
        return fall_back("empty")
    iterator = iter(programs_map.values())
    cls = next(iterator).__class__
    for program in iterator:
        if program.__class__ is not cls:
            return fall_back("mixed")
    builder = _registry.get(cls)
    if builder is None:
        return fall_back("unregistered")
    shards = default_shards()
    if shards <= 1:
        return fall_back("single-shard")

    compiled = scheduler.network.compile()
    programs = [programs_map[node] for node in compiled.order]
    warmup_start = time.perf_counter()
    spec = builder(compiled, programs, scheduler.bandwidth)
    if spec is None:
        return fall_back("declined")
    partition = partition_by_edges(compiled.indptr, shards)

    runner = None
    mode = "serial"
    if (not _in_worker and compiled.n >= MIN_SHARD_NODES
            and isinstance(compiled.order, range)):
        try:
            runner = _ProcessRunner(
                compiled, spec, partition, scheduler.bandwidth
            )
            mode = "process"
        except _ProcessUnavailable:
            runner = None
    if runner is None:
        runner = _SerialRunner(
            compiled, spec, partition, scheduler.bandwidth
        )
    warmup_s = time.perf_counter() - warmup_start

    obs_metrics.counter(
        "repro_shard_runs_total",
        "Engaged sharded-engine runs by mode and shard count",
        ("mode", "shards"),
    ).labels(mode=mode, shards=shards).inc()
    # Both runners make this same backend choice internally; recompute
    # it here for the stats label (physical metadata, outside the
    # byte-identity contract).
    backend = ("numpy"
               if arrays.get_numpy() is not None
               and type(scheduler.bandwidth) is LocalModel
               and compiled.numpy_views() is not None
               else "python")
    scheduler.dispatch_info = _record_hit(
        f"Sharded{spec.name}Kernel", warmup_s, f"{backend}-x{shards}")

    ledger = scheduler.ledger
    rounds = 0
    messages = bits = broadcasts = 0
    max_bits = 0
    total = spec.total_rounds
    try:
        try:
            for round_number in range(1, total + 1):
                if round_number > max_rounds:
                    raise RoundLimitExceeded(max_rounds, len(programs))
                (round_messages, round_bits, round_max_bits,
                 round_broadcasts) = runner.round(round_number)
                rounds += 1
                messages += round_messages
                bits += round_bits
                broadcasts += round_broadcasts
                if round_max_bits > max_bits:
                    max_bits = round_max_bits
        finally:
            if rounds:
                ledger.charge_batch(
                    rounds,
                    messages=messages,
                    bits=bits,
                    max_message_bits=max_bits,
                    broadcasts=broadcasts,
                )
            per_shard = [
                {
                    "shard": shard,
                    "nodes": (partition.bounds[shard + 1]
                              - partition.bounds[shard]),
                    "halo_in_bytes": runner.halo_in[shard],
                    "halo_out_bytes": runner.halo_out[shard],
                    "barrier_wait_s": runner.barrier_wait_s[shard],
                    "compute_s": runner.compute_s[shard],
                }
                for shard in range(partition.shards)
            ]
            halo_total = sum(runner.halo_in) + sum(runner.halo_out)
            if halo_total:
                obs_metrics.counter(
                    "repro_shard_halo_bytes_total",
                    "Boundary state exchanged between shards",
                ).inc(halo_total)
            barrier_total = sum(runner.barrier_wait_s)
            if barrier_total:
                obs_metrics.counter(
                    "repro_shard_barrier_wait_seconds_total",
                    "Wall-clock shards spent waiting at round barriers",
                ).inc(barrier_total)
            # Busiest-shard compute over the mean: 1.0 is a perfectly
            # balanced partition.  A gauge -- it describes the most
            # recent engaged run, not an accumulating total.
            compute = [entry["compute_s"] for entry in per_shard]
            mean_compute = sum(compute) / len(compute) if compute else 0.0
            if mean_compute > 0:
                obs_metrics.gauge(
                    "repro_shard_skew_ratio",
                    "Busiest shard compute time over the mean "
                    "(last engaged run)",
                ).set(max(compute) / mean_compute)
            _last_run = scheduler.shard_run = {
                "shards": partition.shards,
                "mode": mode,
                "backend": backend,
                "rounds": rounds,
                "halo_bytes": halo_total,
                "barrier_wait_s": sum(runner.barrier_wait_s),
                "per_shard": per_shard,
            }
        final = runner.final_colors()
        spec.finalize(final, programs)
        scheduler.rounds_executed = total
        return ledger
    finally:
        runner.close()
