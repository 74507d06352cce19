"""Process-parallel benchmark trials with deterministic seeding.

Benchmark sweeps run many *independent* trials (one per parameter point
or seed); nothing about the round simulator itself parallelizes, but the
trials do, embarrassingly.  This module fans a measurement function over
a process pool while keeping three guarantees the benchmark suite relies
on:

* **determinism** -- results are returned in submission order, and
  :func:`derive_seed` gives every trial a seed that depends only on the
  base seed and the trial's index, never on scheduling;
* **picklability is the caller's only obligation** -- the measurement
  must be a module-level function with picklable parameters (all the
  ``benchmarks/bench_*.py`` measures already are);
* **graceful fallback** -- on a single-core box, with ``max_workers=1``,
  with ``REPRO_PARALLEL=0``, or when the platform cannot spawn a pool
  (some sandboxes lack POSIX semaphores), trials run serially in-process
  with identical results.

Workers additionally start with the parent's warm substrate caches
(:mod:`repro.substrates.cache` -- schedules, prime tables, polynomial
families), shipped once through the pool initializer; disable with
``REPRO_SIM_CACHE=0``.

:func:`parallel_sweep` is a drop-in for
:func:`repro.analysis.experiments.sweep`.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
)

from ..obs import metrics as obs_metrics

Record = Dict[str, Any]
Measure = Callable[..., Record]

#: Environment switch: ``REPRO_PARALLEL=0`` forces the serial fallback,
#: ``REPRO_PARALLEL=<k>`` caps the worker count.
_ENV_WORKERS = "REPRO_PARALLEL"


def derive_seed(base_seed: int, trial_index: int) -> int:
    """A deterministic, well-mixed per-trial seed.

    Hash-based (BLAKE2) rather than arithmetic so that nearby trial
    indices do not produce correlated generator states, and stable across
    platforms and Python versions (unlike ``hash``).
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{trial_index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF


def resolve_workers(max_workers: Optional[int] = None) -> int:
    """The worker count to use: explicit arg, else env cap, else cores."""
    if max_workers is not None:
        return max(1, max_workers)
    env = os.environ.get(_ENV_WORKERS)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _call_measure(task):
    """Top-level worker target (must be importable for pickling)."""
    measure, params, timing, trace = task
    metrics_before = obs_metrics.snapshot()
    start = time.perf_counter()
    if trace:
        # The parent has a tracer installed: collect this trial's span/
        # event records in a private tracer and piggy-back them on the
        # record (picklable plain dicts); the parent merges them into
        # its own tracer with worker attribution.  The serial fallback
        # never sets this flag -- there the parent's tracer is already
        # the ambient one.
        from ..obs.tracer import Tracer, use_tracer

        with use_tracer(Tracer()) as tracer:
            record = measure(**params)
        trial_events = tracer.events
    else:
        record = measure(**params)
        trial_events = None
    elapsed = time.perf_counter() - start
    tagged: Record = dict(params)
    tagged.update(record)
    if timing:
        tagged["wall_s"] = elapsed
    if trial_events is not None:
        tagged["__trace__"] = {"pid": os.getpid(), "events": trial_events}
    # The one worker channel: this trial's registry *delta* (not the
    # cumulative snapshot: deltas stay additive when a pool is reused
    # across sweeps, and a forked worker's inherited parent state never
    # double-counts), stamped with the pid and its peak RSS.  The parent
    # pops it off every record, merges foreign pids into its registry,
    # and sums each pid's deltas into that worker's SweepReport entry.
    from ..obs.manifest import peak_rss_kb

    tagged["__metrics__"] = {
        "pid": os.getpid(),
        "rss_kb": peak_rss_kb(),
        "metrics": obs_metrics.snapshot_delta(metrics_before,
                                              obs_metrics.snapshot()),
    }
    return tagged


def _substrate_snapshot():
    """The parent's warm substrate caches, or ``None`` when empty/off.

    Imported lazily: the simulator layer does not depend on the substrate
    layer, it only ferries its (opaque, picklable) cache state across the
    process boundary.
    """
    try:
        from ..substrates import cache as substrate_cache
    except ImportError:  # pragma: no cover - substrates always ship
        return None
    if not substrate_cache.cache_enabled():
        return None
    return substrate_cache.snapshot() or None


def _init_worker(state, engine=None, arrays_enabled=None,
                 topologies=None, shards=None):
    """Pool initializer: seed a worker with the parent's caches,
    scheduler engine, kernel array-backend decision, and shared-memory
    topology handles.

    The engine is resolved *once in the parent* (explicit argument, else
    the parent's ``default_engine()`` -- which reads ``use_engine`` /
    ``set_default_engine`` overrides and the parent's current
    ``REPRO_SIM_ENGINE``) and shipped explicitly: a forked worker's
    environment is frozen at spawn time, so without this an engine
    selected after the pool exists would be silently ignored.  The
    NumPy-backend decision (:func:`repro.sim.arrays.arrays_enabled`) is
    frozen the same way so one sweep never splits across backends.
    The metrics registry is zeroed: ``fork`` otherwise hands the worker
    the parent's cumulative counts, which would show in its exposition
    (the per-trial deltas the worker ships back cancel them anyway).

    ``topologies`` carries :mod:`repro.sim.shm` handles for topologies
    the parent published to shared memory -- a name and a shape per key,
    a few dozen bytes -- so every worker maps the parent's single CSR
    copy instead of unpickling (and holding) its own.
    """
    if topologies:
        from . import shm

        shm.receive_handles(topologies)
    # A pool worker never spawns nested shard pools; the sharded engine
    # executes its shards serially in-process when this flag is set.
    from . import sharded as _sharded

    _sharded._mark_worker()
    if shards is not None:
        _sharded.set_default_shards(shards)
    if engine is not None:
        from .scheduler import set_default_engine

        set_default_engine(engine)
    if arrays_enabled is not None:
        from .arrays import set_arrays_override

        set_arrays_override(arrays_enabled)
    obs_metrics.reset_metrics()
    if state is None:
        return
    try:
        from ..substrates import cache as substrate_cache
    except ImportError:  # pragma: no cover - substrates always ship
        return
    substrate_cache.restore(state)


def _probe(task):
    """Trivial worker warmup target (must be importable for pickling)."""
    return task


class PoolUnavailable(RuntimeError):
    """Raised when a worker pool cannot be created or used on this
    platform (no POSIX semaphores, denied ``fork``, missing module).
    Callers choose the degradation: :func:`parallel_sweep` retries
    serially, the serve supervisor drops to a thread pool."""


class _EngineCall:
    """Wrap a call so thread-mode pools apply the pool's engine.

    Process workers get their engine through the pool initializer; a
    thread shares the parent's process state, so the resolved engine is
    applied around each call instead.  A class (not a closure) to stay
    picklable by accident of use, and cheap to construct per submit.
    """

    __slots__ = ("engine", "fn", "shards")

    def __init__(self, engine: str, fn: Callable[..., Any],
                 shards: Optional[int] = None):
        self.engine = engine
        self.fn = fn
        self.shards = shards

    def __call__(self, *args: Any) -> Any:
        from .scheduler import use_engine
        from .sharded import use_shards

        with use_engine(self.engine):
            if self.shards is not None:
                with use_shards(self.shards):
                    return self.fn(*args)
            return self.fn(*args)


class WorkerPool:
    """A worker pool whose lifetime *outlives a single sweep*.

    Historically :func:`parallel_sweep` owned the whole process
    lifecycle: it created a pool, shipped the warm caches, ran one sweep,
    and tore everything down -- so every sweep (and every would-be
    server request) repaid worker spawn, cache transfer, and topology
    publication.  ``WorkerPool`` splits "process lifecycle" from "one
    run": it owns the executor, the engine/array-backend decision (frozen
    at construction), the substrate-cache snapshot shipped to workers,
    and the shared-memory topologies it published (refcounted via
    :func:`repro.sim.shm.publish` and released on :meth:`close`).  One
    pool can serve many :func:`parallel_sweep` calls (pass ``pool=``) or
    a long-running daemon's request stream (:mod:`repro.serve`).

    Two modes: ``"process"`` (a ``ProcessPoolExecutor`` with the warm
    initializer) and ``"thread"`` (a single-thread executor sharing the
    parent's caches -- the degradation target where process pools are
    unusable, and the deterministic choice for tests).  :meth:`warm`
    spawns the workers eagerly and degrades ``process -> thread``
    automatically, recording ``fallback_reason``.

    Occupancy counters (``submitted`` / ``completed`` / ``in_flight``)
    are maintained on every dispatch for the daemon's ``/stats``.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 engine: Optional[str] = None,
                 topologies: Optional[Mapping[Hashable, Any]] = None,
                 mode: str = "process",
                 shards: Optional[int] = None):
        from .scheduler import _validate_engine, default_engine
        from .sharded import default_shards

        if mode not in ("process", "thread"):
            raise ValueError(f"unknown pool mode: {mode!r}")
        self.engine = (_validate_engine(engine) if engine is not None
                       else default_engine())
        # Resolved once in the parent, like the engine: a worker running
        # engine="sharded" executes its shards serially in-process, so
        # the count only shapes partitioning, never nested pools.
        self.shards = int(shards) if shards is not None else default_shards()
        if self.shards < 1:
            raise ValueError("shards must be positive")
        self.workers = resolve_workers(max_workers)
        self.mode = mode
        self.fallback_reason: Optional[str] = None
        self.warmup_s: Optional[float] = None
        self.submitted = 0
        self.completed = 0
        self._lock = threading.Lock()
        self._executor = None
        self._closed = False
        self._topology_keys: List[Hashable] = []
        if topologies:
            self.add_topologies(topologies)

    # -- lifecycle ------------------------------------------------------
    def _make_executor(self):
        if self.mode == "process":
            from concurrent.futures import ProcessPoolExecutor

            from . import shm
            from .arrays import arrays_enabled

            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(_substrate_snapshot(), self.engine,
                          arrays_enabled(), shm.export_handles() or None,
                          self.shards),
            )
        from concurrent.futures import ThreadPoolExecutor

        # One thread: the work is CPU-bound pure Python (no GIL win from
        # more), and a single lane keeps engine overrides and kernel
        # counters serialized.
        return ThreadPoolExecutor(max_workers=1)

    @property
    def executor(self):
        """The live executor, created lazily on first dispatch."""
        if self._closed:
            raise PoolUnavailable("pool is closed")
        if self._executor is None:
            try:
                self._executor = self._make_executor()
            except (ImportError, OSError, PermissionError) as error:
                raise PoolUnavailable(
                    f"cannot create {self.mode} pool: {error}"
                ) from error
        return self._executor

    def warm(self) -> float:
        """Spawn the workers now and measure the cold-start cost.

        A long-lived daemon pays worker spawn, cache shipping, and
        import cost *once, at boot* instead of on the first unlucky
        request.  Where a process pool turns out unusable, the pool
        degrades to thread mode (``fallback_reason`` records why) rather
        than failing -- serving must start.  Returns the warmup wall
        seconds (also kept as ``warmup_s``).
        """
        start = time.perf_counter()
        try:
            assert self.map(_probe, list(range(self.workers))) == \
                list(range(self.workers))
        except PoolUnavailable as error:
            if self.mode != "process":
                raise
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None
            self.mode = "thread"
            self.fallback_reason = str(error)
            assert self.map(_probe, [0]) == [0]
        self.warmup_s = time.perf_counter() - start
        return self.warmup_s

    def close(self) -> None:
        """Shut the executor down and release published topologies."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        from . import shm

        for key in self._topology_keys:
            shm.release(key)
        self._topology_keys.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- topologies -----------------------------------------------------
    def add_topologies(self, topologies: Mapping[Hashable, Any]
                       ) -> Dict[Hashable, dict]:
        """Publish compiled topologies to shared memory under this
        pool's ownership (released at :meth:`close`).

        Returns the handle map.  Workers spawned *before* a publication
        receive the handles with each task rather than through the
        initializer, so late additions still resolve.
        """
        from . import shm

        handles: Dict[Hashable, dict] = {}
        for key, compiled in topologies.items():
            handle = shm.publish(key, compiled)
            if handle is not None:
                self._topology_keys.append(key)
                handles[key] = handle
        return handles

    def topology_handles(self) -> Optional[Dict[Hashable, dict]]:
        """Every handle published by this process (task payload form)."""
        from . import shm

        return shm.export_handles() or None

    # -- dispatch -------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self.submitted - self.completed

    def _count_submit(self, n: int = 1) -> None:
        with self._lock:
            self.submitted += n
            in_flight = self.submitted - self.completed
        obs_metrics.counter(
            "repro_pool_tasks_submitted_total",
            "Tasks dispatched to the worker pool",
        ).inc(n)
        obs_metrics.gauge(
            "repro_pool_in_flight",
            "Tasks submitted to the pool and not yet completed",
        ).set(in_flight)

    def _count_complete(self, n: int) -> None:
        with self._lock:
            self.completed += n
            in_flight = self.submitted - self.completed
        obs_metrics.counter(
            "repro_pool_tasks_completed_total",
            "Tasks the worker pool finished",
        ).inc(n)
        obs_metrics.gauge(
            "repro_pool_in_flight",
            "Tasks submitted to the pool and not yet completed",
        ).set(in_flight)

    def _count_done(self, _future: Any = None) -> None:
        self._count_complete(1)

    def submit(self, fn: Callable[..., Any], *args: Any):
        """Dispatch one call; returns a ``concurrent.futures.Future``."""
        executor = self.executor
        call = (fn if self.mode == "process"
                else _EngineCall(self.engine, fn, self.shards))
        try:
            future = executor.submit(call, *args)
        except (OSError, PermissionError, RuntimeError) as error:
            raise PoolUnavailable(str(error)) from error
        self._count_submit()
        future.add_done_callback(self._count_done)
        return future

    def map(self, fn: Callable[[Any], Any], tasks: List[Any]) -> List[Any]:
        """Ordered results of ``fn`` over ``tasks`` (one sweep's runs)."""
        executor = self.executor
        call = (fn if self.mode == "process"
                else _EngineCall(self.engine, fn, self.shards))
        self._count_submit(len(tasks))
        try:
            return list(executor.map(call, tasks))
        except (ImportError, OSError, PermissionError) as error:
            raise PoolUnavailable(str(error)) from error
        finally:
            self._count_complete(len(tasks))

    def stats(self) -> Dict[str, Any]:
        """Occupancy/provenance snapshot for ``/stats`` and manifests."""
        with self._lock:
            submitted, completed = self.submitted, self.completed
        return {
            "mode": self.mode,
            "workers": self.workers if self.mode == "process" else 1,
            "engine": self.engine,
            "shards": self.shards,
            "submitted": submitted,
            "completed": completed,
            "in_flight": submitted - completed,
            "warmup_s": self.warmup_s,
            "fallback_reason": self.fallback_reason,
            "topologies": len(self._topology_keys),
        }


class SweepReport(list):
    """The records of a sweep plus per-worker engine/kernel telemetry.

    A ``list`` subclass so ``parallel_sweep(..., report=True)`` stays a
    drop-in for the plain record list; ``workers`` holds one dict per
    process that ran trials (pool workers, or this process for the
    serial path and thread-mode pools), sorted by pid, each with
    ``pid``, ``engine``, ``rss_kb`` (that process's peak RSS) and the
    :func:`~repro.sim.kernels.kernel_stats` keys computed over the sum
    of that process's per-trial registry deltas in *this sweep* -- the
    same keys on every path.  They are the visibility knob for the
    vectorized engine's *silent* fallback-to-fast: a sweep that meant to
    measure kernels but shows ``hits == 0`` is measuring the wrong code
    path.

    ``trace_events`` holds the merged per-trial trace records when the
    sweep ran under an installed :class:`~repro.obs.tracer.Tracer`
    (every record stamped with its ``worker`` pid, ids rebased into the
    parent tracer's sequence), empty otherwise -- the raw material for
    the ``repro trace`` worker-skew table.
    """

    def __init__(self, records: Iterable[Record], engine: str,
                 workers: List[Dict[str, Any]], wall_s: float,
                 trace_events: Optional[List[Dict[str, Any]]] = None):
        super().__init__(records)
        self.engine = engine
        self.workers = workers
        self.wall_s = wall_s
        self.trace_events = trace_events if trace_events is not None else []

    @property
    def records(self) -> List[Record]:
        return list(self)

    def describe(self) -> str:
        """A human-readable multi-line summary (benchmark stdout)."""
        lines = [
            f"sweep: {len(self)} trials, engine={self.engine}, "
            f"{len(self.workers)} worker(s), wall {self.wall_s:.2f}s"
        ]
        for worker in self.workers:
            kernels = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(worker["by_kernel"].items())
            ) or "none"
            reasons = ", ".join(
                f"{name} x{count}"
                for name, count in sorted(worker["by_reason"].items())
            ) or "none"
            rss_kb = worker.get("rss_kb")
            rss = (f", peak rss {rss_kb / 1024:.1f} MiB"
                   if rss_kb is not None else "")
            lines.append(
                f"  worker pid={worker['pid']} engine={worker['engine']}: "
                f"{worker['hits']}/{worker['runs']} kernel hits "
                f"[{kernels}], fallbacks [{reasons}], "
                f"warmup {worker['warmup_s'] * 1e3:.2f} ms{rss}"
            )
        if self.trace_events:
            lines.append(
                f"  traced: {len(self.trace_events)} records merged "
                f"from workers"
            )
        return "\n".join(lines)


def _pop_worker_traces(records: List[Record], tracer) -> List[Dict[str, Any]]:
    """Strip the piggy-backed ``__trace__`` payloads off the records and
    merge them into the parent's tracer, stamped with their worker pid.

    Records come back in submission order (``pool.map``), so the merged
    stream is deterministic for a fixed trial list; only the ``worker``
    attribution and wall-clock differ run to run, and both are physical
    fields outside the logical trace view.
    """
    merged: List[Dict[str, Any]] = []
    for record in records:
        payload = record.pop("__trace__", None)
        if payload is None:
            continue
        merged.extend(
            tracer.merge(payload["events"], worker=payload["pid"])
        )
    return merged


def _pop_worker_metrics(records: List[Record],
                        engine: str) -> List[Dict[str, Any]]:
    """Strip the ``__metrics__`` payloads off the records, merge the
    foreign-pid deltas into this process's registry, and return one
    :attr:`SweepReport.workers` entry per pid, built by summing that
    pid's per-trial deltas.

    Trials that ran in this process (the serial path, thread-mode pools)
    already updated this registry directly, so their deltas count
    towards their entry but are not merged again.  Such trials never
    overlap: the serial path runs them one after another and a
    thread-mode pool has a single lane.
    """
    from .kernels import kernel_stats

    own_pid = os.getpid()
    totals: Dict[int, obs_metrics.MetricsRegistry] = {}
    rss_kb: Dict[int, Optional[int]] = {}
    for record in records:
        payload = record.pop("__metrics__")
        pid = payload["pid"]
        total = totals.get(pid)
        if total is None:
            total = totals[pid] = obs_metrics.MetricsRegistry()
        if payload["rss_kb"] is not None:
            rss_kb[pid] = max(rss_kb.get(pid) or 0, payload["rss_kb"])
        try:
            total.merge(payload["metrics"])
            if pid != own_pid:
                obs_metrics.merge(payload["metrics"])
        except obs_metrics.MetricError:
            # A worker on a different code revision (or with clashing
            # bucket layouts) must not poison the sweep's results.
            continue
    return [
        dict(kernel_stats(totals[pid].snapshot()),
             pid=pid, engine=engine, rss_kb=rss_kb.get(pid))
        for pid in sorted(totals)
    ]


def parallel_sweep(measure: Measure,
                   params_list: Iterable[Mapping[str, Any]],
                   max_workers: Optional[int] = None,
                   timing: bool = False,
                   engine: Optional[str] = None,
                   report: bool = False,
                   topologies: Optional[Mapping[Any, Any]] = None,
                   pool: Optional[WorkerPool] = None,
                   shards: Optional[int] = None
                   ) -> List[Record]:
    """Run ``measure(**params)`` for every parameter dict, across processes.

    A drop-in replacement for :func:`repro.analysis.experiments.sweep`:
    each record is the parameter dict updated with the measured record
    (plus ``wall_s`` when ``timing``), in the order of ``params_list``.

    ``engine`` pins the scheduler engine for every trial (validated in
    the parent, applied in each worker -- and via ``use_engine`` on the
    serial path); ``None`` means the parent's current default, resolved
    once at call time.  With ``report=True`` the returned list is a
    :class:`SweepReport` carrying per-worker kernel hit/fallback/warmup
    stats.

    When a :class:`~repro.obs.tracer.Tracer` is installed in the parent
    (:func:`repro.obs.use_tracer`), each pool worker traces its trials
    into a private tracer and ships the records back with the results;
    the parent merges them -- stamped ``worker=<pid>`` -- into its own
    tracer under a ``parallel-sweep`` span (and onto
    ``SweepReport.trace_events``), so a traced sweep profiles exactly
    like a traced serial run, with worker attribution on top.

    ``topologies`` maps streaming-generator keys (e.g.
    ``("ring-stream", n)``) to
    :class:`~repro.sim.compiled.CompiledNetwork` instances the parent
    wants workers to *map*, not copy: each is published once to
    :mod:`repro.sim.shm` and only the handles travel through the pool
    initializer, so worker RSS stays flat in the topology size.
    Publishing is best-effort -- where shared memory is unusable,
    workers simply rebuild.

    ``shards`` pins the sharded engine's shard count for every trial,
    resolved in the parent exactly like ``engine`` (``None`` means the
    parent's current :func:`repro.sim.sharded.default_shards`).  Inside
    pool workers the sharded engine always executes its shards serially
    in-process, so the count shapes partitioning, never nested pools.

    ``pool`` reuses a live :class:`WorkerPool` instead of paying pool
    creation and cache shipping per sweep: the pool's frozen engine
    wins (passing a *different* explicit ``engine`` is an error), its
    workers stay warm across calls, and it is **not** closed here --
    the caller owns the process lifecycle.  Topologies passed alongside
    an external pool are published under the pool's refcount and
    released when the pool closes.
    """
    from ..obs.tracer import current_tracer
    from .scheduler import _validate_engine, default_engine, use_engine
    from .sharded import default_shards, use_shards

    if pool is not None:
        resolved = pool.engine
        if engine is not None and _validate_engine(engine) != resolved:
            raise ValueError(
                f"engine {engine!r} conflicts with the pool's frozen "
                f"engine {resolved!r}"
            )
        resolved_shards = pool.shards
        if shards is not None and int(shards) != resolved_shards:
            raise ValueError(
                f"shards {shards!r} conflicts with the pool's frozen "
                f"shard count {resolved_shards!r}"
            )
        if topologies:
            pool.add_topologies(topologies)
    else:
        resolved = (_validate_engine(engine) if engine is not None
                    else default_engine())
        resolved_shards = (int(shards) if shards is not None
                           else default_shards())
        if resolved_shards < 1:
            raise ValueError("shards must be positive")
        if topologies:
            # Sweep-owned publications deliberately skip the refcounted
            # release: they stay warm for follow-up sweeps and are
            # unlinked by the exit/signal cleanup, the pre-WorkerPool
            # contract every benchmark relies on.
            from . import shm

            for key, compiled in topologies.items():
                shm.publish(key, compiled)
    tracer = current_tracer()
    start = time.perf_counter()
    tasks = [
        (measure, dict(params), timing, tracer is not None)
        for params in params_list
    ]
    workers = min(resolve_workers(max_workers), max(1, len(tasks)))
    records: Optional[List[Record]] = None
    trace_events: List[Dict[str, Any]] = []
    own_pool: Optional[WorkerPool] = None
    dispatch = pool
    if dispatch is None and workers > 1 and len(tasks) > 1:
        # One sweep, one ephemeral pool: warm substrate caches
        # (schedules, polynomial families, prime tables, interned
        # networks with their compiled CSR topologies) computed in this
        # process are shipped to every worker once, instead of each
        # worker re-deriving them per trial; the resolved engine choice
        # rides along.
        dispatch = own_pool = WorkerPool(max_workers=workers,
                                         engine=resolved,
                                         shards=resolved_shards)
    try:
        if dispatch is not None:
            try:
                records = dispatch.map(_call_measure, tasks)
            except PoolUnavailable:
                # No usable pool on this platform; results are
                # identical either way, only wall-clock differs.
                records = None
            else:
                if tracer is not None:
                    with tracer.span("algorithm", "parallel-sweep",
                                     trials=len(tasks), engine=resolved):
                        trace_events = _pop_worker_traces(records, tracer)
        if records is None:
            # The serial fallback runs in-process, where the parent's
            # tracer is already ambient: trials trace straight into it,
            # no merge.
            serial_tasks = [(m, p, t, False) for (m, p, t, _) in tasks]
            with use_engine(resolved), use_shards(resolved_shards):
                records = [_call_measure(task) for task in serial_tasks]
    finally:
        if own_pool is not None:
            own_pool.close()
    worker_stats = _pop_worker_metrics(records, resolved)
    if not report:
        return records
    return SweepReport(
        records, resolved, worker_stats, time.perf_counter() - start,
        trace_events,
    )


def run_trials(measure: Callable[..., Any],
               trials: int,
               base_seed: int = 0,
               max_workers: Optional[int] = None,
               engine: Optional[str] = None,
               **common: Any) -> List[Any]:
    """Run ``trials`` seeded repetitions of ``measure`` across processes.

    Trial ``i`` is called as ``measure(seed=derive_seed(base_seed, i),
    **common)``; results come back in trial order.  Use this for
    repeated-trial benchmarks where :func:`parallel_sweep`'s grid shape
    does not fit.  ``engine`` is resolved in the parent exactly as in
    :func:`parallel_sweep`.
    """
    params_list = [
        dict(common, seed=derive_seed(base_seed, i)) for i in range(trials)
    ]
    records = parallel_sweep(
        _strip_record(measure), params_list, max_workers=max_workers,
        engine=engine,
    )
    return [record["result"] for record in records]


class _strip_record:
    """Adapt an arbitrary-return measure to the record protocol.

    A class (not a closure) so it pickles by reference to the wrapped
    module-level function.
    """

    def __init__(self, measure: Callable[..., Any]):
        self.measure = measure

    def __call__(self, **params: Any) -> Record:
        return {"result": self.measure(**params)}
