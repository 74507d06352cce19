"""The synchronous round scheduler.

Runs one :class:`~repro.sim.node.NodeProgram` per node in lock step:

1. every active node is called with the messages delivered this round,
2. the messages it queues are validated against the bandwidth model and
   buffered,
3. buffered messages are delivered at the start of the next round.

This matches the paper's model: in every round a node can send a
(potentially different) message to each neighbor, receive the neighbors'
messages, and perform arbitrary internal computation.

The scheduler terminates when every node has halted and no messages are in
flight, and charges the measured rounds/messages/bits to a
:class:`~repro.sim.metrics.CostLedger` so that composed protocols share one
meter.

Three execution engines implement the same semantics:

``fast`` (the default)
    The production hot loop.  It compiles the topology once
    (:meth:`~repro.sim.network.Network.compile`), keeps an explicit
    active list instead of scanning every node each round, reuses a pair
    of per-node inbox buffers instead of rebuilding ``{node: []}`` dicts,
    fans each :class:`~repro.sim.message.Broadcast` envelope out *by
    reference* over the compiled CSR row (charging the ledger and the
    CONGEST checker analytically as ``copies * size``), skips
    per-message bandwidth calls entirely under
    :class:`~repro.sim.congest.LocalModel`, and batches ledger
    accumulation into one charge per run when no observer or stop oracle
    needs per-round granularity.

``vectorized``
    The batched-dispatch path for *homogeneous* populations.  When every
    program is exactly the same class and that class has a registered
    :class:`~repro.sim.kernels.RoundKernel`, the whole population is
    executed array-at-a-time over the compiled CSR rows -- one kernel
    ``step`` per round instead of one ``on_round`` call per node -- with
    the ledger charged in bulk.  Mixed or unregistered populations (and
    runs that need per-round observer/oracle granularity) transparently
    fall back to the fast engine, so ``engine="vectorized"`` is always
    safe to request.

``sharded``
    The multi-core path for *large single-graph* runs.  The compiled
    CSR is partitioned into contiguous node shards
    (:mod:`repro.graphs.partition`), each shard's kernel columns run in
    a pinned worker process, and workers synchronize once per round by
    exchanging only boundary ("halo") state through a shared-memory
    segment (:mod:`repro.sim.sharded`).  Populations the sharded
    registry does not cover fall through to the vectorized engine, and
    small or non-CSR-direct runs execute their shards serially
    in-process -- in every case byte-identical to serial execution.

``reference``
    The direct transcription of the model definition that the repository
    started from.  It is kept as the executable specification: the
    equivalence suite (``tests/sim/test_engine_equivalence.py``) runs
    representative protocols through all engines and asserts identical
    outputs, rounds, messages, and bit totals, and
    ``benchmarks/bench_engine.py`` tracks the fast and vectorized paths'
    speedups over it.

Select an engine per call (``scheduler.run(engine="reference")``), per
process (the ``REPRO_SIM_ENGINE`` environment variable), or temporarily
for a whole protocol stack (:func:`use_engine`).

All three engines share one telemetry hook: when a
:class:`~repro.obs.tracer.Tracer` is installed
(:func:`repro.obs.use_tracer`), every ``run`` emits an aggregate span +
round-batch event built from the ledger delta -- never per-round or
per-node records -- so tracing costs one extra ``None`` check per run
when disabled and does not change engine eligibility when enabled (a
traced vectorized run keeps its kernels; contrast the per-round
``observer``, which forces the fast path).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import (Any, Dict, Hashable, Iterator, List, Mapping, Optional,
                    Tuple)

from ..obs import metrics as obs_metrics
from ..obs.tracer import current_tracer
from .congest import BandwidthModel, LocalModel
from .errors import NetworkError, RoundLimitExceeded, SchedulerError
from .message import Broadcast, Message
from .metrics import CostLedger, ensure_ledger
from .network import Network
from .node import NodeProgram, RoundContext

Node = Hashable

#: Safety net so buggy protocols fail loudly instead of spinning forever.
DEFAULT_MAX_ROUNDS = 1_000_000

#: The engines understood by :meth:`Scheduler.run`.
ENGINES = ("fast", "reference", "vectorized", "sharded")

#: Environment variable naming the process-default engine.
ENGINE_ENV = "REPRO_SIM_ENGINE"

#: A programmatic engine selection (``set_default_engine`` /
#: :func:`use_engine`); ``None`` means "defer to the environment".  Kept
#: separate from the environment read so that ``REPRO_SIM_ENGINE`` is
#: honored *dynamically* -- setting it after import (or after a process
#: pool's parent imported this module) still takes effect, which the
#: parallel trial runner relies on to resolve the engine once in the
#: parent and ship it to every worker.
_engine_override: Optional[str] = None


def _validate_engine(name: str) -> str:
    if name not in ENGINES:
        raise SchedulerError(
            f"unknown scheduler engine {name!r}; expected one of {ENGINES}"
        )
    return name


def default_engine() -> str:
    """The engine used when :meth:`Scheduler.run` gets ``engine=None``.

    A programmatic selection wins; otherwise the *current* value of
    ``REPRO_SIM_ENGINE`` (re-read on every call, so late environment
    changes are honored), falling back to ``"fast"``.
    """
    if _engine_override is not None:
        return _engine_override
    return os.environ.get(ENGINE_ENV, "fast")


def set_default_engine(name: str) -> str:
    """Set the process-wide default engine; returns the previous one."""
    global _engine_override
    previous = default_engine()
    _engine_override = _validate_engine(name)
    return previous


@contextmanager
def use_engine(name: str) -> Iterator[None]:
    """Temporarily force every scheduler run to use ``name``.

    Lets benchmarks and equivalence tests push a whole protocol stack --
    including nested :func:`run_protocol` calls deep inside compositions
    -- onto one engine without threading a parameter everywhere.  On exit
    the previous override state is restored exactly (including the
    "no override, defer to the environment" state).
    """
    global _engine_override
    saved = _engine_override
    set_default_engine(name)
    try:
        yield
    finally:
        _engine_override = saved


class Scheduler:
    """Drives a set of node programs over a network until all halt."""

    def __init__(self, network: Network,
                 programs: Mapping[Node, NodeProgram],
                 bandwidth: Optional[BandwidthModel] = None,
                 ledger: Optional[CostLedger] = None,
                 observer=None,
                 stop_when=None):
        missing = set(network.nodes) - set(programs)
        if missing:
            raise SchedulerError(f"nodes without a program: {sorted(map(repr, missing))}")
        extra = set(programs) - set(network.nodes)
        if extra:
            raise SchedulerError(f"programs for unknown nodes: {sorted(map(repr, extra))}")
        self.network = network
        self.programs = dict(programs)
        self.bandwidth = bandwidth if bandwidth is not None else LocalModel()
        self.ledger = ensure_ledger(ledger)
        #: Optional RoundObserver receiving per-round event records.
        self.observer = observer
        #: Optional global-quiescence oracle: ``stop_when(programs)`` is
        #: evaluated after every round and ends the run when true.  This
        #: models an external termination detector -- protocols whose
        #: nodes cannot decide termination locally (e.g. parallel local
        #: search) use it instead of per-node halting.
        self.stop_when = stop_when
        self.rounds_executed = 0
        #: The latest run's kernel dispatch outcome (``kernel`` /
        #: ``backend`` / ``fallback`` / ``warmup_s``), handed over by the
        #: vectorized and sharded engines for traced runs to annotate.
        self.dispatch_info: Optional[Dict[str, Any]] = None
        #: The latest engaged sharded run's record (the ``last_run``
        #: entry of :func:`repro.sim.sharded.shard_stats`).
        self.shard_run: Optional[Dict[str, Any]] = None

    def run(self, max_rounds: int = DEFAULT_MAX_ROUNDS,
            engine: Optional[str] = None) -> CostLedger:
        """Run to quiescence; returns the ledger for convenience.

        ``engine`` selects the execution path (``"fast"``,
        ``"reference"``, or ``"vectorized"``); ``None`` uses the process
        default (normally ``"fast"``, overridable via
        ``REPRO_SIM_ENGINE`` or :func:`use_engine`).  All engines
        implement identical semantics; ``"vectorized"`` falls back to
        ``"fast"`` for populations it cannot batch.
        """
        name = _validate_engine(engine if engine is not None
                                else default_engine())
        tracer = current_tracer()
        # Per-run registry metrics from the ledger delta: recorded for
        # every run, traced or not.  Write-only observation -- nothing
        # below reads the registry, so results cannot change.
        ledger = self.ledger
        before = (ledger.rounds, ledger.messages, ledger.bits,
                  ledger.broadcasts)
        started = time.perf_counter()
        try:
            if tracer is None:
                return self._dispatch(name, max_rounds)
            return self._run_traced(tracer, name, max_rounds)
        finally:
            obs_metrics.record_run(
                name,
                ledger.rounds - before[0],
                ledger.messages - before[1],
                ledger.bits - before[2],
                ledger.broadcasts - before[3],
                time.perf_counter() - started,
            )

    def _dispatch(self, name: str, max_rounds: int) -> CostLedger:
        if name == "reference":
            return self._run_reference(max_rounds)
        if name == "vectorized":
            return self._run_vectorized(max_rounds)
        if name == "sharded":
            return self._run_sharded(max_rounds)
        return self._run_fast(max_rounds)

    def _run_traced(self, tracer, name: str,
                    max_rounds: int) -> CostLedger:
        """Run under the installed :class:`~repro.obs.tracer.Tracer`.

        Tracing is *aggregate*, not per-round: the run's ledger delta is
        computed around the engine dispatch and emitted as one ``run``
        span plus one ``round-batch`` event, so the hot loops are
        untouched and -- unlike attaching a
        :class:`~repro.sim.tracing.RoundObserver` -- the vectorized
        engine keeps its kernels.  The logical fields of the emitted
        records are engine-invariant (the ledger delta is covered by the
        engine-equivalence contract); ``engine`` / ``kernel`` /
        ``fallback`` / wall-clock ride along as physical fields, with
        kernel attribution handed over by the engine itself
        (:attr:`dispatch_info`, :attr:`shard_run`).
        """
        ledger = self.ledger
        before = (ledger.rounds, ledger.messages, ledger.bits,
                  ledger.broadcasts)
        self.dispatch_info = self.shard_run = None
        with tracer.span("run", "scheduler",
                         nodes=len(self.programs)) as span:
            try:
                return self._dispatch(name, max_rounds)
            finally:
                info = self.dispatch_info or {}
                kernel = info.get("kernel")
                fallback = info.get("fallback")
                backend = info.get("backend")
                if name in ("vectorized", "sharded"):
                    tracer.annotate(
                        "dispatch", kernel=kernel, fallback=fallback,
                        backend=backend,
                        warmup_s=info.get("warmup_s", 0.0),
                    )
                last = self.shard_run
                if last is not None:
                    # Physical records (kind="kernel" is in
                    # PHYSICAL_KINDS): per-shard stats never enter the
                    # logical byte-identity contract.
                    for entry in last["per_shard"]:
                        tracer.annotate(
                            "shard",
                            shard=entry["shard"],
                            shards=last["shards"],
                            halo_bytes=(entry["halo_in_bytes"]
                                        + entry["halo_out_bytes"]),
                            barrier_wait_s=entry["barrier_wait_s"],
                        )
                    span.attrs.update(
                        shards=last["shards"],
                        halo_bytes=last["halo_bytes"],
                        barrier_wait_s=last["barrier_wait_s"],
                    )
                from ..obs.manifest import peak_rss_kb

                span.attrs.update(
                    rounds=ledger.rounds - before[0],
                    messages=ledger.messages - before[1],
                    bits=ledger.bits - before[2],
                    broadcasts=ledger.broadcasts - before[3],
                    engine=name,
                    kernel=kernel,
                    fallback=fallback,
                    backend=backend,
                    # Physical field (PHYSICAL_FIELDS): peak RSS so far,
                    # outside the logical byte-identity contract.
                    rss_kb=peak_rss_kb(),
                )
                tracer.event(
                    "round-batch", "rounds",
                    rounds=ledger.rounds - before[0],
                    messages=ledger.messages - before[1],
                    bits=ledger.bits - before[2],
                    max_message_bits=ledger.max_message_bits,
                    broadcasts=ledger.broadcasts - before[3],
                    engine=name,
                    kernel=kernel,
                )

    # ------------------------------------------------------------------
    # Fast engine
    # ------------------------------------------------------------------
    def _run_fast(self, max_rounds: int) -> CostLedger:
        compiled = self.network.compile()
        n = compiled.n
        order = compiled.order
        index = compiled.index
        neighbor_objects = compiled.neighbor_objects
        neighbor_sets = compiled.neighbor_sets
        neighbor_id_tuples = compiled.neighbor_id_tuples
        degrees = compiled.degrees
        programs = [self.programs[node] for node in order]
        on_rounds = [program.on_round for program in programs]
        has_edge = self.network.has_edge

        observer = self.observer
        stop_when = self.stop_when
        ledger = self.ledger
        # LocalModel accepts everything; skip the per-message call.
        bandwidth = self.bandwidth
        local = type(bandwidth) is LocalModel
        check = None if local else bandwidth.check
        check_fanout = None if local else bandwidth.check_fanout

        # Double-buffered per-node inboxes, allocated once.  ``touched``
        # lists the ids whose buffer is non-empty so end-of-round cleanup
        # is O(deliveries), not O(n).  Duplicate ids are allowed (the
        # broadcast fan-out bulk-extends them); clearing twice is free.
        inboxes: List[List[Message]] = [[] for _ in range(n)]
        pending: List[List[Message]] = [[] for _ in range(n)]
        inbox_touched: List[int] = []
        pending_touched: List[int] = []
        pending_count = 0

        # Per-node tuples of the neighbors' bound ``list.append`` methods,
        # one per buffer: a broadcast appends straight into its receivers'
        # boxes with no per-copy indexing, emptiness test, or attribute
        # lookup.
        inbox_boxes = tuple(
            tuple(inboxes[j].append for j in neighbor_id_tuples[i])
            for i in range(n)
        )
        pending_boxes = tuple(
            tuple(pending[j].append for j in neighbor_id_tuples[i])
            for i in range(n)
        )

        # Dense ids of non-halted nodes, kept in network order so message
        # buffers fill in the same order as the reference engine.
        active: List[int] = list(range(n))

        # With no per-round consumers, whole-run totals are charged in one
        # batch; otherwise the ledger advances round by round (an observer
        # or oracle may read it between rounds).
        batch = observer is None and stop_when is None
        batch_rounds = 0
        batch_messages = 0
        batch_bits = 0
        batch_max_bits = 0
        batch_broadcasts = 0

        # One context object serves every on_round call: a RoundContext
        # is only valid for the duration of the call it is passed to (see
        # its docstring), so the fast engine recycles a single instance
        # instead of allocating n of them per round.
        ctx = RoundContext(None, (), 0, ())
        ctx_outbox = ctx.outbox

        round_number = 0
        try:
            while active or pending_count:
                if round_number >= max_rounds:
                    raise RoundLimitExceeded(max_rounds, len(active))
                round_number += 1

                # Last round's sends become this round's inboxes; the
                # drained buffers are reused for this round's sends.
                inboxes, pending = pending, inboxes
                inbox_boxes, pending_boxes = pending_boxes, inbox_boxes
                inbox_touched, pending_touched = pending_touched, inbox_touched
                pending_count = 0

                round_messages = 0
                round_bits = 0
                round_max_bits = 0
                round_broadcasts = 0
                # Observer feed: ``(envelope, copies)`` pairs, expanded
                # lazily by the observer instead of materializing one
                # list entry per delivered broadcast copy.
                sent_this_round: Optional[List[Tuple[Message, int]]] = (
                    [] if observer is not None else None
                )
                halted_this_round: List[Node] = []
                next_active: List[int] = []

                # Rebound once per round: these lists are either fresh or
                # were just swapped, and attribute lookups inside the node
                # loop are measurable at this scale.
                touched_extend = pending_touched.extend
                touched_append = pending_touched.append
                halted_append = halted_this_round.append
                next_active_append = next_active.append

                ctx.round_number = round_number
                for i in active:
                    node = order[i]
                    ctx.node = node
                    ctx.neighbors = neighbor_objects[i]
                    # The live buffer is handed over uncopied: it is not
                    # mutated until end-of-round cleanup, and the context
                    # contract forbids keeping it past the call.
                    ctx.inbox = inboxes[i]
                    ctx.halted = False
                    on_rounds[i](ctx)
                    if not ctx_outbox:
                        if ctx.halted:
                            halted_append(node)
                        else:
                            next_active_append(i)
                        continue
                    for message in ctx_outbox:
                        if message.__class__ is Broadcast:
                            # One shared envelope fans out by reference
                            # over the CSR row; accounting is analytic
                            # (count * size), bit-identical to charging
                            # each copy as the reference engine does.
                            if message.sender is not node \
                                    and message.sender != node:
                                raise NetworkError(
                                    f"{message.sender!r} queued a broadcast "
                                    f"from {node!r}'s outbox"
                                )
                            round_broadcasts += 1
                            copies = degrees[i]
                            if not copies:
                                continue
                            if check_fanout is not None:
                                check_fanout(message, copies)
                            for deliver in pending_boxes[i]:
                                deliver(message)
                            touched_extend(neighbor_id_tuples[i])
                            round_messages += copies
                            bits = message._size_cache
                            if bits is None:
                                bits = message.size_bits
                            round_bits += copies * bits
                            if bits > round_max_bits:
                                round_max_bits = bits
                            if sent_this_round is not None:
                                sent_this_round.append((message, copies))
                            continue
                        # ctx.send stamps the node itself as sender; only
                        # hand-built envelopes take the general check.
                        if not (message.sender is node
                                and message.receiver in neighbor_sets[i]) \
                                and not has_edge(message.sender,
                                                 message.receiver):
                            raise NetworkError(
                                f"{message.sender!r} tried to message "
                                f"non-neighbor {message.receiver!r}"
                            )
                        if check is not None:
                            check(message)
                        receiver_id = index[message.receiver]
                        box = pending[receiver_id]
                        if not box:
                            touched_append(receiver_id)
                        box.append(message)
                        round_messages += 1
                        bits = message.size_bits
                        round_bits += bits
                        if bits > round_max_bits:
                            round_max_bits = bits
                        if sent_this_round is not None:
                            sent_this_round.append((message, 1))
                    ctx_outbox.clear()
                    if ctx.halted:
                        halted_append(node)
                    else:
                        next_active_append(i)
                active = next_active
                # Every send this round landed in a pending buffer, so the
                # in-flight count *is* the round's message count.
                pending_count = round_messages

                # Drop consumed inboxes (including late messages to nodes
                # that halted; as in the reference engine they are counted,
                # trigger one more round, and are never delivered).
                # Broadcast fan-out records one touched id per copy, so in
                # dense rounds the touched list (duplicates included) can
                # exceed n -- then sweeping every buffer is cheaper.
                if len(inbox_touched) > n:
                    for box in inboxes:
                        box.clear()
                else:
                    for i in inbox_touched:
                        inboxes[i].clear()
                del inbox_touched[:]

                if batch:
                    batch_rounds += 1
                    batch_messages += round_messages
                    batch_bits += round_bits
                    batch_broadcasts += round_broadcasts
                    if round_max_bits > batch_max_bits:
                        batch_max_bits = round_max_bits
                else:
                    ledger.charge_round(
                        messages=round_messages,
                        bits=round_bits,
                        max_message_bits=round_max_bits,
                        broadcasts=round_broadcasts,
                    )
                    if observer is not None:
                        observer.on_round(
                            round_number, sent_this_round, halted_this_round
                        )
                    if stop_when is not None and stop_when(self.programs):
                        break
        finally:
            # Completed rounds are charged even when a program or check
            # raises mid-run, exactly as the reference engine does.
            if batch_rounds:
                ledger.charge_batch(
                    batch_rounds,
                    messages=batch_messages,
                    bits=batch_bits,
                    max_message_bits=batch_max_bits,
                    broadcasts=batch_broadcasts,
                )
        self.rounds_executed = round_number
        return ledger

    # ------------------------------------------------------------------
    # Vectorized engine
    # ------------------------------------------------------------------
    def _run_vectorized(self, max_rounds: int) -> CostLedger:
        """Batched array-at-a-time execution for homogeneous populations.

        Eligibility is checked here, once per run: a uniform program
        class with a registered :class:`~repro.sim.kernels.RoundKernel`
        whose ``prepare`` accepts the population.  Everything else --
        mixed classes, unregistered programs, kernels that decline,
        observers and stop oracles (which need per-node, per-round
        granularity) -- falls back to :meth:`_run_fast`, which handles
        any population with identical semantics.
        """
        # Local imports: avoid an import cycle with the kernel layer.
        from .kernels import _record_fallback, _record_hit, kernel_for

        def fall_back(reason: str, warmup_s: float = 0.0) -> CostLedger:
            self.dispatch_info = _record_fallback(reason, warmup_s)
            return self._run_fast(max_rounds)

        if self.observer is not None:
            return fall_back("observer")
        if self.stop_when is not None:
            return fall_back("stop_when")
        programs_map = self.programs
        if not programs_map:
            return fall_back("empty")
        iterator = iter(programs_map.values())
        cls = next(iterator).__class__
        for program in iterator:
            if program.__class__ is not cls:
                return fall_back("mixed")
        factory = kernel_for(cls)
        if factory is None:
            return fall_back("unregistered")

        compiled = self.network.compile()
        programs = [programs_map[node] for node in compiled.order]
        kernel = factory()
        warmup_start = time.perf_counter()
        columns = kernel.prepare(compiled, programs, self.bandwidth)
        warmup_s = time.perf_counter() - warmup_start
        if columns is None:
            return fall_back("declined", warmup_s)
        self.dispatch_info = _record_hit(
            type(kernel).__name__, warmup_s,
            getattr(kernel, "backend", "python"))

        ledger = self.ledger
        step = kernel.step
        rounds = 0
        messages = 0
        bits = 0
        max_bits = 0
        broadcasts = 0
        inboxes = None
        active = len(programs)
        round_number = 0
        try:
            while True:
                if round_number >= max_rounds:
                    raise RoundLimitExceeded(max_rounds, active)
                round_number += 1
                result = step(round_number, columns, inboxes)
                rounds += 1
                messages += result.messages
                bits += result.bits
                broadcasts += result.broadcasts
                if result.max_message_bits > max_bits:
                    max_bits = result.max_message_bits
                active = result.active
                inboxes = result.outboxes
                if not active and not result.messages:
                    break
        finally:
            # Completed rounds are charged even when a kernel step
            # raises mid-run, exactly as the per-node engines do (a
            # raising step leaves its own round uncharged).
            if rounds:
                ledger.charge_batch(
                    rounds,
                    messages=messages,
                    bits=bits,
                    max_message_bits=max_bits,
                    broadcasts=broadcasts,
                )
        kernel.finalize(columns, programs)
        self.rounds_executed = round_number
        return ledger

    # ------------------------------------------------------------------
    # Sharded engine
    # ------------------------------------------------------------------
    def _run_sharded(self, max_rounds: int) -> CostLedger:
        """Partitioned multi-worker execution of one run.

        Eligible homogeneous populations (see
        :func:`repro.sim.sharded.register_sharded`) execute shard-wise
        -- in parallel worker processes with per-round halo exchange on
        large CSR-direct topologies, serially in-process otherwise --
        byte-identical to the serial engines.  Everything else falls
        through to :meth:`_run_vectorized` and its fallback chain, so
        ``engine="sharded"`` is always safe to request.
        """
        # Local import: the sharded module imports kernel-layer helpers.
        from .sharded import run_sharded

        return run_sharded(self, max_rounds)

    # ------------------------------------------------------------------
    # Reference engine
    # ------------------------------------------------------------------
    def _run_reference(self, max_rounds: int) -> CostLedger:
        """The seed scheduler loop, kept as the executable specification."""
        halted: Dict[Node, bool] = {node: False for node in self.network}
        pending: Dict[Node, List[Message]] = {node: [] for node in self.network}
        in_flight = 0
        round_number = 0
        while True:
            active = [node for node in self.network if not halted[node]]
            if not active and not in_flight:
                break
            if round_number >= max_rounds:
                raise RoundLimitExceeded(max_rounds, len(active))
            round_number += 1

            inboxes = pending
            pending = {node: [] for node in self.network}
            in_flight = 0
            round_messages = 0
            round_bits = 0
            round_max_bits = 0
            round_broadcasts = 0
            sent_this_round: List[Message] = []
            halted_this_round: List[Node] = []

            for node in self.network:
                if halted[node]:
                    # Late messages to a halted node are dropped; the
                    # protocols in this repo never rely on them.
                    continue
                ctx = RoundContext(
                    node=node,
                    neighbors=self.network.neighbors(node),
                    round_number=round_number,
                    inbox=tuple(inboxes[node]),
                )
                self.programs[node].on_round(ctx)
                for message in ctx.outbox:
                    if message.__class__ is Broadcast:
                        # The model definition of a broadcast: the same
                        # envelope is sent to each neighbor in neighbor
                        # order, each copy checked and charged like an
                        # individual point-to-point message.
                        if message.sender is not node \
                                and message.sender != node:
                            raise NetworkError(
                                f"{message.sender!r} queued a broadcast "
                                f"from {node!r}'s outbox"
                            )
                        round_broadcasts += 1
                        for neighbor in self.network.neighbors(node):
                            self.bandwidth.check(message)
                            pending[neighbor].append(message)
                            in_flight += 1
                            round_messages += 1
                            bits = message.size_bits
                            round_bits += bits
                            if bits > round_max_bits:
                                round_max_bits = bits
                            if self.observer is not None:
                                sent_this_round.append(message)
                        continue
                    if not self.network.has_edge(message.sender, message.receiver):
                        raise NetworkError(
                            f"{message.sender!r} tried to message non-neighbor "
                            f"{message.receiver!r}"
                        )
                    self.bandwidth.check(message)
                    pending[message.receiver].append(message)
                    in_flight += 1
                    round_messages += 1
                    bits = message.size_bits
                    round_bits += bits
                    if bits > round_max_bits:
                        round_max_bits = bits
                    if self.observer is not None:
                        sent_this_round.append(message)
                if ctx.halted:
                    halted[node] = True
                    halted_this_round.append(node)

            self.ledger.charge_round(
                messages=round_messages,
                bits=round_bits,
                max_message_bits=round_max_bits,
                broadcasts=round_broadcasts,
            )
            if self.observer is not None:
                self.observer.on_round(
                    round_number, sent_this_round, halted_this_round
                )
            if self.stop_when is not None and self.stop_when(self.programs):
                break
        self.rounds_executed = round_number
        return self.ledger

    def outputs(self) -> Dict[Node, object]:
        """Collect every node's declared output."""
        return {node: program.output() for node, program in self.programs.items()}


def run_protocol(network: Network,
                 programs: Mapping[Node, NodeProgram],
                 bandwidth: Optional[BandwidthModel] = None,
                 ledger: Optional[CostLedger] = None,
                 max_rounds: int = DEFAULT_MAX_ROUNDS,
                 stop_when=None,
                 engine: Optional[str] = None
                 ) -> Tuple[Dict[Node, object], CostLedger]:
    """Convenience wrapper: run to quiescence and return (outputs, ledger)."""
    scheduler = Scheduler(
        network, programs, bandwidth=bandwidth, ledger=ledger,
        stop_when=stop_when,
    )
    scheduler.run(max_rounds=max_rounds, engine=engine)
    return scheduler.outputs(), scheduler.ledger
