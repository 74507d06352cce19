"""Vectorized round kernels: array-at-a-time execution of node programs.

The fast engine still pays one Python ``on_round`` call per node per
round.  On the paper's core workloads that dispatch is the dominant
remaining cost, and it is pure overhead: the populations are *perfectly
homogeneous* -- every node runs the same Linial-style color-reduction
step on data-only state.  A :class:`RoundKernel` exploits that by
executing one whole round for the entire population as a handful of
array/list "column" updates over the CSR rows of a
:class:`~repro.sim.compiled.CompiledNetwork`, the way a training stack
batches identical per-example programs into one kernel launch.

The contract mirrors the scheduler's engine contract: a kernel must be
*observationally identical* to running its program class through the
reference engine -- same outputs, same rounds/messages/bits/broadcast
totals (bit-identical ledgers), same exceptions in the same node order,
with and without a CONGEST bandwidth model.  The equivalence suite
(``tests/sim/test_engine_equivalence.py``) enforces this three-ways
(reference vs fast vs vectorized).

Lifecycle, driven by ``Scheduler._run_vectorized``:

1. the scheduler detects a *uniform* program population (every program
   is exactly the same class) with a registered kernel; anything else
   falls back to the fast engine;
2. ``kernel.prepare(compiled, programs, bandwidth)`` builds the column
   state (or returns ``None`` to decline -- e.g. heterogeneous
   parameters -- which also falls back);
3. ``kernel.step(round_number, columns, inboxes)`` executes one whole
   synchronous round and returns a :class:`KernelRound` with the
   round's ledger charges; ``inboxes`` is whatever the previous step
   returned as ``outboxes`` (a kernel-private representation of the
   in-flight messages -- most kernels keep the "messages" implicit in
   their columns and leave it ``None``);
4. ``kernel.finalize(columns, programs)`` writes the terminal state
   back into the program objects so ``Scheduler.outputs()`` and
   protocol wrappers see exactly what a per-node run would have left.

Kernels are registered per *exact* program class (subclasses may
override ``on_round`` arbitrarily, so they never inherit a kernel):
the substrate that defines a program registers its kernel next to it
(see ``repro.substrates.algebraic`` and ``repro.substrates.greedy``),
and benchmarks register kernels for their synthetic stress programs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..obs import metrics as obs_metrics
from .compiled import CompiledNetwork
from .congest import BandwidthModel

#: A kernel factory: called once per run to get a fresh kernel instance.
KernelFactory = Callable[[], "RoundKernel"]


class KernelRound:
    """What one vectorized round produced, in ledger terms.

    ``messages``/``bits``/``max_message_bits``/``broadcasts`` are exactly
    the amounts the reference engine would charge for the round.
    ``active`` is the number of non-halted nodes *after* the round, and
    ``outboxes`` is handed back to the kernel as the next step's
    ``inboxes`` -- the scheduler never looks inside it.  The run ends
    after a round with ``active == 0`` and ``messages == 0`` (nothing
    left to schedule and nothing in flight), matching the reference
    engine's quiescence rule.
    """

    __slots__ = ("outboxes", "messages", "bits", "max_message_bits",
                 "broadcasts", "active")

    def __init__(self, active: int, messages: int = 0, bits: int = 0,
                 max_message_bits: int = 0, broadcasts: int = 0,
                 outboxes: Any = None):
        self.active = active
        self.messages = messages
        self.bits = bits
        self.max_message_bits = max_message_bits
        self.broadcasts = broadcasts
        self.outboxes = outboxes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KernelRound(active={self.active}, "
                f"messages={self.messages}, bits={self.bits})")


class RoundKernel(ABC):
    """Array-at-a-time executor for one homogeneous program class.

    A kernel instance lives for one scheduler run.  Implementations own
    the representation of their column state entirely; the scheduler
    only threads the opaque ``columns`` (from :meth:`prepare`) and
    ``outboxes`` (from each :meth:`step`) values back in.

    ``backend`` names the column representation the kernel settled on
    during :meth:`prepare` -- ``"python"`` (the default: plain
    list/tuple columns) or ``"numpy"`` when the kernel engaged the
    optional ndarray backend (:mod:`repro.sim.arrays`).  The scheduler
    reads it after ``prepare`` for the dispatch statistics and trace
    spans; the choice never changes results, only the representation.
    """

    #: Column representation chosen by ``prepare`` (diagnostics only).
    backend: str = "python"

    @abstractmethod
    def prepare(self, compiled: CompiledNetwork,
                programs: Sequence[Any],
                bandwidth: BandwidthModel) -> Optional[Any]:
        """Build column state for ``programs`` (one per dense id, in
        ``compiled.order``), or return ``None`` to decline the run.

        Declining is always safe: the scheduler falls back to the fast
        engine, which handles any population.  Kernels must decline
        whatever they do not model exactly -- heterogeneous parameters,
        programs with pre-existing state, and so on.
        """

    @abstractmethod
    def step(self, round_number: int, columns: Any,
             inboxes: Any) -> KernelRound:
        """Execute synchronous round ``round_number`` for all nodes.

        ``inboxes`` is the previous step's ``outboxes`` (``None`` on
        round 1).  Must raise exactly the exceptions the per-node run
        would raise, in the same node order; a raising step leaves the
        round uncharged, like a raising ``on_round``.
        """

    @abstractmethod
    def finalize(self, columns: Any, programs: Sequence[Any]) -> None:
        """Write terminal column state back into the program objects.

        At minimum everything ``NodeProgram.output()`` reads must be
        restored; kernels document any internal state they do not
        reconstruct.
        """


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_registry: Dict[type, KernelFactory] = {}


def register_kernel(program_class: type, factory: KernelFactory,
                    replace: bool = False) -> None:
    """Map ``program_class`` (exactly; subclasses excluded) to a kernel.

    ``factory`` is called once per scheduler run and must return a fresh
    :class:`RoundKernel` (a kernel class itself is the usual factory).
    Registering a class twice raises ``ValueError`` unless ``replace``
    is set -- a silent overwrite could change which semantics a running
    benchmark measures.
    """
    if not isinstance(program_class, type):
        raise TypeError(
            f"program_class must be a class, got {program_class!r}"
        )
    if not replace and program_class in _registry:
        raise ValueError(
            f"a kernel is already registered for {program_class.__name__}; "
            f"pass replace=True to override it"
        )
    _registry[program_class] = factory


def unregister_kernel(program_class: type) -> bool:
    """Remove the kernel for ``program_class``; True if one was registered."""
    return _registry.pop(program_class, None) is not None


def kernel_for(program_class: type) -> Optional[KernelFactory]:
    """The registered factory for exactly ``program_class``, or ``None``."""
    return _registry.get(program_class)


def registered_kernels() -> Tuple[type, ...]:
    """The program classes that currently have kernels (diagnostics)."""
    return tuple(_registry)


# ----------------------------------------------------------------------
# Process-level kernel statistics
#
# The vectorized engine falls back to the fast engine *silently* -- by
# design (the results are identical), but silently is exactly how a
# benchmark ends up measuring the wrong code path.  The scheduler
# records every eligibility decision in the process metrics registry so
# sweep reports and the CLI can surface whether runs actually went
# through a kernel, which kernel, how long ``prepare`` (the warmup)
# took, and why any run fell back.
# ----------------------------------------------------------------------
def kernel_stats(snap: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, Any]:
    """This process's kernel-dispatch counts, read from the registry.

    ``runs = hits + fallbacks``; ``warmup_s`` accumulates the wall-clock
    spent in ``prepare`` (including declined prepares, which also pay
    it); ``by_kernel`` maps kernel class names to hit counts,
    ``by_reason`` maps fallback reasons (``observer`` / ``stop_when`` /
    ``empty`` / ``mixed`` / ``unregistered`` / ``declined``) to counts,
    and ``by_backend`` maps ``"KernelName[backend]"`` to hit counts so
    operators can see which column representation
    (:mod:`repro.sim.arrays`) each kernel actually ran on.

    ``snap`` reads a registry snapshot or delta (a sweep worker's, a
    request's) instead of the live registry.  Zero them with
    :func:`repro.obs.metrics.reset_metrics`.
    """
    if snap is None:
        snap = obs_metrics.snapshot()
    values = obs_metrics.sample_values
    dispatch = values(snap, "repro_kernel_dispatch_total")
    hits = int(dispatch.get(("hit",), 0))
    fallbacks = int(dispatch.get(("fallback",), 0))
    by_kernel: Dict[str, int] = {}
    by_backend: Dict[str, int] = {}
    for (kernel, backend), count in values(
            snap, "repro_kernel_hits_total").items():
        by_kernel[kernel] = by_kernel.get(kernel, 0) + int(count)
        by_backend[f"{kernel}[{backend}]"] = int(count)
    return {
        "runs": hits + fallbacks,
        "hits": hits,
        "fallbacks": fallbacks,
        "warmup_s": values(
            snap, "repro_kernel_warmup_seconds_total").get((), 0.0),
        "by_kernel": by_kernel,
        "by_reason": {
            reason: int(count) for (reason,), count in values(
                snap, "repro_kernel_fallbacks_total").items()
        },
        "by_backend": by_backend,
    }


def _record_warmup(warmup_s: float) -> None:
    if warmup_s:
        obs_metrics.counter(
            "repro_kernel_warmup_seconds_total",
            "Wall-clock spent in kernel prepare()",
        ).inc(warmup_s)


def _record_hit(kernel_name: str, warmup_s: float,
                backend: str = "python") -> Dict[str, Any]:
    """Count one kernel execution; returns the run's dispatch outcome
    (what a traced run annotates)."""
    obs_metrics.counter(
        "repro_kernel_dispatch_total",
        "Vectorized-engine dispatch decisions", ("outcome",),
    ).labels(outcome="hit").inc()
    obs_metrics.counter(
        "repro_kernel_hits_total",
        "Kernel executions by kernel class and backend",
        ("kernel", "backend"),
    ).labels(kernel=kernel_name, backend=backend).inc()
    _record_warmup(warmup_s)
    return {"kernel": kernel_name, "backend": backend, "fallback": None,
            "warmup_s": warmup_s}


def _record_fallback(reason: str, warmup_s: float = 0.0
                     ) -> Dict[str, Any]:
    """Count one fallback to the fast engine; returns the run's
    dispatch outcome."""
    obs_metrics.counter(
        "repro_kernel_dispatch_total",
        "Vectorized-engine dispatch decisions", ("outcome",),
    ).labels(outcome="fallback").inc()
    obs_metrics.counter(
        "repro_kernel_fallbacks_total",
        "Kernel fallbacks by reason", ("reason",),
    ).labels(reason=reason).inc()
    _record_warmup(warmup_s)
    return {"kernel": None, "backend": None, "fallback": reason,
            "warmup_s": warmup_s}


# ----------------------------------------------------------------------
# Shared helpers for kernel implementations
# ----------------------------------------------------------------------
def fanout_totals(compiled: CompiledNetwork) -> Tuple[int, int]:
    """``(total_copies, envelopes)`` of one all-node broadcast round.

    ``total_copies`` is the sum of degrees; ``envelopes`` counts the
    nodes that actually queue one (``ctx.broadcast`` with no neighbors
    queues nothing, so zero-degree nodes send -- and count -- nothing).
    """
    degrees = compiled.degrees
    total = 0
    envelopes = 0
    for d in degrees:
        if d:
            total += d
            envelopes += 1
    return total, envelopes
