"""Greedy coloring algorithms: sequential baselines and distributed sweeps.

Three roles in the reproduction:

* sequential greedy algorithms are the textbook baselines the paper's
  introduction cites (greedy ``(Delta+1)``-coloring, the d-defective
  ``O(theta * Delta / d)``-coloring of the bounded-neighborhood-
  independence discussion, arbdefective greedy);
* :func:`greedy_arbdefective_sweep` is the distributed "process color
  classes in order" solver -- by weighted pigeonhole it solves *any* list
  arbdefective instance with slack above 1 in O(q) rounds, and serves as
  the universal correct fallback at the base of the Section 4 recursion;
* :func:`greedy_color_reduction` is the standard one-color-per-round
  reduction that turns Linial's O(Delta^2) colors into ``Delta + 1``.
"""

from __future__ import annotations

import random as _random
import time
from array import array
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..coloring.instance import ArbdefectiveInstance
from ..coloring.result import ColoringResult
from ..sim import arrays
from ..sim.compiled import ColorColumn, color_column, int_column
from ..sim.congest import BandwidthModel, LocalModel
from ..sim.errors import (
    AlgorithmFailure,
    InfeasibleInstanceError,
    InstanceError,
)
from ..sim.kernels import KernelRound, RoundKernel, fanout_totals, register_kernel
from ..sim.message import Message, color_bits, intern_broadcast
from ..sim.sharded import ShardSpec, register_sharded
from ..sim.metrics import CostLedger, ensure_ledger
from ..sim.network import Network
from ..sim.node import NodeProgram, RoundContext
from ..sim.scheduler import default_engine, run_columns, run_protocol

Node = Hashable
Color = int


# ----------------------------------------------------------------------
# Sequential baselines
# ----------------------------------------------------------------------
def sequential_greedy_coloring(network: Network,
                               order: Optional[Sequence[Node]] = None
                               ) -> Dict[Node, Color]:
    """The sequential greedy ``(Delta + 1)``-coloring."""
    order = list(order) if order is not None else list(network.nodes)
    colors: Dict[Node, Color] = {}
    for node in order:
        used = {
            colors[neighbor]
            for neighbor in network.neighbors(node)
            if neighbor in colors
        }
        color = 0
        while color in used:
            color += 1
        colors[node] = color
    return colors


def sequential_greedy_defective(network: Network, num_colors: int,
                                order: Optional[Sequence[Node]] = None
                                ) -> Dict[Node, Color]:
    """Greedy defective coloring: pick the color minimizing conflicts so far.

    On a graph of neighborhood independence ``theta`` this is the greedy
    algorithm of the paper's introduction: each node has at most
    ``floor(Delta / num_colors)`` *earlier* same-colored neighbors, and by
    Claim 4.1 at most ``(2 * floor(Delta/num_colors) + 1) * theta``
    same-colored neighbors overall.
    """
    if num_colors < 1:
        raise InstanceError("need at least one color")
    order = list(order) if order is not None else list(network.nodes)
    colors: Dict[Node, Color] = {}
    for node in order:
        counts = [0] * num_colors
        for neighbor in network.neighbors(node):
            if neighbor in colors:
                counts[colors[neighbor]] += 1
        colors[node] = min(range(num_colors), key=lambda c: (counts[c], c))
    return colors


def sequential_greedy_arbdefective(network: Network, num_colors: int,
                                   order: Optional[Sequence[Node]] = None
                                   ) -> Tuple[Dict[Node, Color],
                                              Dict[Node, Tuple[Node, ...]]]:
    """Greedy arbdefective coloring with the towards-earlier orientation.

    Returns ``(colors, orientation)`` where each node's monochromatic
    out-neighbors are the *earlier* same-colored neighbors; their count is
    at most ``floor(deg(v) / num_colors)``, matching the classic
    ``ceil((Delta+1)/(d+1))``-color greedy arbdefective bound.
    """
    colors = sequential_greedy_defective(network, num_colors, order)
    position = {
        node: index
        for index, node in enumerate(
            order if order is not None else list(network.nodes)
        )
    }
    orientation = {
        node: tuple(
            neighbor
            for neighbor in network.neighbors(node)
            if colors[neighbor] == colors[node]
            and position[neighbor] < position[node]
        )
        for node in network
    }
    return colors, orientation


def lovasz_defective_partition(network: Network, num_classes: int,
                               seed: int = 0,
                               max_moves: Optional[int] = None
                               ) -> Dict[Node, Color]:
    """The [Lov66] local-search defective partition.

    Every graph has a partition into ``k`` classes in which each node has
    at most ``floor(deg(v) / k)`` same-class neighbors: start from any
    partition and repeatedly move a violating node to its least-conflicted
    class -- each move strictly decreases the number of monochromatic
    edges, so the search terminates.  This is the ``d``-defective
    ``ceil((Delta+1)/(d+1))``-coloring existence result the paper cites,
    and doubles as a ground-truth partition source for experiments.
    """
    if num_classes < 1:
        raise InstanceError("need at least one class")
    rng = _random.Random(seed)
    colors: Dict[Node, Color] = {
        node: rng.randrange(num_classes) for node in network
    }
    budget = max_moves if max_moves is not None else (
        10 * network.edge_count() * num_classes + 10 * len(network) + 10
    )
    moves = 0
    while moves <= budget:
        moved = False
        for node in network:
            counts = [0] * num_classes
            for neighbor in network.neighbors(node):
                counts[colors[neighbor]] += 1
            best = min(range(num_classes), key=lambda c: (counts[c], c))
            threshold = network.degree(node) // num_classes
            if counts[colors[node]] > threshold and (
                    counts[best] < counts[colors[node]]):
                colors[node] = best
                moved = True
                moves += 1
        if not moved:
            break
    return colors


# ----------------------------------------------------------------------
# Distributed greedy sweep for list arbdefective instances
# ----------------------------------------------------------------------
class _GreedySweepProgram(NodeProgram):
    """Color class ``c`` decides in round ``c + 2`` (after the ID round)."""

    _TAG_INITIAL = "sweep-initial"
    _TAG_FINAL = "sweep-final"

    def __init__(self, node: Node, initial_color: Color, q: int,
                 color_list: Tuple[Color, ...],
                 defect_fn: Mapping[Color, int],
                 color_space_size: int):
        self.node = node
        self.initial_color = initial_color
        self.q = q
        self.color_list = color_list
        self.defect_fn = dict(defect_fn)
        self.color_space_size = color_space_size
        self.neighbor_initial: Dict[Node, Color] = {}
        self.decided: Dict[Node, Color] = {}
        self.final_color: Optional[Color] = None
        self.mono_out: Tuple[Node, ...] = ()

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round_number == 1:
            ctx.broadcast(
                self._TAG_INITIAL, self.initial_color, bits=color_bits(self.q)
            )
            return
        for sender, payload in ctx.received(self._TAG_INITIAL).items():
            self.neighbor_initial[sender] = payload
        for sender, payload in ctx.received(self._TAG_FINAL).items():
            self.decided[sender] = payload
        if ctx.round_number != self.initial_color + 2:
            return
        counts = {color: 0 for color in self.color_list}
        for neighbor_color in self.decided.values():
            if neighbor_color in counts:
                counts[neighbor_color] += 1
        chosen = None
        for color in sorted(self.color_list):
            if counts[color] <= self.defect_fn[color]:
                chosen = color
                break
        if chosen is None:
            raise AlgorithmFailure(
                f"node {self.node!r}: greedy sweep found no feasible color; "
                f"the instance's slack must be at most 1"
            )
        self.final_color = chosen
        self.mono_out = tuple(
            neighbor
            for neighbor, neighbor_color in self.decided.items()
            if neighbor_color == chosen
        )
        for neighbor in ctx.neighbors:
            if self.neighbor_initial[neighbor] > self.initial_color:
                ctx.send(
                    neighbor,
                    self._TAG_FINAL,
                    chosen,
                    bits=color_bits(self.color_space_size),
                )
        ctx.halt()

    def output(self):
        return (self.final_color, self.mono_out)


class _GreedySweepKernel(RoundKernel):
    """Array-at-a-time greedy sweep: one column pass per color class.

    The sweep is homogeneous in everything but each node's list/defect
    data: round 1 is one uniform broadcast, and in round ``c + 2``
    exactly the class-``c`` nodes decide from their lower-class
    neighbors' finals.  The kernel buckets nodes by class once, sorts
    each node's lower neighbors into the order the per-node ``decided``
    dict would acquire them (class ascending, then sender processing
    order), and then each round touches only that round's deciders --
    idle "waiting" classes cost nothing, where the per-node engines
    still dispatch an ``on_round`` no-op for every active node.

    Declines non-uniform ``q``/``color_space_size``, mid-run state, and
    negative classes (which never decide; the fast engine reproduces
    the reference's run-forever semantics).  ``finalize`` restores
    ``final_color`` and ``mono_out``; the transient ``neighbor_initial``
    / ``decided`` ingest dicts are not reconstructed.
    """

    def prepare(self, compiled, programs, bandwidth):
        first = programs[0]
        q = first.q
        color_space_size = first.color_space_size
        for program in programs:
            if (program.q != q
                    or program.color_space_size != color_space_size
                    or program.final_color is not None
                    or program.neighbor_initial or program.decided
                    or program.initial_color < 0):
                return None
        order = compiled.order
        indptr = compiled.indptr
        indices = compiled.indices
        initial = [program.initial_color for program in programs]
        lower = []
        higher = []
        by_class: Dict[int, list] = {}
        for i, own in enumerate(initial):
            row = indices[indptr[i]:indptr[i + 1]]
            # ``decided`` fills class-ascending (class c's finals arrive
            # in round c + 3), then in sender processing order within a
            # round -- i.e. dense-id ascending.
            lower.append(sorted(
                (j for j in row if initial[j] < own),
                key=lambda j: (initial[j], j),
            ))
            higher.append(tuple(j for j in row if initial[j] > own))
            by_class.setdefault(own, []).append(i)
        total_copies, envelopes = fanout_totals(compiled)
        sorted_lists = [sorted(p.color_list) for p in programs]
        state = self._prepare_arrays(programs, sorted_lists, lower)
        return {
            "programs": programs,
            "order": order,
            "initial": initial,
            "sorted_lists": sorted_lists,
            "arrays": state,
            "lower": lower,
            "higher": higher,
            "by_class": by_class,
            "finals": [None] * len(programs),
            "mono": [()] * len(programs),
            "remaining": len(programs),
            "total_copies": total_copies,
            "envelopes": envelopes,
            "bits_initial": color_bits(q),
            "bits_final": color_bits(color_space_size),
            "check": (None if type(bandwidth) is LocalModel
                      else bandwidth.check),
            "check_fanout": (None if type(bandwidth) is LocalModel
                             else bandwidth.check_fanout),
            "degrees": compiled.degrees,
        }

    def _prepare_arrays(self, programs, sorted_lists, lower):
        """NumPy column state for the tally path, or ``None`` to decline.

        The array path keeps an int64 mirror of the finals column (``-1``
        marks undecided) so a decider with a long lower-neighbor row can
        tally committed colors with one gather + sort-based count instead
        of a Python dict loop.  Small populations, color values beyond
        int64, and topologies where every lower row stays under
        ``MIN_TALLY`` (the mirror upkeep would never pay off) keep the
        pure-Python columns.
        """
        np = arrays.get_numpy()
        if np is None or len(programs) < arrays.MIN_BATCH:
            return None
        if not any(len(row) >= arrays.MIN_TALLY for row in lower):
            return None
        for colors in sorted_lists:
            if colors and not (-arrays.MAX_COLOR <= colors[0]
                               and colors[-1] <= arrays.MAX_COLOR):
                return None
        self.backend = "numpy"
        return {
            "np": np,
            "finals": np.full(len(programs), -1, dtype=np.int64),
        }

    def step(self, round_number, columns, inboxes) -> KernelRound:
        if round_number == 1:
            bits = columns["bits_initial"]
            check_fanout = columns["check_fanout"]
            if check_fanout is not None:
                order = columns["order"]
                initial = columns["initial"]
                for i, degree in enumerate(columns["degrees"]):
                    if degree:
                        check_fanout(
                            intern_broadcast(
                                order[i], _GreedySweepProgram._TAG_INITIAL,
                                initial[i], bits,
                            ),
                            degree,
                        )
            copies = columns["total_copies"]
            return KernelRound(
                active=columns["remaining"],
                messages=copies,
                bits=copies * bits,
                max_message_bits=bits if copies else 0,
                broadcasts=columns["envelopes"],
            )
        deciders = columns["by_class"].get(round_number - 2, ())
        finals = columns["finals"]
        if deciders:
            programs = columns["programs"]
            order = columns["order"]
            lower = columns["lower"]
            higher = columns["higher"]
            sorted_lists = columns["sorted_lists"]
            mono = columns["mono"]
            check = columns["check"]
            bits_final = columns["bits_final"]
        state = columns["arrays"]
        messages = 0
        for i in deciders:
            program = programs[i]
            row = lower[i]
            if state is not None and len(row) >= arrays.MIN_TALLY:
                # Long lower row: gather the committed finals once and
                # tally against the sorted candidate list in C.  Probing
                # the unique ascending candidates picks the same color as
                # the Python scan over the (possibly duplicated) list.
                np = state["np"]
                row_np = np.fromiter(row, np.int64, len(row))
                committed = state["finals"][row_np]
                slist = sorted_lists[i]
                candidates = np.unique(
                    np.fromiter(slist, np.int64, len(slist))
                )
                tallies = arrays.membership_counts(np, committed, candidates)
                chosen = None
                defect_fn = program.defect_fn
                for color, count in zip(candidates.tolist(),
                                        tallies.tolist()):
                    if count <= defect_fn[color]:
                        chosen = color
                        break
                mono_row = None if chosen is None else tuple(
                    order[j]
                    for j in row_np[committed == chosen].tolist()
                )
            else:
                counts = {color: 0 for color in program.color_list}
                for j in row:
                    neighbor_final = finals[j]
                    if neighbor_final in counts:
                        counts[neighbor_final] += 1
                chosen = None
                for color in sorted_lists[i]:
                    if counts[color] <= program.defect_fn[color]:
                        chosen = color
                        break
                mono_row = None if chosen is None else tuple(
                    order[j] for j in row if finals[j] == chosen
                )
            if chosen is None:
                raise AlgorithmFailure(
                    f"node {program.node!r}: greedy sweep found no "
                    f"feasible color; the instance's slack must be at "
                    f"most 1"
                )
            finals[i] = chosen
            if state is not None:
                state["finals"][i] = chosen
            mono[i] = mono_row
            if check is not None:
                sender = order[i]
                for j in higher[i]:
                    check(Message(
                        sender, order[j],
                        _GreedySweepProgram._TAG_FINAL, chosen, bits_final,
                    ))
            messages += len(higher[i])
        remaining = columns["remaining"] - len(deciders)
        columns["remaining"] = remaining
        bits_final = columns["bits_final"]
        return KernelRound(
            active=remaining,
            messages=messages,
            bits=messages * bits_final,
            max_message_bits=bits_final if messages else 0,
        )

    def finalize(self, columns, programs) -> None:
        finals = columns["finals"]
        mono = columns["mono"]
        for i, program in enumerate(programs):
            program.final_color = finals[i]
            program.mono_out = mono[i]


register_kernel(_GreedySweepProgram, _GreedySweepKernel)


def greedy_arbdefective_sweep(instance: ArbdefectiveInstance,
                              initial_colors: Mapping[Node, Color],
                              q: int,
                              ledger: Optional[CostLedger] = None,
                              bandwidth: Optional[BandwidthModel] = None,
                              check: bool = True) -> ColoringResult:
    """Solve any ``P_A`` instance with slack > 1 by one sweep over classes.

    When node ``v`` decides, at most ``deg(v)`` neighbors have committed,
    and ``sum_x (d_v(x)+1) > deg(v)`` guarantees (weighted pigeonhole) a
    color whose committed conflicts stay within its defect.  Monochromatic
    edges are oriented towards the earlier-deciding endpoint, so later
    decisions never hurt ``v``.  Rounds: ``q + 1``.
    """
    ledger = ensure_ledger(ledger)
    if check:
        for node in instance.network:
            color = initial_colors.get(node)
            if color is None or not 0 <= color < q:
                raise InstanceError(
                    f"node {node!r}: initial color {color!r} outside 0..{q - 1}"
                )
            if instance.weight(node) <= instance.network.degree(node):
                raise InfeasibleInstanceError(
                    node,
                    f"greedy sweep needs weight > deg: "
                    f"{instance.weight(node)} <= {instance.network.degree(node)}",
                )
        for u, v in instance.network.edges():
            if initial_colors[u] == initial_colors[v]:
                raise InstanceError(
                    f"initial coloring is not proper: edge {u!r}-{v!r}"
                )
    programs = {
        node: _GreedySweepProgram(
            node=node,
            initial_color=initial_colors[node],
            q=q,
            color_list=instance.lists[node],
            defect_fn=instance.defects[node],
            color_space_size=instance.color_space_size,
        )
        for node in instance.network
    }
    with ledger.phase("greedy-sweep"):
        outputs, _ = run_protocol(
            instance.network, programs, bandwidth=bandwidth, ledger=ledger
        )
    colors = {node: value[0] for node, value in outputs.items()}
    orientation = {node: value[1] for node, value in outputs.items()}
    return ColoringResult(colors=colors, orientation=orientation, ledger=ledger)


# ----------------------------------------------------------------------
# Color reduction
# ----------------------------------------------------------------------
class _ColorReductionProgram(NodeProgram):
    _TAG = "reduce-color"

    def __init__(self, node: Node, color: Color, q: int, target: int):
        self.node = node
        self.color = color
        self.q = q
        self.target = target
        self.neighbor_colors: Dict[Node, Color] = {}

    def on_round(self, ctx: RoundContext) -> None:
        if ctx.round_number == 1:
            ctx.broadcast(self._TAG, self.color, bits=color_bits(self.q))
            return
        for sender, payload in ctx.received(self._TAG).items():
            self.neighbor_colors[sender] = payload
        # Round t >= 2 handles old color q - t + 1.
        active_color = self.q - ctx.round_number + 1
        if active_color < self.target:
            ctx.halt()
            return
        if self.color == active_color:
            used = set(self.neighbor_colors.values())
            new_color = 0
            while new_color in used:
                new_color += 1
            if new_color >= self.target:
                raise AlgorithmFailure(
                    f"node {self.node!r}: no free color below {self.target}; "
                    f"target must be at least Delta + 1"
                )
            self.color = new_color
            ctx.broadcast(self._TAG, new_color, bits=color_bits(self.q))

    def output(self) -> Color:
        return self.color


class _ColorReductionKernel(RoundKernel):
    """Array-at-a-time one-color-per-round reduction.

    Round ``t`` retires old color ``q - t + 1``: only nodes *of that
    color* act, so the kernel buckets nodes by color once and each
    round touches one bucket -- the per-node engines dispatch an
    ``on_round`` ingest no-op to every other node, which on a
    ``q``-round reduction is almost all of the work.  Buckets keyed on
    the initial colors stay valid for the whole run: a recolored node
    lands below ``target``, and every later active color is at least
    ``target``.

    :meth:`from_columns` is the kernel's one entry: it takes the color
    column itself, so a caller holding colors as an array
    (:func:`greedy_color_reduction` on the vectorized engine) never
    builds a program object per node; :meth:`prepare` only reads the
    program objects into a column and calls it.  Under
    :class:`~repro.sim.congest.LocalModel` with the NumPy backend the
    column is an int64 ndarray and each round is one batched mex over
    the deciders' CSR rows (:func:`repro.sim.arrays.batched_mex`);
    otherwise it is an ``array('q')`` (or, from ``prepare``, a list
    keeping the programs' own color objects) and deciders run one at a
    time, in node order, with their CONGEST checks.

    Recolorings computed this round are applied to the column only at
    the round boundary: a node's broadcast is ingested by its neighbors
    one round later, so same-round deciders must read each other's
    *old* colors (the reference's stale-view semantics, observable on
    improper inputs).  ``prepare`` declines non-uniform ``q``/``target``
    and mid-run state; ``finalize`` restores ``color``, the transient
    ``neighbor_colors`` view is not reconstructed.
    """

    def prepare(self, compiled, programs, bandwidth):
        first = programs[0]
        q = first.q
        target = first.target
        for program in programs:
            if (program.q != q or program.target != target
                    or program.neighbor_colors):
                return None
        colors = [program.color for program in programs]
        column = int_column(colors)
        columns = self.from_columns(
            compiled, colors if column is None else column, q, target,
            bandwidth)
        columns["programs"] = programs
        return columns

    def from_columns(self, compiled, colors, q, target, bandwidth):
        """Column state for reducing ``colors`` (one per dense id, in
        ``compiled.order``; never modified) from ``q`` to ``target``.

        ``colors`` is an ``array('q')`` or int64 ndarray, or a list of
        color objects that are not all plain 64-bit ints (kept as they
        are, on the per-decider loop).
        """
        np = arrays.get_numpy()
        local = type(bandwidth) is LocalModel
        total_copies, envelopes = fanout_totals(compiled)
        columns = {
            "programs": None,
            "order": compiled.order,
            "q": q,
            "target": target,
            "bits": color_bits(q),
            "total_copies": total_copies,
            "envelopes": envelopes,
            "check_fanout": None if local else bandwidth.check_fanout,
        }
        if (np is not None and local and compiled.n >= arrays.MIN_BATCH
                and not isinstance(colors, list)):
            self.backend = "numpy"
            column = np.array(colors, dtype=np.int64)
            indptr, indices, degrees = compiled.numpy_views()
            deciding = np.flatnonzero((column >= target) & (column < q))
            # Stable: within one color, deciders stay in node order.
            deciding = deciding[np.argsort(column[deciding], kind="stable")]
            columns.update(np=np, colors=column, indptr=indptr,
                           indices=indices, degrees=degrees,
                           deciders=deciding,
                           decider_colors=column[deciding])
            return columns
        column = list(colors) if isinstance(colors, list) \
            else array("q", colors)
        by_color: Dict[int, list] = {}
        for i, color in enumerate(column):
            by_color.setdefault(color, []).append(i)
        # Deciders slice their CSR row on demand: each node decides
        # exactly once, so pre-materializing n row copies would only
        # double the topology's footprint at scale.
        columns.update(np=None, colors=column, indptr=compiled.indptr,
                       indices=compiled.indices, degrees=compiled.degrees,
                       by_color=by_color)
        return columns

    def step(self, round_number, columns, inboxes) -> KernelRound:
        colors = columns["colors"]
        bits = columns["bits"]
        if round_number == 1:
            check_fanout = columns["check_fanout"]
            if check_fanout is not None:
                order = columns["order"]
                for i, degree in enumerate(columns["degrees"]):
                    if degree:
                        check_fanout(
                            intern_broadcast(
                                order[i], _ColorReductionProgram._TAG,
                                colors[i], bits,
                            ),
                            degree,
                        )
            copies = columns["total_copies"]
            return KernelRound(
                active=len(colors),
                messages=copies,
                bits=copies * bits,
                max_message_bits=bits if copies else 0,
                broadcasts=columns["envelopes"],
            )
        target = columns["target"]
        active_color = columns["q"] - round_number + 1
        if active_color < target:
            return KernelRound(active=0)
        if columns["np"] is not None:
            messages, broadcasts = self._decide_batched(columns,
                                                        active_color)
        else:
            messages, broadcasts = self._decide_each(columns, active_color)
        return KernelRound(
            active=len(colors),
            messages=messages,
            bits=messages * bits,
            max_message_bits=bits if messages else 0,
            broadcasts=broadcasts,
        )

    @staticmethod
    def _fail(columns, i):
        programs = columns["programs"]
        node = programs[i].node if programs is not None \
            else columns["order"][i]
        return AlgorithmFailure(
            f"node {node!r}: no free color below {columns['target']}; "
            f"target must be at least Delta + 1"
        )

    def _decide_batched(self, columns, active_color):
        """Every decider of the round at once; returns ``(messages,
        broadcasts)``.  Deciders are sliced so each batch's temporaries
        stay within ``MAX_MATCH_ELEMENTS`` elements."""
        np = columns["np"]
        keys = columns["decider_colors"]
        lo = int(np.searchsorted(keys, active_color, side="left"))
        hi = int(np.searchsorted(keys, active_color, side="right"))
        if lo == hi:
            return 0, 0
        deciders = columns["deciders"][lo:hi]
        colors = columns["colors"]
        lengths = columns["degrees"][deciders]
        # Elements per batch: one per row entry plus one slot per row.
        ends = np.cumsum(lengths + 1)
        chosen = []
        start = 0
        while start < len(deciders):
            base = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(
                ends, base + arrays.MAX_MATCH_ELEMENTS, side="right")))
            mex = arrays.batched_mex(np, columns["indptr"],
                                     columns["indices"], colors,
                                     deciders[start:stop])
            failing = np.flatnonzero(mex >= columns["target"])
            if failing.shape[0]:
                raise self._fail(columns, int(deciders[start + failing[0]]))
            chosen.append(mex)
            start = stop
        colors[deciders] = chosen[0] if len(chosen) == 1 \
            else np.concatenate(chosen)
        return int(lengths.sum()), int((lengths > 0).sum())

    def _decide_each(self, columns, active_color):
        """Deciders one at a time, in node order, each checked against
        the bandwidth model before the next decides."""
        deciders = columns["by_color"].get(active_color, ())
        if not deciders:
            return 0, 0
        colors = columns["colors"]
        order = columns["order"]
        degrees = columns["degrees"]
        indices = columns["indices"]
        indptr = columns["indptr"]
        target = columns["target"]
        bits = columns["bits"]
        check_fanout = columns["check_fanout"]
        messages = 0
        broadcasts = 0
        updates = []
        for i in deciders:
            used = {colors[j] for j in indices[indptr[i]:indptr[i + 1]]}
            new_color = 0
            while new_color in used:
                new_color += 1
            if new_color >= target:
                raise self._fail(columns, i)
            updates.append((i, new_color))
            degree = degrees[i]
            if degree:
                if check_fanout is not None:
                    check_fanout(
                        intern_broadcast(
                            order[i], _ColorReductionProgram._TAG,
                            new_color, bits,
                        ),
                        degree,
                    )
                messages += degree
                broadcasts += 1
        for i, new_color in updates:
            colors[i] = new_color
        return messages, broadcasts

    def finalize(self, columns, programs) -> None:
        colors = columns["colors"]
        if columns["np"] is not None:
            colors = colors.tolist()
        for program, color in zip(programs, colors):
            program.color = color


register_kernel(_ColorReductionProgram, _ColorReductionKernel)


def _restore_reduction_colors(colors, programs) -> None:
    """Sharded finalize: write the final color column back (parent side)."""
    for program, color in zip(programs, colors):
        program.color = color


def _color_reduction_shard_spec(compiled, programs, bandwidth):
    """Flatten a color-reduction population for the sharded engine.

    Same eligibility gate as :meth:`_ColorReductionKernel.prepare`
    (uniform ``q``/``target``, no mid-run state), plus an int-only color
    check: shard workers round-trip colors through an int64 segment, so
    bools or exotic int subclasses -- which would also intern into
    differently-typed broadcast payloads -- decline to the serial path.
    """
    first = programs[0]
    q = first.q
    target = first.target
    colors = []
    for program in programs:
        if (program.q != q or program.target != target
                or program.neighbor_colors):
            return None
        color = program.color
        if type(color) is not int:
            return None
        colors.append(color)
    return ShardSpec(
        colors=colors,
        q=q,
        target=target,
        bits=color_bits(q),
        tag=_ColorReductionProgram._TAG,
        finalize=_restore_reduction_colors,
        name="ColorReduction",
    )


register_sharded(_ColorReductionProgram, _color_reduction_shard_spec)


def greedy_color_reduction(network: Network,
                           colors: Mapping[Node, Color],
                           q: int,
                           target: int,
                           ledger: Optional[CostLedger] = None,
                           bandwidth: Optional[BandwidthModel] = None
                           ) -> Mapping[Node, Color]:
    """Reduce a proper ``q``-coloring to ``target`` colors, one per round.

    ``target`` must be at least ``Delta + 1``.  Rounds: ``q - target + 1``.
    Combined with Linial this yields the classic O(Delta^2 + log* n)
    ``(Delta + 1)``-coloring baseline.

    On the vectorized engine the colors stay one column from input to
    output: the kernel's column entry runs on the input view's column
    (or a column read once from a plain mapping) and the result is a
    read-only :class:`~repro.sim.compiled.ColorColumn` view, with no
    program object per node.  The other engines run the per-node
    programs -- the executable spec -- and return a ``dict``; so does
    the vectorized engine when a color is not a plain 64-bit ``int``.
    """
    if target < network.raw_max_degree() + 1:
        raise InstanceError("target must be at least Delta + 1")
    ledger = ensure_ledger(ledger)
    if q <= target:
        return dict(colors)  # nothing to reduce, zero rounds
    if default_engine() == "vectorized":
        compiled = network.compile()
        column = color_column(colors, compiled)
        if column is not None:
            with ledger.phase("color-reduction"):
                final = _reduce_column(compiled, column, q, target, ledger,
                                       bandwidth)
            return ColorColumn(compiled.order, final, compiled.index)
    programs = {
        node: _ColorReductionProgram(node, colors[node], q, target)
        for node in network
    }
    with ledger.phase("color-reduction"):
        outputs, _ = run_protocol(
            network, programs, bandwidth=bandwidth, ledger=ledger
        )
    return dict(outputs)


def _reduce_column(compiled, column, q, target, ledger, bandwidth):
    """The reduction as one vectorized column run; the final column."""
    kernel = _ColorReductionKernel()
    warmup_start = time.perf_counter()
    columns = kernel.from_columns(
        compiled, column, q, target,
        bandwidth if bandwidth is not None else LocalModel())
    run_columns(kernel, columns, compiled.n, ledger,
                time.perf_counter() - warmup_start)
    return columns["colors"]
