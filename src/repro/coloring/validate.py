"""Validators for every coloring flavor in the paper.

Each ``check_*`` function returns a list of human-readable violation
strings (empty = valid); the matching ``assert_*`` raises
:class:`~repro.sim.errors.AlgorithmFailure` on the first violation.  The
validators are deliberately independent of the algorithms (they recount
conflicts from scratch) so tests can cross-check algorithm outputs.
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Optional, Tuple

from ..sim import arrays
from ..sim.errors import AlgorithmFailure
from ..sim.network import Network
from .instance import (
    ArbdefectiveInstance,
    ListDefectiveInstance,
    OLDCInstance,
)

Node = Hashable
Color = int


def check_complete(nodes, colors: Mapping[Node, Color]) -> List[str]:
    """Every node must have chosen a color."""
    return [
        f"node {node!r} is uncolored"
        for node in nodes
        if node not in colors or colors[node] is None
    ]


def check_proper_coloring(network: Network,
                          colors: Mapping[Node, Color]) -> List[str]:
    """No monochromatic edge."""
    violations = check_complete(network.nodes, colors)
    if violations:
        return violations
    for u, v in network.edges():
        if colors[u] == colors[v]:
            violations.append(
                f"edge {u!r}-{v!r} monochromatic with color {colors[u]}"
            )
    return violations


def column_violation(compiled, column, target: int) -> Optional[str]:
    """The first reason a dense color column is not a proper coloring
    below ``target``, or ``None`` when it is one.

    ``column[i]`` (an ``array('q')`` or int64 ndarray) colors dense id
    ``i`` of the :class:`~repro.sim.compiled.CompiledNetwork`.  The first
    monochromatic edge in :meth:`~repro.sim.compiled.CompiledNetwork.edge_ids`
    order is reported as ``edge (i, j) is monochromatic``; failing that,
    a color at or above ``target``.  With the NumPy backend the check is
    a few array passes over bounded slices of the CSR rows.
    """
    views = compiled.numpy_views()
    if views is None:
        for i, j in compiled.edge_ids():
            if column[i] == column[j]:
                return f"edge ({i}, {j}) is monochromatic"
        if len(column) and max(column) >= target:
            return f"color >= target {target}"
        return None
    np = arrays.get_numpy()
    indptr, indices, degrees = views
    colors = np.asarray(column, dtype=np.int64)
    n = compiled.n
    lo = 0
    while lo < n:
        # Rows [lo, hi) hold at most MAX_MATCH_ELEMENTS entries (one
        # row at least, whatever its length).
        hi = int(np.searchsorted(
            indptr, indptr[lo] + arrays.MAX_MATCH_ELEMENTS, side="right")) - 1
        hi = min(n, max(hi, lo + 1))
        rows = np.repeat(np.arange(lo, hi), degrees[lo:hi])
        neighbors = indices[indptr[lo]:indptr[hi]]
        hits = np.flatnonzero((rows < neighbors)
                              & (colors[rows] == colors[neighbors]))
        if hits.shape[0]:
            first = hits[0]
            return (f"edge ({int(rows[first])}, {int(neighbors[first])}) "
                    f"is monochromatic")
        lo = hi
    if n and int(colors.max()) >= target:
        return f"color >= target {target}"
    return None


def check_list_membership(lists: Mapping[Node, Tuple[Color, ...]],
                          colors: Mapping[Node, Color]) -> List[str]:
    """Every chosen color must come from the node's list."""
    violations = []
    for node, color in colors.items():
        if color not in lists[node]:
            violations.append(
                f"node {node!r} chose color {color} outside its list"
            )
    return violations


def check_list_defective(instance: ListDefectiveInstance,
                         colors: Mapping[Node, Color]) -> List[str]:
    """``P_D`` validity: same-colored *neighbors* within ``d_v(x_v)``."""
    violations = check_complete(instance.network.nodes, colors)
    if violations:
        return violations
    violations = check_list_membership(instance.lists, colors)
    for node in instance.network:
        color = colors[node]
        conflicts = sum(
            1
            for neighbor in instance.network.neighbors(node)
            if colors[neighbor] == color
        )
        # Out-of-list colors (already reported above) allow no defect.
        allowed = instance.defects[node].get(color, 0)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} same-colored neighbors exceed "
                f"defect {allowed} for color {color}"
            )
    return violations


def check_oldc(instance: OLDCInstance,
               colors: Mapping[Node, Color]) -> List[str]:
    """OLDC validity: same-colored *out*-neighbors within ``d_v(x_v)``."""
    violations = check_complete(instance.graph.nodes, colors)
    if violations:
        return violations
    violations = check_list_membership(instance.lists, colors)
    for node in instance.graph.nodes:
        color = colors[node]
        conflicts = sum(
            1
            for neighbor in instance.graph.out_neighbors(node)
            if colors[neighbor] == color
        )
        allowed = instance.defects[node].get(color, 0)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} same-colored out-neighbors "
                f"exceed defect {allowed} for color {color}"
            )
    return violations


def check_arbdefective(instance: ArbdefectiveInstance,
                       colors: Mapping[Node, Color],
                       orientation: Mapping[Node, Tuple[Node, ...]]
                       ) -> List[str]:
    """``P_A`` validity: the output orientation covers every monochromatic
    edge exactly once and out-defects respect ``d_v(x_v)``."""
    violations = check_complete(instance.network.nodes, colors)
    if violations:
        return violations
    violations = check_list_membership(instance.lists, colors)
    out_sets = {
        node: frozenset(orientation.get(node, ())) for node in instance.network
    }
    for node, outs in out_sets.items():
        for target in outs:
            if not instance.network.has_edge(node, target):
                violations.append(
                    f"orientation uses non-edge {node!r}->{target!r}"
                )
            elif colors[node] != colors[target]:
                violations.append(
                    f"orientation covers non-monochromatic edge "
                    f"{node!r}->{target!r}"
                )
    for u, v in instance.network.edges():
        if colors[u] != colors[v]:
            continue
        u_to_v = v in out_sets[u]
        v_to_u = u in out_sets[v]
        if u_to_v and v_to_u:
            violations.append(f"monochromatic edge {u!r}-{v!r} oriented both ways")
        elif not u_to_v and not v_to_u:
            violations.append(f"monochromatic edge {u!r}-{v!r} left unoriented")
    for node in instance.network:
        color = colors[node]
        conflicts = sum(
            1 for target in out_sets[node] if colors.get(target) == color
        )
        allowed = instance.defects[node].get(color, 0)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} monochromatic out-neighbors "
                f"exceed defect {allowed} for color {color}"
            )
    return violations


def check_defective_coloring(network: Network,
                             colors: Mapping[Node, Color],
                             defect: int) -> List[str]:
    """Standard d-defective coloring: <= ``defect`` same-colored neighbors."""
    violations = check_complete(network.nodes, colors)
    if violations:
        return violations
    for node in network:
        conflicts = sum(
            1
            for neighbor in network.neighbors(node)
            if colors[neighbor] == colors[node]
        )
        if conflicts > defect:
            violations.append(
                f"node {node!r}: {conflicts} same-colored neighbors exceed "
                f"defect {defect}"
            )
    return violations


def check_outdegree_defective(graph, colors: Mapping[Node, Color],
                              relative_defect: float) -> List[str]:
    """Lemma 3.4 guarantee: <= ``alpha * beta_v`` same-colored out-neighbors."""
    violations: List[str] = []
    for node in graph.nodes:
        conflicts = sum(
            1
            for neighbor in graph.out_neighbors(node)
            if colors[neighbor] == colors[node]
        )
        allowed = relative_defect * graph.beta(node)
        if conflicts > allowed:
            violations.append(
                f"node {node!r}: {conflicts} same-colored out-neighbors "
                f"exceed alpha*beta = {allowed:.3f}"
            )
    return violations


def _raise_if(violations: List[str], what: str) -> None:
    if violations:
        preview = "; ".join(violations[:5])
        raise AlgorithmFailure(
            f"invalid {what} ({len(violations)} violations): {preview}"
        )


def assert_proper_coloring(network: Network,
                           colors: Mapping[Node, Color]) -> None:
    """Raise :class:`AlgorithmFailure` unless the coloring is proper."""
    _raise_if(check_proper_coloring(network, colors), "proper coloring")


def assert_list_defective(instance: ListDefectiveInstance,
                          colors: Mapping[Node, Color]) -> None:
    """Raise :class:`AlgorithmFailure` on any ``P_D`` violation."""
    _raise_if(check_list_defective(instance, colors), "list defective coloring")


def assert_oldc(instance: OLDCInstance,
                colors: Mapping[Node, Color]) -> None:
    """Raise :class:`AlgorithmFailure` on any OLDC violation."""
    _raise_if(check_oldc(instance, colors), "oriented list defective coloring")


def assert_arbdefective(instance: ArbdefectiveInstance,
                        colors: Mapping[Node, Color],
                        orientation: Mapping[Node, Tuple[Node, ...]]) -> None:
    """Raise :class:`AlgorithmFailure` on any ``P_A`` violation."""
    _raise_if(
        check_arbdefective(instance, colors, orientation),
        "list arbdefective coloring",
    )
