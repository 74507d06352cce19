"""Streaming topology builders: edges straight into CSR buffers.

The materialized generators in :mod:`repro.graphs.generators` build a
:class:`~repro.sim.network.Network` -- per-node Python dicts, tuples and
frozensets -- and only then compile it to CSR arrays.  At n = 10^6 that
intermediate costs gigabytes and minutes before the first round runs.
The builders here skip it entirely: each family exposes an *edge stream*
(an iterator of ``(u, v)`` pairs over dense ids ``0..n-1``) that is
consumed once into flat ``array('q')`` CSR buffers, from which a
:class:`~repro.sim.compiled.CompiledNetwork` is constructed directly via
:meth:`~repro.sim.compiled.CompiledNetwork.from_csr`.  The compiled
network's Network facade then feeds the scheduler on every engine with
no ``Network`` object anywhere.

Equivalence contract (locked by ``tests/graphs/test_streaming.py``):

* :func:`csr_from_edges` reproduces **exactly** the adjacency order of
  ``Network.from_edges(range(n), edges).compile()`` -- each edge appends
  its endpoints to both rows in stream order -- so for any stream the
  streamed CSR is byte-identical to the materialized one;
* the deterministic streams (:func:`ring_edges`, :func:`grid_edges`,
  :func:`tree_edges`) emit edges in the same order as their materialized
  twins (``ring_graph``/``grid_graph``/``binary_tree``), making e.g.
  ``stream_ring(n)`` byte-identical to ``ring_graph(n).compile()``;
* the randomized streams are seeded distributions of their own:
  :func:`gnp_edges` draws G(n, p) with O(n + |E|) geometric edge
  skipping (one draw per *edge*, not per pair) and :func:`regular_edges`
  uses a pairing-model repair loop, so neither replays the per-pair draw
  sequence of ``gnp_graph``/networkx -- they are tested byte-identical
  against ``Network.from_edges`` over the same stream instead.

Large streamed topologies bypass the interning registry (see
:data:`~repro.graphs.generators.INTERN_NODE_LIMIT`) and are shared with
pool workers through :mod:`repro.sim.shm`: every ``stream_*`` builder
first consults the published-topology table, so a worker whose measure
function rebuilds "the same" graph gets the parent's single shared copy.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Iterable, Iterator, Tuple

from ..sim import arrays
from ..sim.compiled import ColorColumn, CompiledNetwork, _ID_TYPECODE
from ..sim.errors import NetworkError
from .generators import _interned

Edge = Tuple[int, int]

#: Streams larger than this many edges take the NumPy counting-sort CSR
#: fill when the array backend is on; below it the Python loop wins.
_CSR_NUMPY_MIN_EDGES = 1 << 12


# ----------------------------------------------------------------------
# Edge streams (dense ids, no duplicates, no self-loops)
# ----------------------------------------------------------------------
def ring_edges(n: int) -> Iterator[Edge]:
    """The cycle's edges in ``ring_graph`` order."""
    if n < 3:
        raise NetworkError("a ring needs at least 3 nodes")
    for i in range(n):
        yield (i, (i + 1) % n)


def grid_edges(rows: int, cols: int) -> Iterator[Edge]:
    """The grid's edges in ``grid_graph`` order (right, then down)."""
    for r in range(rows):
        base = r * cols
        for c in range(cols):
            node = base + c
            if c + 1 < cols:
                yield (node, node + 1)
            if r + 1 < rows:
                yield (node, node + cols)


def tree_edges(depth: int) -> Iterator[Edge]:
    """The complete binary tree's edges in ``binary_tree`` order."""
    n = 2 ** (depth + 1) - 1
    for i in range(1, n):
        yield (i, (i - 1) // 2)


def gnp_edges(n: int, p: float, seed: int) -> Iterator[Edge]:
    """G(n, p) edges by geometric skipping -- O(n + |E|) draws.

    Walks the lexicographic sequence of the ``n * (n - 1) / 2`` vertex
    pairs and jumps straight to the next present edge by sampling the
    geometric gap ``floor(log(U) / log(1 - p))``, so the cost is
    proportional to the number of edges rather than the number of pairs.
    A seeded distribution of its own: it does *not* replay
    ``gnp_graph``'s one-uniform-per-pair draws.
    """
    if not 0.0 <= p <= 1.0:
        raise NetworkError("edge probability must lie in [0, 1]")
    if n < 0:
        raise NetworkError("node count must be non-negative")
    total = n * (n - 1) // 2
    if total == 0 or p == 0.0:
        return
    if p == 1.0:
        for u in range(n):
            for v in range(u + 1, n):
                yield (u, v)
        return
    rng = random.Random(seed)
    log_skip = math.log(1.0 - p)
    # Unrank pair index t -> (u, v) incrementally: row u covers the
    # contiguous block [row_start, row_start + n - u - 1).
    u = 0
    row_start = 0
    t = -1
    while True:
        # 1 - random() lies in (0, 1], keeping the log finite.
        t += 1 + int(math.log(1.0 - rng.random()) / log_skip)
        if t >= total:
            return
        while t >= row_start + (n - u - 1):
            row_start += n - u - 1
            u += 1
        yield (u, u + 1 + (t - row_start))


def regular_edges(n: int, degree: int, seed: int) -> Iterator[Edge]:
    """A random ``degree``-regular simple graph via pairing with repair.

    Shuffles the ``n * degree`` stubs and pairs them consecutively;
    pairs forming self-loops or duplicate edges return to the pool and
    are re-shuffled.  When a pass makes no progress the construction
    restarts from scratch (vanishingly rare for ``degree << n``).  A
    seeded distribution of its own, independent of networkx's sampler.
    """
    if n * degree % 2 != 0:
        raise NetworkError("n * degree must be even")
    if degree >= n:
        raise NetworkError("degree must be smaller than n")
    if degree < 0:
        raise NetworkError("degree must be non-negative")
    if degree == 0:
        return
    rng = random.Random(seed)
    while True:
        edges = _try_pairing(n, degree, rng)
        if edges is not None:
            yield from edges
            return


def _try_pairing(n: int, degree: int, rng: random.Random):
    """One pairing-model attempt; ``None`` when it wedges."""
    edges = []
    seen = set()
    stubs = [node for node in range(n) for _ in range(degree)]
    while stubs:
        rng.shuffle(stubs)
        leftover = []
        progress = False
        for u, v in zip(stubs[0::2], stubs[1::2]):
            key = (u, v) if u < v else (v, u)
            if u == v or key in seen:
                leftover.append(u)
                leftover.append(v)
                continue
            seen.add(key)
            edges.append((u, v))
            progress = True
        if leftover and not progress:
            return None
        stubs = leftover
    return edges


# ----------------------------------------------------------------------
# CSR construction
# ----------------------------------------------------------------------
def csr_from_edges(n: int, edges: Iterable[Edge]):
    """Consume an edge stream into ``(indptr, indices)`` CSR arrays.

    Each edge ``(u, v)`` appends ``v`` to row ``u`` and ``u`` to row
    ``v``, in stream order -- exactly the adjacency order
    ``Network.from_edges`` produces -- so compiling the same stream
    through a materialized :class:`Network` yields byte-identical
    buffers.  The stream must be simple (no duplicates or self-loops);
    bounds and self-loops are checked, duplicates are the stream's
    contract.  Takes a NumPy counting-sort path for large streams when
    the array backend is enabled; both paths are bit-identical.
    """
    pairs = array(_ID_TYPECODE)
    append = pairs.append
    for u, v in edges:
        if u == v:
            raise NetworkError("self-loops are not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise NetworkError("edge endpoint out of range")
        append(u)
        append(v)
    np = arrays.get_numpy()
    if np is not None and len(pairs) >= 2 * _CSR_NUMPY_MIN_EDGES:
        return _csr_fill_numpy(np, n, pairs)
    return _csr_fill_python(n, pairs)


def _csr_fill_python(n: int, pairs: array):
    counts = array(_ID_TYPECODE, bytes(8 * n)) if n else array(_ID_TYPECODE)
    for node in pairs:
        counts[node] += 1
    indptr = array(_ID_TYPECODE, bytes(8 * (n + 1)))
    total = 0
    for i in range(n):
        indptr[i] = total
        total += counts[i]
    indptr[n] = total
    cursor = list(indptr[:n])
    indices = array(_ID_TYPECODE, bytes(8 * len(pairs)))
    for k in range(0, len(pairs), 2):
        u = pairs[k]
        v = pairs[k + 1]
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    return indptr, indices


def _csr_fill_numpy(np, n: int, pairs: array):
    flat = np.frombuffer(pairs, dtype=np.int64)
    ends = flat.reshape(-1, 2)
    # Directed incidence in stream order: (u -> v, v -> u) per edge.
    src = np.empty(flat.shape[0], dtype=np.int64)
    dst = np.empty(flat.shape[0], dtype=np.int64)
    src[0::2] = ends[:, 0]
    src[1::2] = ends[:, 1]
    dst[0::2] = ends[:, 1]
    dst[1::2] = ends[:, 0]
    counts = np.bincount(src, minlength=n)
    indptr_np = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr_np[1:])
    # Stable sort by source keeps stream order within each row -- the
    # same insertion order Network.from_edges produces.
    order = np.argsort(src, kind="stable")
    indices_np = dst[order]
    indptr = array(_ID_TYPECODE)
    indptr.frombytes(indptr_np.tobytes())
    indices = array(_ID_TYPECODE)
    indices.frombytes(indices_np.tobytes())
    return indptr, indices


# ----------------------------------------------------------------------
# Streamed topologies (CompiledNetwork, no Network anywhere)
# ----------------------------------------------------------------------
def _stream_compiled(key, n: int, factory) -> CompiledNetwork:
    from ..sim import shm
    from ..substrates.cache import record_lookup

    shared = shm.lookup(key)
    # "topologies" counts shared-memory resolution (the daemon's warm
    # topology table); an shm miss may still hit the interned "networks"
    # registry below.
    record_lookup("topologies", shared is not None)
    if shared is not None:
        return shared

    def build() -> CompiledNetwork:
        indptr, indices = csr_from_edges(n, factory())
        return CompiledNetwork.from_csr(indptr, indices)

    return _interned(key, build, nodes=n)


def stream_ring(n: int) -> CompiledNetwork:
    """The cycle on ``n`` nodes, streamed straight to CSR."""
    return _stream_compiled(("ring-stream", n), n,
                            lambda: ring_edges(n))


def stream_grid(rows: int, cols: int) -> CompiledNetwork:
    """The rows x cols grid, streamed straight to CSR."""
    return _stream_compiled(("grid-stream", rows, cols), rows * cols,
                            lambda: grid_edges(rows, cols))


def stream_tree(depth: int) -> CompiledNetwork:
    """The complete binary tree, streamed straight to CSR."""
    n = 2 ** (depth + 1) - 1
    return _stream_compiled(("tree-stream", depth), n,
                            lambda: tree_edges(depth))


def stream_gnp(n: int, p: float, seed: int) -> CompiledNetwork:
    """G(n, p) via geometric skipping, streamed straight to CSR."""
    if not 0.0 <= p <= 1.0:
        raise NetworkError("edge probability must lie in [0, 1]")
    return _stream_compiled(("gnp-stream", n, p, seed), n,
                            lambda: gnp_edges(n, p, seed))


def stream_regular(n: int, degree: int, seed: int) -> CompiledNetwork:
    """A random regular graph (pairing model), streamed straight to CSR."""
    if n * degree % 2 != 0:
        raise NetworkError("n * degree must be even")
    if degree >= n:
        raise NetworkError("degree must be smaller than n")
    return _stream_compiled(("regular-stream", n, degree, seed), n,
                            lambda: regular_edges(n, degree, seed))


# ----------------------------------------------------------------------
# Seed colorings for scale workloads
# ----------------------------------------------------------------------
def greedy_seed_coloring(compiled: CompiledNetwork) -> array:
    """Sequential greedy coloring over dense ids -- O(n + m), <= Delta+1.

    The scale workloads need a proper input coloring without touching
    node objects or dicts; scanning nodes in dense order and taking the
    smallest color unused by lower-id neighbors gives one with at most
    ``max_degree + 1`` classes, returned as an ``array('q')``.
    """
    n = compiled.n
    if not n:
        return array(_ID_TYPECODE)
    indptr = compiled.indptr.tolist()
    indices = compiled.indices.tolist()
    colors = [0] * n
    # ``stamp[c] == i`` marks color c as taken by a lower neighbor of
    # node i: one reused list instead of a fresh set per node.  Lower
    # neighbors hold colors <= Delta, and node i's pick is at most its
    # number of lower neighbors, so Delta + 2 stamps cover every probe.
    stamp = [-1] * (compiled.raw_max_degree() + 2)
    start = 0
    for i, stop in enumerate(indptr[1:]):
        for j in indices[start:stop]:
            if j < i:
                stamp[colors[j]] = i
        start = stop
        color = 0
        while stamp[color] == i:
            color += 1
        colors[i] = color
    return array(_ID_TYPECODE, colors)


def inflated_seed_coloring(compiled: CompiledNetwork, q: int):
    """A proper q-coloring for scale runs: greedy classes blown up.

    Spreads the greedy seed classes over ``q`` colors by an interleaved
    blow-up (``color * factor + node mod factor``), preserving
    properness: adjacent nodes differ in the greedy class, hence in the
    inflated color.  Returns ``(colors, q_used)``: ``colors`` is a
    read-only :class:`~repro.sim.compiled.ColorColumn` view over one
    int64 column (an ndarray with the NumPy backend, else an
    ``array('q')``) and ``q_used = classes * factor <= q`` is the actual
    palette bound.  Requires ``q`` at least the number of greedy
    classes, and ``q_used`` must fit the int64 column.
    """
    seed = greedy_seed_coloring(compiled)
    np = arrays.get_numpy()
    if np is not None:
        seed = np.frombuffer(seed, dtype=np.int64)
        top = int(seed.max()) if len(seed) else 0
    else:
        top = max(seed, default=0)
    classes = top + 1
    if q < classes:
        raise NetworkError(
            f"palette q={q} smaller than the {classes} greedy classes"
        )
    factor = q // classes
    q_used = classes * factor
    if q_used > arrays.MAX_COLOR:
        raise NetworkError(
            f"palette q={q} does not fit the int64 color column"
        )
    if np is not None:
        column = seed * factor + np.arange(compiled.n,
                                           dtype=np.int64) % factor
    else:
        column = array(_ID_TYPECODE, (
            color * factor + i % factor for i, color in enumerate(seed)))
    return ColorColumn(compiled.order, column, compiled.index), q_used


__all__ = [
    "csr_from_edges",
    "gnp_edges",
    "greedy_seed_coloring",
    "grid_edges",
    "inflated_seed_coloring",
    "regular_edges",
    "ring_edges",
    "stream_gnp",
    "stream_grid",
    "stream_regular",
    "stream_ring",
    "stream_tree",
    "tree_edges",
]
