"""The column path of the color reduction against the per-node spec.

``greedy_color_reduction`` on the vectorized engine never builds a
program object: the kernel's column entry runs on one int64 column and
the result is a read-only view.  These generated cases hold it to the
reference engine's object path -- colors, ledger, logical trace and
exceptions -- under LOCAL and CONGEST, with the NumPy columns (batched
mex, size thresholds dropped) and with the pure-Python columns.  Inputs
include isolated nodes, stars, cliques, skewed degrees and improper
colorings, where same-round deciders must read each other's stale
colors.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.streaming import csr_from_edges, greedy_seed_coloring
from repro.obs import Tracer, canonical_lines, use_tracer
from repro.obs import metrics as obs_metrics
from repro.sim import CompiledNetwork, CostLedger, Network, arrays
from repro.sim.compiled import ColorColumn
from repro.sim.config import use_config
from repro.sim.congest import CongestModel
from repro.sim.errors import SimulationError
from repro.sim.kernels import kernel_stats
from repro.substrates.greedy import greedy_color_reduction

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

HAVE_NUMPY = arrays._import_numpy() is not None


@st.composite
def edge_lists(draw, max_nodes=24):
    """``(n, edges)`` over dense ids: a clique, a star and random pairs
    on top of each other; nodes none of them touch stay isolated."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = set()
    if n >= 2:
        clique = draw(st.integers(min_value=0, max_value=min(n, 7)))
        edges |= {(u, v) for u in range(clique) for v in range(u + 1, clique)}
        hub = draw(st.integers(min_value=0, max_value=n - 1))
        spokes = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                              max_size=n))
        edges |= {(min(hub, s), max(hub, s)) for s in spokes if s != hub}
        pairs = draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.integers(min_value=0, max_value=n - 1)),
            max_size=2 * n))
        edges |= {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return n, sorted(edges)


@st.composite
def reduction_cases(draw):
    """A network (dense, permuted or string-labelled nodes), a possibly
    improper input coloring, ``q`` and ``target >= Delta + 1``."""
    n, edges = draw(edge_lists())
    labels = draw(st.sampled_from(["dense", "permuted", "named"]))
    if labels == "dense":
        names = list(range(n))
    elif labels == "permuted":
        names = draw(st.permutations(range(n)))
    else:
        names = [f"v{i}" for i in range(n)]
    network = Network.from_edges(
        names, [(names[u], names[v]) for u, v in edges])
    target = network.raw_max_degree() + 1 + draw(
        st.integers(min_value=0, max_value=2))
    q = target + draw(st.integers(min_value=1, max_value=8))
    # Colors up to q + 2: nodes at or above q never decide.
    colors = {node: draw(st.integers(min_value=0, max_value=q + 2))
              for node in network}
    return network, colors, q, target


def _run(engine, network, colors, q, target, bandwidth):
    """Everything observable about one reduction."""
    ledger = CostLedger()
    tracer = Tracer()
    before = obs_metrics.snapshot()
    with use_tracer(tracer), use_config(engine=engine):
        try:
            result = greedy_color_reduction(network, colors, q, target,
                                            ledger=ledger,
                                            bandwidth=bandwidth)
        except SimulationError as error:
            result = error
    stats = kernel_stats(obs_metrics.snapshot_delta(
        before, obs_metrics.snapshot()))
    ledger_state = (ledger.rounds, ledger.messages, ledger.bits,
                    ledger.max_message_bits, ledger.broadcasts,
                    sorted((name, phase.rounds, phase.messages, phase.bits,
                            phase.broadcasts)
                           for name, phase in ledger.phases.items()))
    return result, ledger_state, canonical_lines(tracer.events), stats


@pytest.mark.parametrize("numpy_columns", [False, True],
                         ids=["python", "numpy"])
@pytest.mark.parametrize("congest", [False, True], ids=["local", "congest"])
@SETTINGS
@given(case=reduction_cases(), factor=st.integers(min_value=1, max_value=3))
def test_column_path_matches_reference(case, factor, congest,
                                       numpy_columns):
    if numpy_columns and not HAVE_NUMPY:
        pytest.skip("NumPy not installed")
    network, colors, q, target = case
    bandwidth = CongestModel(len(network), factor=factor) if congest \
        else None
    with pytest.MonkeyPatch.context() as patch, \
            use_config(arrays=numpy_columns):
        # Even these small populations take the batched path.
        patch.setattr(arrays, "MIN_BATCH", 0)
        expected = _run("reference", network, colors, q, target, bandwidth)
        got = _run("vectorized", network, colors, q, target, bandwidth)
    want, want_ledger, want_trace, _ = expected
    result, ledger, trace, stats = got
    if isinstance(want, Exception):
        assert (type(result), str(result)) == (type(want), str(want))
    else:
        assert isinstance(result, ColorColumn)
        assert dict(result) == want
        assert all(type(color) is int for color in result.values())
    assert ledger == want_ledger
    assert trace == want_trace
    # The column path counts as one kernel hit on the backend it chose.
    assert stats["runs"] == stats["hits"] == 1
    backend = "numpy" if numpy_columns and not congest else "python"
    assert stats["by_backend"] == {f"_ColorReductionKernel[{backend}]": 1}


@SETTINGS
@given(case=reduction_cases())
def test_view_input_matches_dict_input(case):
    """A view fed back in reduces exactly like the dict it mirrors."""
    network, colors, q, target = case
    compiled = network.compile()
    view = ColorColumn(compiled.order,
                       array("q", [colors[node] for node in compiled.order]),
                       compiled.index)
    with use_config(engine="vectorized"):
        from_dict = greedy_color_reduction(network, colors, q, target)
        from_view = greedy_color_reduction(network, view, q, target)
    assert from_view == from_dict
    assert list(view.column) == [colors[node] for node in compiled.order]


def test_non_int_colors_keep_the_object_path():
    """Bools are not plain ints: the per-node programs keep them."""
    network = Network.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    colors = {0: True, 1: 5, 2: 4, 3: 3}
    with use_config(engine="vectorized"):
        result = greedy_color_reduction(network, colors, 6, 3)
    assert type(result) is dict
    assert result[0] is True


# ----------------------------------------------------------------------
# The seed coloring's stamp loop against the set-based loop it replaced
# ----------------------------------------------------------------------
def _set_based_seed(compiled):
    """The original loop: a fresh set of lower-neighbor colors per node."""
    indptr = compiled.indptr
    indices = compiled.indices
    colors = array("q", bytes(8 * compiled.n))
    for i in range(compiled.n):
        used = {colors[j] for j in indices[indptr[i]:indptr[i + 1]] if j < i}
        color = 0
        while color in used:
            color += 1
        colors[i] = color
    return colors


@SETTINGS
@given(graph=edge_lists(max_nodes=40), shuffle=st.randoms())
def test_seed_loop_matches_set_based_loop(graph, shuffle):
    n, edges = graph
    edges = list(edges)
    shuffle.shuffle(edges)  # row order must not matter
    compiled = CompiledNetwork.from_csr(*csr_from_edges(n, edges))
    assert greedy_seed_coloring(compiled) == _set_based_seed(compiled)
