"""Tests for the compiled (dense-id, CSR) network view."""

from __future__ import annotations

from array import array

import pytest

from repro.graphs import binary_tree, complete_graph, gnp_graph, path_graph
from repro.sim import CompiledNetwork, Network
from repro.sim.compiled import ColorColumn, color_column
from repro.sim.config import use_config


class TestCompilation:
    def test_cached_on_network(self, medium_random):
        assert medium_random.compile() is medium_random.compile()

    def test_order_and_index_are_inverse(self, medium_random):
        compiled = medium_random.compile()
        assert len(compiled.order) == len(medium_random)
        for i, node in enumerate(compiled.order):
            assert compiled.index[node] == i
        assert tuple(compiled.order) == medium_random.nodes

    def test_counts(self, medium_random):
        compiled = medium_random.compile()
        assert compiled.n == len(medium_random)
        assert compiled.m == medium_random.edge_count()
        assert len(compiled) == compiled.n

    def test_from_network_equals_compile(self, small_ring):
        direct = CompiledNetwork.from_network(small_ring)
        cached = small_ring.compile()
        assert list(direct.indptr) == list(cached.indptr)
        assert list(direct.indices) == list(cached.indices)


class TestCSR:
    def test_csr_matches_neighbors(self):
        network = gnp_graph(50, 0.12, seed=4)
        compiled = network.compile()
        for node in network:
            i = compiled.index[node]
            ids = list(compiled.neighbor_ids(i))
            assert ids == [
                compiled.index[neighbor]
                for neighbor in network.neighbors(node)
            ]
            assert compiled.neighbor_objects[i] == network.neighbors(node)
            assert compiled.neighbor_sets[i] == network.neighbor_set(node)

    def test_degrees(self):
        network = binary_tree(4)
        compiled = network.compile()
        for node in network:
            i = compiled.index[node]
            assert compiled.degree(i) == network.degree(node)
            assert compiled.degrees[i] == network.degree(node)
        assert compiled.max_degree() == network.raw_max_degree()

    def test_max_degree_empty(self):
        compiled = Network({0: []}).compile()
        assert compiled.max_degree() == 0

    def test_has_edge_ids(self):
        network = path_graph(4)
        compiled = network.compile()
        assert compiled.has_edge_ids(0, 1)
        assert not compiled.has_edge_ids(0, 2)

    def test_edge_ids_match_edges(self):
        network = gnp_graph(30, 0.2, seed=8)
        compiled = network.compile()
        by_objects = list(network.edges())
        by_ids = [
            (compiled.order[i], compiled.order[j])
            for i, j in compiled.edge_ids()
        ]
        assert by_ids == by_objects

    def test_edge_ids_cover_clique(self):
        compiled = complete_graph(5).compile()
        assert sorted(compiled.edge_ids()) == [
            (i, j) for i in range(5) for j in range(i + 1, 5)
        ]


class TestNetworkCaches:
    def test_edges_unique_and_complete(self):
        network = gnp_graph(40, 0.15, seed=2)
        edges = list(network.edges())
        assert len(edges) == network.edge_count()
        assert len({frozenset(edge) for edge in edges}) == len(edges)
        for u, v in edges:
            assert network.has_edge(u, v)

    def test_cached_stats_stable(self, medium_random):
        assert medium_random.raw_max_degree() == medium_random.raw_max_degree()
        assert medium_random.edge_count() == medium_random.edge_count()
        fresh = Network({
            node: list(medium_random.neighbors(node))
            for node in medium_random
        })
        assert fresh.raw_max_degree() == medium_random.raw_max_degree()
        assert fresh.edge_count() == medium_random.edge_count()

    def test_subgraph_not_polluted_by_parent_cache(self, medium_random):
        medium_random.compile()
        nodes = list(medium_random.nodes)[:10]
        sub = medium_random.subgraph(nodes)
        assert len(sub) == 10
        assert sub.compile().n == 10


def _arrays_legs():
    from repro.sim import arrays

    legs = [False]
    if arrays._import_numpy() is not None:
        legs.append(True)
    return legs


class TestDegrees:
    @pytest.mark.parametrize("topology", [
        lambda: gnp_graph(60, 0.1, seed=3),
        lambda: Network.from_edges(range(6), [(0, 1), (1, 2)]),
        lambda: Network.from_edges(range(1), []),
    ])
    def test_byte_identical_with_arrays_on_and_off(self, topology):
        network = topology()
        built = {}
        for enabled in _arrays_legs():
            with use_config(arrays=enabled):
                compiled = CompiledNetwork.from_network(network)
                built[enabled] = (compiled.degrees.tobytes(),
                                  compiled.degrees.typecode,
                                  compiled.max_degree())
        assert len(set(built.values())) == 1
        degrees = array("q", built[False][0])
        assert list(degrees) == [network.degree(node) for node in network]


class TestColorColumn:
    def columns(self, values):
        from repro.sim import arrays

        out = [array("q", values)]

        numpy = arrays._import_numpy()
        if numpy is not None:
            out.append(numpy.array(values, dtype=numpy.int64))
        return out

    def test_reads_plain_ints_in_order(self):
        for column in self.columns([4, 0, 7]):
            view = ColorColumn(("a", "b", "c"), column)
            assert dict(view) == {"a": 4, "b": 0, "c": 7}
            assert view == {"a": 4, "b": 0, "c": 7}
            assert all(type(view[node]) is int for node in view)
            # The serve payload hash formats entries as node=color.
            assert [f"{node!r}={view[node]}" for node in view] == \
                ["'a'=4", "'b'=0", "'c'=7"]
            assert "b" in view and "z" not in view and len(view) == 3
            with pytest.raises(KeyError):
                view["z"]
            with pytest.raises(TypeError):
                view["a"] = 1  # read-only

    def test_dense_order_uses_identity_index(self):
        view = ColorColumn(range(3), array("q", [2, 1, 0]))
        assert view[2] == 0 and 3 not in view and True not in view

    def test_length_must_match(self):
        with pytest.raises(ValueError):
            ColorColumn(range(3), array("q", [1]))

    def test_color_column_reads_views_and_mappings(self):
        compiled = path_graph(3).compile()
        view = ColorColumn(compiled.order, array("q", [1, 0, 1]))
        assert color_column(view, compiled) is view.column
        colors = dict(zip(compiled.order, [1, 0, 1]))
        assert color_column(colors, compiled) == array("q", [1, 0, 1])
        del colors[compiled.order[1]]
        with pytest.raises(KeyError):
            color_column(colors, compiled)

    def test_color_column_rejects_non_plain_ints(self):
        compiled = path_graph(2).compile()
        a, b = compiled.order
        assert color_column({a: True, b: 0}, compiled) is None
        assert color_column({a: 1 << 70, b: 0}, compiled) is None
        assert color_column({a: 1.0, b: 0}, compiled) is None
