"""Tests for the coloring validators (cross-checked by hand)."""

from __future__ import annotations

import pytest

from repro.coloring import (
    ArbdefectiveInstance,
    ListDefectiveInstance,
    OLDCInstance,
    assert_arbdefective,
    assert_list_defective,
    assert_oldc,
    assert_proper_coloring,
    check_arbdefective,
    check_defective_coloring,
    check_list_defective,
    check_list_membership,
    check_oldc,
    check_outdegree_defective,
    check_proper_coloring,
    uniform_lists,
)
from repro.graphs import orient_by_id, path_graph, ring_graph, star_graph
from repro.sim import AlgorithmFailure


class TestProperColoring:
    def test_valid(self):
        network = path_graph(3)
        assert check_proper_coloring(network, {0: 0, 1: 1, 2: 0}) == []

    def test_monochromatic_edge_flagged(self):
        network = path_graph(3)
        violations = check_proper_coloring(network, {0: 0, 1: 0, 2: 1})
        assert len(violations) == 1

    def test_uncolored_node_flagged(self):
        network = path_graph(2)
        assert check_proper_coloring(network, {0: 0}) != []

    def test_assert_raises(self):
        network = path_graph(2)
        with pytest.raises(AlgorithmFailure):
            assert_proper_coloring(network, {0: 1, 1: 1})


class TestListMembership:
    def test_valid(self):
        assert check_list_membership({0: (1, 2)}, {0: 2}) == []

    def test_violation(self):
        assert check_list_membership({0: (1, 2)}, {0: 3}) != []


class TestListDefective:
    def make(self, defect):
        network = star_graph(3)
        lists, defects = uniform_lists(network.nodes, (0, 1), defect)
        return ListDefectiveInstance(network, lists, defects)

    def test_defect_zero_requires_proper(self):
        instance = self.make(0)
        all_same = {node: 0 for node in instance.network}
        assert check_list_defective(instance, all_same) != []

    def test_defect_allows_conflicts(self):
        instance = self.make(3)
        all_same = {node: 0 for node in instance.network}
        assert check_list_defective(instance, all_same) == []

    def test_counts_per_chosen_color(self):
        network = star_graph(2)
        lists = {node: (0, 1) for node in network}
        defects = {node: {0: 0, 1: 2} for node in network}
        instance = ListDefectiveInstance(network, lists, defects)
        # Center and both leaves pick 1: center has 2 conflicts <= d(1)=2.
        assert check_list_defective(instance, {0: 1, 1: 1, 2: 1}) == []
        # All pick 0: center exceeds d(0)=0.
        assert check_list_defective(instance, {0: 0, 1: 0, 2: 0}) != []

    def test_assert_raises(self):
        instance = self.make(0)
        with pytest.raises(AlgorithmFailure):
            assert_list_defective(
                instance, {node: 0 for node in instance.network}
            )


class TestOLDC:
    def test_only_out_neighbors_count(self):
        network = path_graph(2)
        graph = orient_by_id(network)  # 1 -> 0
        lists, defects = uniform_lists(network.nodes, (0,), 0)
        instance = OLDCInstance(graph, lists, defects)
        colors = {0: 0, 1: 0}
        violations = check_oldc(instance, colors)
        # Node 1 has out-conflict; node 0 has none.
        assert len(violations) == 1
        assert "1" in violations[0]

    def test_defect_budget_respected(self):
        network = star_graph(3)
        graph = orient_by_id(network)  # leaves point to center 0
        lists, defects = uniform_lists(network.nodes, (0,), 1)
        instance = OLDCInstance(graph, lists, defects)
        colors = {node: 0 for node in network}
        # Each leaf has exactly one out-conflict (the center): allowed.
        assert check_oldc(instance, colors) == []

    def test_assert_raises(self):
        network = path_graph(2)
        graph = orient_by_id(network)
        lists, defects = uniform_lists(network.nodes, (0,), 0)
        instance = OLDCInstance(graph, lists, defects)
        with pytest.raises(AlgorithmFailure):
            assert_oldc(instance, {0: 0, 1: 0})


class TestArbdefective:
    def make(self):
        network = path_graph(3)
        lists, defects = uniform_lists(network.nodes, (0,), 1)
        return ArbdefectiveInstance(network, lists, defects)

    def test_valid_orientation(self):
        instance = self.make()
        colors = {0: 0, 1: 0, 2: 0}
        orientation = {0: (), 1: (0,), 2: (1,)}
        assert check_arbdefective(instance, colors, orientation) == []

    def test_unoriented_monochromatic_edge_flagged(self):
        instance = self.make()
        colors = {0: 0, 1: 0, 2: 0}
        orientation = {0: (), 1: (0,), 2: ()}
        violations = check_arbdefective(instance, colors, orientation)
        assert any("unoriented" in violation for violation in violations)

    def test_double_orientation_flagged(self):
        instance = self.make()
        colors = {0: 0, 1: 0, 2: 0}
        orientation = {0: (1,), 1: (0, 2), 2: ()}
        violations = check_arbdefective(instance, colors, orientation)
        assert any("both ways" in violation for violation in violations)

    def test_orienting_non_monochromatic_edge_flagged(self):
        network = path_graph(2)
        lists = {node: (0, 1) for node in network}
        instance = ArbdefectiveInstance(network, lists, {})
        colors = {0: 0, 1: 1}
        orientation = {0: (1,), 1: ()}
        violations = check_arbdefective(instance, colors, orientation)
        assert any("non-monochromatic" in violation for violation in violations)

    def test_out_defect_budget(self):
        network = star_graph(3)
        lists, defects = uniform_lists(network.nodes, (0,), 1)
        instance = ArbdefectiveInstance(network, lists, defects)
        colors = {node: 0 for node in network}
        # Center takes all three edges out: 3 > d = 1.
        orientation = {0: (1, 2, 3), 1: (), 2: (), 3: ()}
        violations = check_arbdefective(instance, colors, orientation)
        assert any("exceed defect" in violation for violation in violations)
        # Leaves take the edges instead: every out-count <= 1.
        orientation = {0: (), 1: (0,), 2: (0,), 3: (0,)}
        assert check_arbdefective(instance, colors, orientation) == []

    def test_orientation_on_non_edge_flagged(self):
        instance = self.make()
        colors = {0: 0, 1: 0, 2: 0}
        orientation = {0: (2,), 1: (0, 2), 2: ()}
        violations = check_arbdefective(instance, colors, orientation)
        assert any("non-edge" in violation for violation in violations)

    def test_assert_raises(self):
        instance = self.make()
        with pytest.raises(AlgorithmFailure):
            assert_arbdefective(instance, {0: 0, 1: 0, 2: 0}, {})


class TestSimpleDefective:
    def test_check_defective_coloring(self):
        network = ring_graph(4)
        colors = {0: 0, 1: 0, 2: 0, 3: 0}
        assert check_defective_coloring(network, colors, 2) == []
        assert check_defective_coloring(network, colors, 1) != []

    def test_check_outdegree_defective(self):
        network = star_graph(3)
        graph = orient_by_id(network)
        colors = {node: 0 for node in network}
        # Each leaf has 1 same-color out-neighbor, beta = 1.
        assert check_outdegree_defective(graph, colors, 1.0) == []
        assert check_outdegree_defective(graph, colors, 0.5) != []


class TestColumnViolation:
    """The one check of a dense color column (``repro scale`` and the
    daemon's greedy-reduction payload), on both array backends."""

    def legs(self):
        from repro.sim import arrays

        return [False] + ([True] if arrays._import_numpy() else [])

    def check(self, compiled, colors, target, monkeypatch):
        from array import array

        from repro.coloring.validate import column_violation
        from repro.sim import arrays
        from repro.sim.config import use_config

        # Tiny chunks: the first violation must survive row slicing.
        monkeypatch.setattr(arrays, "MAX_MATCH_ELEMENTS", 3)
        found = set()
        for enabled in self.legs():
            with use_config(arrays=enabled):
                fresh = type(compiled).from_csr(compiled.indptr,
                                                compiled.indices)
                found.add(column_violation(fresh, array("q", colors),
                                           target))
        assert len(found) == 1
        return found.pop()

    def test_proper_below_target(self, monkeypatch):
        compiled = ring_graph(6).compile()
        assert self.check(compiled, [0, 1, 0, 1, 0, 1], 3,
                          monkeypatch) is None

    def test_first_monochromatic_edge_in_edge_order(self, monkeypatch):
        compiled = ring_graph(6).compile()
        colors = [0, 1, 2, 2, 1, 1]
        first = next((i, j) for i, j in compiled.edge_ids()
                     if colors[i] == colors[j])
        assert self.check(compiled, colors, 3, monkeypatch) == \
            f"edge {first} is monochromatic"

    def test_color_at_target(self, monkeypatch):
        compiled = star_graph(3).compile()
        assert self.check(compiled, [0, 1, 3, 2], 3, monkeypatch) == \
            "color >= target 3"
