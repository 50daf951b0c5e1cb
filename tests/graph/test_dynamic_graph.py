"""Tests for the dynamic graph substrate."""

import numpy as np
import pytest

from repro.errors import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    InvalidBiasError,
    VertexNotFoundError,
)
from repro.graph.dynamic_graph import DynamicGraph, Edge


class TestConstruction:
    def test_empty_graph(self):
        graph = DynamicGraph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert graph.max_degree() == 0
        assert graph.average_degree() == 0.0

    def test_from_edges_infers_vertex_count(self):
        graph = DynamicGraph.from_edges([(0, 3, 1.0), (3, 1, 2.0)])
        assert graph.num_vertices == 4
        assert graph.num_edges == 2

    def test_from_edges_explicit_vertex_count(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0)], num_vertices=10)
        assert graph.num_vertices == 10

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph(-1)


class TestVertexOperations:
    def test_add_vertex_returns_new_id(self):
        graph = DynamicGraph(2)
        assert graph.add_vertex() == 2
        assert graph.num_vertices == 3

    def test_add_vertices(self):
        graph = DynamicGraph(1)
        new = graph.add_vertices(3)
        assert new == [1, 2, 3]

    def test_ensure_vertex_grows(self):
        graph = DynamicGraph(1)
        graph.ensure_vertex(5)
        assert graph.num_vertices == 6
        graph.ensure_vertex(2)  # no shrink
        assert graph.num_vertices == 6

    def test_contains(self):
        graph = DynamicGraph(3)
        assert 2 in graph
        assert 3 not in graph

    def test_isolate_vertex_removes_out_and_in_edges(self):
        graph = DynamicGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        removed = graph.isolate_vertex(1)
        assert graph.degree(1) == 0
        assert not graph.has_edge(0, 1)
        assert not graph.has_edge(2, 1)
        assert len(removed) == 3


class TestEdgeOperations:
    def test_add_and_query(self):
        graph = DynamicGraph(3)
        graph.add_edge(0, 1, 5)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)
        assert graph.edge_bias(0, 1) == 5
        assert graph.num_edges == 1

    def test_duplicate_edge_rejected(self):
        graph = DynamicGraph(2)
        graph.add_edge(0, 1, 1)
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge(0, 1, 2)

    def test_invalid_bias_rejected(self):
        graph = DynamicGraph(2)
        with pytest.raises(InvalidBiasError):
            graph.add_edge(0, 1, 0)

    def test_unknown_vertex_rejected(self):
        graph = DynamicGraph(2)
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(0, 5, 1)

    def test_remove_edge_returns_bias(self):
        graph = DynamicGraph(2)
        graph.add_edge(0, 1, 7)
        assert graph.remove_edge(0, 1) == 7
        assert graph.num_edges == 0
        assert not graph.has_edge(0, 1)

    def test_remove_missing_edge_raises(self):
        graph = DynamicGraph(2)
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(0, 1)

    def test_update_bias(self):
        graph = DynamicGraph(2)
        graph.add_edge(0, 1, 3)
        old = graph.update_bias(0, 1, 9)
        assert old == 3
        assert graph.edge_bias(0, 1) == 9

    def test_update_bias_missing_edge(self):
        graph = DynamicGraph(2)
        with pytest.raises(EdgeNotFoundError):
            graph.update_bias(0, 1, 2)

    def test_swap_with_last_keeps_list_compact(self):
        graph = DynamicGraph(5)
        for dst in (1, 2, 3, 4):
            graph.add_edge(0, dst, dst)
        graph.remove_edge(0, 2)
        neighbors = graph.neighbors(0)
        assert sorted(neighbors) == [1, 3, 4]
        assert len(neighbors) == 3
        # Positions returned by neighbor_index stay consistent.
        for dst in (1, 3, 4):
            index = graph.neighbor_index(0, dst)
            assert graph.neighbor_at(0, index) == (dst, dst)


class TestUndirected:
    def test_add_edge_mirrors(self):
        graph = DynamicGraph(3, undirected=True)
        graph.add_edge(0, 1, 4)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.num_edges == 1
        assert graph.num_arcs == 2

    def test_remove_edge_mirrors(self):
        graph = DynamicGraph(3, undirected=True)
        graph.add_edge(0, 1, 4)
        graph.remove_edge(1, 0)
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 0

    def test_update_bias_mirrors(self):
        graph = DynamicGraph(3, undirected=True)
        graph.add_edge(0, 1, 4)
        graph.update_bias(0, 1, 6)
        assert graph.edge_bias(1, 0) == 6


class TestAccessors:
    def test_degree_and_biases(self, example_graph):
        assert example_graph.degree(2) == 3
        assert sorted(example_graph.neighbor_biases(2)) == [3, 4, 5]
        assert example_graph.total_bias(2) == 12

    def test_out_edges_iteration(self, example_graph):
        edges = list(example_graph.out_edges(2))
        assert {(e.dst, e.bias) for e in edges} == {(1, 5), (4, 4), (5, 3)}
        assert all(e.src == 2 for e in edges)

    def test_edges_iteration_counts_arcs(self, example_graph):
        assert len(list(example_graph.edges())) == example_graph.num_arcs

    def test_max_and_average_degree(self, example_graph):
        assert example_graph.max_degree() == 3
        assert example_graph.average_degree() == pytest.approx(
            example_graph.num_arcs / example_graph.num_vertices
        )

    def test_neighbor_at_out_of_range(self, example_graph):
        with pytest.raises(IndexError):
            example_graph.neighbor_at(2, 10)

    def test_edge_reversed(self):
        edge = Edge(1, 2, 3.0)
        assert edge.reversed() == Edge(2, 1, 3.0)


class TestCopy:
    def test_copy_is_independent(self, example_graph):
        clone = example_graph.copy()
        clone.remove_edge(2, 1)
        assert example_graph.has_edge(2, 1)
        assert not clone.has_edge(2, 1)
        assert clone.num_edges == example_graph.num_edges - 1

    def test_copy_preserves_biases(self, example_graph):
        clone = example_graph.copy()
        for edge in example_graph.edges():
            assert clone.edge_bias(edge.src, edge.dst) == edge.bias


class TestHasArcs:
    @staticmethod
    def _graph(undirected):
        graph = DynamicGraph(5, undirected=undirected)
        for src, dst in [(0, 1), (1, 2), (2, 2), (3, 0), (4, 4), (1, 4)]:
            graph.add_edge(src, dst, 1.5)
        return graph

    @pytest.mark.parametrize("undirected", [False, True])
    def test_matches_has_edge_elementwise(self, undirected):
        graph = self._graph(undirected)
        ids = range(-2, graph.num_vertices + 2)
        pairs = [(src, dst) for src in ids for dst in ids]
        srcs = np.array([src for src, _ in pairs])
        dsts = np.array([dst for _, dst in pairs])
        expected = [
            src in graph and dst in graph and graph.has_edge(src, dst)
            for src, dst in pairs
        ]
        result = graph.has_arcs(srcs, dsts)
        assert result.dtype == bool
        assert result.tolist() == expected
        # Self-loops are ordinary arcs.
        assert graph.has_arcs(np.array([2, 4]), np.array([2, 4])).all()

    def test_out_of_range_ids_are_absent_not_errors(self):
        graph = self._graph(False)
        with pytest.raises(VertexNotFoundError):
            graph.has_edge(-1, 0)
        assert not graph.has_arcs(np.array([-1, 0, 5]), np.array([0, -1, 0])).any()

    def test_empty_input(self):
        result = self._graph(True).has_arcs(np.array([], dtype=np.int64), [])
        assert result.shape == (0,) and result.dtype == bool
