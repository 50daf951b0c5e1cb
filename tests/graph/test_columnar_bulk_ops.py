"""Tests for the columnar adjacency store: bulk mutators + zero-copy views."""

import numpy as np
import pytest

from repro.errors import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    InvalidBiasError,
    VertexNotFoundError,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.update_batch import GraphUpdate, UpdateBatch, UpdateKind


def _graph_with_fan(num_vertices=10, src=0, dsts=(1, 2, 3), bias=2.0):
    graph = DynamicGraph(num_vertices)
    for dst in dsts:
        graph.add_edge(src, dst, bias + dst)
    return graph


class TestAddEdgesBulk:
    def test_matches_scalar_inserts_including_order(self):
        bulk = DynamicGraph(10)
        scalar = DynamicGraph(10)
        dsts = np.array([3, 1, 7, 2], dtype=np.int64)
        biases = np.array([1.0, 2.5, 3.0, 0.5])
        bulk.add_edges_bulk(0, dsts, biases)
        for dst, bias in zip(dsts.tolist(), biases.tolist()):
            scalar.add_edge(0, dst, bias)
        assert bulk.neighbors(0) == scalar.neighbors(0)
        assert bulk.neighbor_biases(0) == scalar.neighbor_biases(0)
        assert bulk.num_edges == scalar.num_edges == 4

    def test_large_slice_uses_vectorized_validation(self):
        graph = DynamicGraph(100)
        dsts = np.arange(1, 60, dtype=np.int64)
        graph.add_edges_bulk(0, dsts, np.ones(len(dsts)))
        assert graph.degree(0) == 59
        assert graph.neighbors(0) == dsts.tolist()

    def test_existing_edge_rejected(self):
        graph = _graph_with_fan()
        with pytest.raises(DuplicateEdgeError):
            graph.add_edges_bulk(0, np.array([5, 2]), np.array([1.0, 1.0]))

    def test_duplicate_within_slice_rejected(self):
        graph = DynamicGraph(10)
        with pytest.raises(DuplicateEdgeError):
            graph.add_edges_bulk(0, np.array([4, 5, 4]), np.ones(3))

    def test_unknown_destination_rejected(self):
        graph = DynamicGraph(4)
        with pytest.raises(VertexNotFoundError):
            graph.add_edges_bulk(0, np.array([1, 9]), np.ones(2))

    def test_invalid_bias_rejected(self):
        graph = DynamicGraph(40)
        with pytest.raises(InvalidBiasError):
            graph.add_edges_bulk(0, np.array([1, 2]), np.array([1.0, 0.0]))
        with pytest.raises(InvalidBiasError):
            graph.add_edges_bulk(
                0, np.arange(1, 30), np.concatenate((np.ones(28), [-3.0]))
            )

    def test_empty_slice_is_noop(self):
        graph = _graph_with_fan()
        before = graph.num_edges
        graph.add_edges_bulk(0, np.empty(0, dtype=np.int64), np.empty(0))
        assert graph.num_edges == before

    def test_undirected_mirrors(self):
        graph = DynamicGraph(5, undirected=True)
        graph.add_edges_bulk(0, np.array([1, 2]), np.array([4.0, 5.0]))
        assert graph.has_edge(1, 0) and graph.has_edge(2, 0)
        assert graph.num_edges == 2
        assert graph.num_arcs == 4


class TestRemoveEdgesBulk:
    def test_matches_scalar_removes_including_order(self):
        dsts = list(range(1, 9))
        bulk = _graph_with_fan(20, 0, dsts)
        scalar = _graph_with_fan(20, 0, dsts)
        victims = np.array([2, 7, 1], dtype=np.int64)
        removed = bulk.remove_edges_bulk(0, victims)
        expected = [scalar.remove_edge(0, int(v)) for v in victims]
        assert removed.tolist() == expected
        assert bulk.neighbors(0) == scalar.neighbors(0)
        assert bulk.neighbor_biases(0) == scalar.neighbor_biases(0)

    def test_missing_edge_rejected_before_mutation(self):
        graph = _graph_with_fan()
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edges_bulk(0, np.array([1, 9]))
        # Validation happens up front: the valid victim survived.
        assert graph.has_edge(0, 1)

    def test_duplicate_victim_rejected(self):
        graph = _graph_with_fan()
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edges_bulk(0, np.array([1, 1]))

    def test_large_slice(self):
        dsts = list(range(1, 40))
        graph = _graph_with_fan(50, 0, dsts)
        victims = np.array(dsts[::2], dtype=np.int64)
        graph.remove_edges_bulk(0, victims)
        assert sorted(graph.neighbors(0)) == sorted(set(dsts) - set(victims.tolist()))

    def test_undirected_mirrors(self):
        graph = DynamicGraph(5, undirected=True)
        graph.add_edges_bulk(0, np.array([1, 2]), np.array([4.0, 5.0]))
        graph.remove_edges_bulk(0, np.array([1]))
        assert not graph.has_edge(1, 0)
        assert graph.num_edges == 1


class TestZeroCopyViews:
    def test_views_alias_live_storage(self):
        graph = _graph_with_fan()
        view = graph.neighbor_array(0)
        biases = graph.bias_array(0)
        assert view.tolist() == graph.neighbors(0)
        assert biases.tolist() == graph.neighbor_biases(0)
        # In-place bias updates are visible through the view without copying.
        graph.update_bias(0, 1, 99.0)
        assert biases[graph.neighbor_index(0, 1)] == 99.0

    def test_view_length_tracks_deletions(self):
        graph = _graph_with_fan()
        assert len(graph.neighbor_array(0)) == 3
        graph.remove_edge(0, 2)
        assert len(graph.neighbor_array(0)) == 2

    def test_views_of_isolated_vertex_are_empty(self):
        graph = DynamicGraph(3)
        assert len(graph.neighbor_array(1)) == 0
        assert len(graph.bias_array(1)) == 0


class TestVectorizedQueries:
    def test_has_edges(self):
        graph = _graph_with_fan()
        result = graph.has_edges(0, np.array([1, 4, 3, 2]))
        assert result.tolist() == [True, False, True, True]

    def test_has_edges_large_probe(self):
        graph = _graph_with_fan(100, 0, list(range(1, 50)))
        probe = np.arange(100, dtype=np.int64)
        result = graph.has_edges(0, probe)
        assert result.tolist() == [1 <= v < 50 for v in range(100)]

    def test_ensure_vertices(self):
        graph = DynamicGraph(2)
        graph.ensure_vertices(7)
        assert graph.num_vertices == 8
        graph.ensure_vertices(3)  # no shrink
        assert graph.num_vertices == 8


class TestCapacityDoubling:
    def test_many_appends_then_removes_stay_consistent(self):
        graph = DynamicGraph(600)
        for dst in range(1, 500):
            graph.add_edge(0, dst, float(dst))
        assert graph.degree(0) == 499
        for dst in range(1, 500, 2):
            graph.remove_edge(0, dst)
        survivors = sorted(graph.neighbors(0))
        assert survivors == list(range(2, 500, 2))
        for dst in survivors:
            assert graph.edge_bias(0, dst) == float(dst)
            assert graph.neighbor_at(0, graph.neighbor_index(0, dst)) == (dst, float(dst))


def _batch(*rows):
    """An :class:`UpdateBatch` of ``(kind, src, dst, bias)`` rows, "+" inserting."""
    return UpdateBatch.from_updates(
        GraphUpdate(
            UpdateKind.INSERT if kind == "+" else UpdateKind.DELETE, src, dst, bias, stamp
        )
        for stamp, (kind, src, dst, bias) in enumerate(rows)
    )


def _rows(graph):
    return [
        (graph.neighbors(vertex), graph.neighbor_biases(vertex))
        for vertex in range(graph.num_vertices)
    ]


class TestBatchPath:
    """``apply_batch``: a batch's validated net effect through ``remove_arcs``
    and ``add_arcs``, on directed and undirected graphs alike."""

    def test_matches_scalar_edits_including_order(self):
        graph = DynamicGraph(6)
        scalar = DynamicGraph(6)
        for target in (graph, scalar):
            for src, dst in ((0, 1), (0, 2), (0, 3), (0, 4), (2, 5), (2, 0)):
                target.add_edge(src, dst, 1.0 + src + dst)
        graph.apply_batch(
            _batch(
                ("-", 0, 1, 1.0),
                ("+", 0, 5, 7.0),
                ("-", 2, 5, 1.0),
                ("+", 3, 1, 8.0),
                ("-", 0, 3, 1.0),
                ("+", 0, 1, 9.0),
            )
        )
        # Per source: the net deletions, then the net insertions, each in
        # the order their arcs first appear (0 -> 1 is a bias update).
        for src, dst in ((0, 1), (0, 3), (2, 5)):
            scalar.remove_edge(src, dst)
        for src, dst, bias in ((0, 1, 9.0), (0, 5, 7.0), (3, 1, 8.0)):
            scalar.add_edge(src, dst, bias)
        assert _rows(graph) == _rows(scalar)
        assert graph.num_edges == scalar.num_edges

    def test_repeated_arcs_collapse_to_their_net_effect(self):
        graph = _graph_with_fan()
        changes = graph.apply_batch(
            _batch(
                ("+", 4, 5, 3.0),
                ("+", 4, 5, 8.0),  # the last write wins
                ("+", 4, 6, 1.0),
                ("-", 4, 6, 1.0),  # cancels the insert
                ("-", 0, 1, 1.0),
                ("-", 0, 1, 1.0),  # deleted once
            )
        )
        assert changes.cancelled == 1
        assert graph.neighbors(4) == [5] and graph.edge_bias(4, 5) == 8.0
        assert graph.neighbors(0) == [3, 2]
        assert graph.num_edges == 3

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([("-", 0, 1, 1.0), ("-", 0, 9, 1.0)], EdgeNotFoundError),
            ([("-", 0, 1, 1.0), ("+", 0, 2, 1.0)], DuplicateEdgeError),
            ([("-", 0, 1, 1.0), ("+", 4, 6, -1.0)], InvalidBiasError),
            ([("-", 0, 1, 1.0), ("+", 4, -1, 1.0)], VertexNotFoundError),
        ],
        ids=["absent-arc", "existing-arc", "bad-bias", "negative-vertex"],
    )
    def test_a_refused_batch_changes_nothing(self, rows, error):
        graph = _graph_with_fan()
        before = _rows(graph)
        with pytest.raises(error):
            graph.apply_batch(_batch(*rows, ("+", 4, 12, 1.0)))
        assert _rows(graph) == before
        assert graph.num_edges == 3

    def test_new_vertices_grow_the_vertex_set(self):
        graph = _graph_with_fan()
        graph.apply_batch(_batch(("+", 11, 0, 1.0), ("+", 0, 14, 1.0), ("-", 0, 14, 1.0)))
        assert graph.num_vertices == 15
        assert graph.neighbors(11) == [0] and graph.neighbors(0) == [1, 2, 3]

    def test_undirected_batch_is_the_directed_batch_of_its_arcs(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0), (3, 3, 5.0)]
        undirected = DynamicGraph.from_edges(edges, num_vertices=5, undirected=True)
        directed = DynamicGraph.from_csr(*undirected.csr_columns())
        rows = [
            ("-", 2, 1, 1.0),
            ("+", 0, 4, 6.0),
            ("-", 3, 3, 1.0),
            ("+", 4, 4, 7.0),
            ("+", 1, 2, 8.0),  # delete-then-reinsert, named the other way
            ("+", 3, 0, 9.0),
            ("-", 0, 3, 1.0),  # cancels the insert above
        ]
        arcs = []
        for kind, src, dst, bias in rows:
            arcs.append((kind, src, dst, bias))
            if src != dst:
                arcs.append((kind, dst, src, bias))
        changes = undirected.apply_batch(_batch(*rows))
        directed.apply_batch(_batch(*arcs))
        assert _rows(undirected) == _rows(directed)
        assert undirected.edge_bias(2, 1) == undirected.edge_bias(1, 2) == 8.0
        assert changes.cancelled == 2  # both arcs of the cancelled edge
        # 4 edges - the loop (3, 3) + (0, 4) + the loop (4, 4); (1, 2) is updated.
        assert undirected.num_edges == 5
        assert undirected.num_arcs == 2 * 5 - 1
