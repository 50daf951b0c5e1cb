"""Tests for the shared-memory shard store (SharedGraphShards / ShardSubgraph)."""

import pickle

import numpy as np
import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import SharedGraphShards, partition_graph


@pytest.fixture
def graph():
    return power_law_graph(60, 3, rng=9)


@pytest.fixture
def store(graph):
    partition = partition_graph(graph, 3, strategy="degree_balanced")
    shards = SharedGraphShards.create(graph, partition)
    yield shards
    shards.close()


class TestSharedGraphShards:
    def test_roundtrip_matches_graph(self, graph, store):
        attached = SharedGraphShards.attach(pickle.loads(pickle.dumps(store.handle())))
        try:
            view = attached.shard_view(0)
            assert view.num_vertices == graph.num_vertices
            assert view.num_arcs == graph.num_arcs
            for vertex in range(graph.num_vertices):
                assert view.neighbors(vertex) == graph.neighbors(vertex)
                assert np.allclose(view.bias_array(vertex), graph.bias_array(vertex))
                assert view.degree(vertex) == graph.degree(vertex)
        finally:
            attached.close()

    def test_handle_is_small(self, store):
        # The adjacency must never be pickled — only block names and sizes.
        assert len(pickle.dumps(store.handle())) < 1024

    def test_owned_vertices_partition_the_vertex_set(self, graph, store):
        seen = []
        for shard in range(3):
            seen.extend(store.shard_view(shard).owned_vertices().tolist())
        assert sorted(seen) == list(range(graph.num_vertices))

    def test_shard_view_bounds(self, store):
        with pytest.raises(ValueError):
            store.shard_view(3)
        with pytest.raises(ValueError):
            store.shard_view(-1)

    def test_empty_graph(self):
        empty = DynamicGraph(0)
        shards = SharedGraphShards.create(empty, partition_graph(empty, 2))
        try:
            view = shards.shard_view(0)
            assert view.num_vertices == 0
            assert view.num_arcs == 0
            assert len(view.owned_vertices()) == 0
        finally:
            shards.close()

    def test_close_is_idempotent(self, graph):
        shards = SharedGraphShards.create(graph, partition_graph(graph, 2))
        shards.close()
        shards.close()


class TestShardSubgraph:
    def test_has_edge_and_ranges(self, graph, store):
        view = store.shard_view(1)
        src = next(v for v in range(graph.num_vertices) if graph.degree(v) > 0)
        dst = graph.neighbors(src)[0]
        assert view.has_edge(src, dst)
        assert not view.has_edge(dst, -1)
        assert not view.has_edge(graph.num_vertices + 1, 0)
        assert view.degree(graph.num_vertices + 5) == 0

    def test_has_arcs_matches_has_edge(self, graph, store):
        view = store.shard_view(1)
        ids = np.arange(-2, graph.num_vertices + 2)
        srcs = np.repeat(ids, len(ids))
        dsts = np.tile(ids, len(ids))
        expected = [view.has_edge(int(s), int(d)) for s, d in zip(srcs, dsts)]
        assert view.has_arcs(srcs, dsts).tolist() == expected
        assert any(expected)
        empty = view.has_arcs(np.array([], dtype=np.int64), [])
        assert empty.shape == (0,) and empty.dtype == bool

    def test_has_arcs_self_loops(self):
        looped = DynamicGraph.from_edges([(0, 0, 1.0), (0, 1, 2.0), (2, 2, 0.5)])
        shards = SharedGraphShards.create(looped, partition_graph(looped, 2))
        try:
            view = shards.shard_view(0)
            result = view.has_arcs(np.array([0, 1, 2, 0]), np.array([0, 1, 2, 2]))
            assert result.tolist() == [True, False, True, False]
            assert result.tolist() == [
                looped.has_edge(0, 0), looped.has_edge(1, 1),
                looped.has_edge(2, 2), looped.has_edge(0, 2),
            ]
        finally:
            shards.close()

    def test_edges_iteration(self, graph, store):
        view = store.shard_view(0)
        expected = [(e.src, e.dst, e.bias) for e in graph.edges()]
        actual = [(e.src, e.dst, e.bias) for e in view.edges()]
        assert actual == expected

    def test_ownership(self, store):
        view = store.shard_view(2)
        owned = view.owned_vertices()
        assert all(view.owns(int(v)) for v in owned)
        assert not view.owns(-1)
        assert view.max_degree() >= 0
        assert view.average_degree() > 0
