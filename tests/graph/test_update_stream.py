"""Tests for update-stream generation (Section 6.1 methodology)."""

import pytest

from repro.errors import DuplicateEdgeError, EdgeNotFoundError, UpdateError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.update_stream import (
    GraphUpdate,
    UpdateKind,
    UpdateWorkload,
    generate_update_stream,
    split_initial_and_updates,
)


@pytest.fixture
def base_graph():
    return erdos_renyi_graph(60, 600, rng=11)


class TestSplit:
    def test_split_sizes(self, base_graph):
        initial, reserve = split_initial_and_updates(base_graph, 100, rng=1)
        assert initial.num_edges == base_graph.num_edges - 100
        assert len(reserve) == 100
        for edge in reserve:
            assert not initial.has_edge(edge.src, edge.dst)
            assert base_graph.has_edge(edge.src, edge.dst)

    def test_reserve_too_large(self, base_graph):
        with pytest.raises(ValueError):
            split_initial_and_updates(base_graph, base_graph.num_edges + 1)


class TestGraphApplyBatch:
    """The graph's batch step, as a stream's batches take it."""

    def test_insert_and_delete(self):
        graph = DynamicGraph(3)
        updates = [
            GraphUpdate(UpdateKind.INSERT, 0, 1, 2.0, 0),
            GraphUpdate(UpdateKind.INSERT, 1, 2, 3.0, 1),
            GraphUpdate(UpdateKind.DELETE, 0, 1, 2.0, 2),
        ]
        graph.apply_batch(updates)
        assert not graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)

    def test_duplicate_insert_raises(self):
        graph = DynamicGraph(2)
        graph.add_edge(0, 1, 1.0)
        with pytest.raises(DuplicateEdgeError):
            graph.apply_batch([GraphUpdate(UpdateKind.INSERT, 0, 1, 1.0, 0)])

    def test_missing_delete_raises(self):
        graph = DynamicGraph(2)
        with pytest.raises(EdgeNotFoundError):
            graph.apply_batch([GraphUpdate(UpdateKind.DELETE, 0, 1, 1.0, 0)])

    def test_grows_vertex_set(self):
        graph = DynamicGraph(1)
        graph.apply_batch([GraphUpdate(UpdateKind.INSERT, 0, 5, 1.0, 0)])
        assert graph.num_vertices == 6


class TestGenerateStream:
    @pytest.mark.parametrize("workload", ["insertion", "deletion", "mixed"])
    def test_batches_shape(self, base_graph, workload):
        stream = generate_update_stream(
            base_graph, batch_size=20, num_batches=3, workload=workload, rng=7
        )
        assert stream.num_batches == 3
        assert stream.num_updates == 60
        assert all(len(batch) == 20 for batch in stream.batches)
        assert stream.workload == UpdateWorkload(workload)

    def test_insertion_workload_only_inserts(self, base_graph):
        stream = generate_update_stream(
            base_graph, batch_size=20, num_batches=2, workload="insertion", rng=7
        )
        assert all(u.kind is UpdateKind.INSERT for u in stream.all_updates())

    def test_deletion_workload_only_deletes(self, base_graph):
        stream = generate_update_stream(
            base_graph, batch_size=20, num_batches=2, workload="deletion", rng=7
        )
        assert all(u.kind is UpdateKind.DELETE for u in stream.all_updates())
        # Deletion workload keeps the original graph as the initial snapshot.
        assert stream.initial_graph.num_edges == base_graph.num_edges

    def test_mixed_workload_has_both_kinds(self, base_graph):
        stream = generate_update_stream(
            base_graph, batch_size=50, num_batches=2, workload="mixed", rng=7
        )
        kinds = {u.kind for u in stream.all_updates()}
        assert kinds == {UpdateKind.INSERT, UpdateKind.DELETE}

    def test_stream_is_replayable(self, base_graph):
        """Every generated stream must apply cleanly to the initial graph."""
        for workload in ("insertion", "deletion", "mixed"):
            stream = generate_update_stream(
                base_graph, batch_size=30, num_batches=3, workload=workload, rng=13
            )
            final = stream.final_graph()  # raises UpdateError if inconsistent
            expected_delta = sum(
                1 if u.kind is UpdateKind.INSERT else -1 for u in stream.all_updates()
            )
            assert final.num_edges == stream.initial_graph.num_edges + expected_delta

    def test_deterministic_with_seed(self, base_graph):
        a = generate_update_stream(base_graph, batch_size=10, num_batches=2, rng=21)
        b = generate_update_stream(base_graph, batch_size=10, num_batches=2, rng=21)
        assert [
            (u.kind, u.src, u.dst) for u in a.all_updates()
        ] == [(u.kind, u.src, u.dst) for u in b.all_updates()]

    def test_insertion_reserve_exhaustion_raises(self):
        tiny = erdos_renyi_graph(10, 12, rng=3)
        with pytest.raises((UpdateError, ValueError)):
            generate_update_stream(
                tiny, batch_size=100, num_batches=10, workload="insertion", rng=3
            )

    def test_undirected_graph_streams_each_edge_once(self):
        """The reserve and the live set hold each undirected edge once, not
        both of its arcs, so the stream replays onto the initial graph."""
        graph = erdos_renyi_graph(120, 500, rng=11, undirected=True)
        initial, reserve = split_initial_and_updates(graph, 200, rng=1)
        assert initial.num_edges == graph.num_edges - 200
        assert len({frozenset((edge.src, edge.dst)) for edge in reserve}) == 200
        stream = generate_update_stream(
            graph, batch_size=120, num_batches=2, workload=UpdateWorkload.MIXED, rng=12
        )
        final = stream.final_graph()
        expected_delta = sum(
            1 if u.kind is UpdateKind.INSERT else -1 for u in stream.all_updates()
        )
        assert final.num_edges == stream.initial_graph.num_edges + expected_delta
        assert final.num_arcs == 2 * final.num_edges

    def test_timestamps_are_monotone(self, base_graph):
        stream = generate_update_stream(
            base_graph, batch_size=15, num_batches=2, workload="mixed", rng=5
        )
        stamps = [u.timestamp for u in stream.all_updates()]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)
