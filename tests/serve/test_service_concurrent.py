"""Concurrent-mode edge cases: snapshot isolation, failures, shutdown.

These tests drive the async service (writer + dispatcher threads) through
the situations a serving system must survive: queries racing an epoch
flip, updates deleting the vertex a queued query starts from, empty and
duplicate batches, and shutdown with work still queued.
"""

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.errors import ServeError
from repro.graph.update_batch import GraphUpdate, UpdateBatch, UpdateKind
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.serve import GraphService, RouterService, WalkQuery


@pytest.fixture(scope="module")
def stream():
    graph = build_dataset("AM", rng=3)
    return generate_update_stream(
        graph,
        batch_size=120,
        num_batches=5,
        workload=UpdateWorkload.MIXED,
        rng=3,
    )


def _edge_sets_per_epoch(stream):
    """The exact live edge set after each published epoch."""
    live = {(edge.src, edge.dst) for edge in stream.initial_graph.edges()}
    sets = [frozenset(live)]
    for batch in stream.batches:
        for update in batch:
            if update.kind is UpdateKind.INSERT:
                live.add((update.src, update.dst))
            else:
                live.discard((update.src, update.dst))
        sets.append(frozenset(live))
    return sets


def _assert_walks_from_single_epoch(matrix, edges):
    for row in matrix:
        for src, dst in zip(row, row[1:]):
            if src < 0 or dst < 0:
                break
            assert (int(src), int(dst)) in edges


class TestSnapshotIsolation:
    def test_queries_racing_epoch_flips_see_one_consistent_snapshot(self, stream):
        """Every transition of every walk is an edge of the *served* epoch.

        If a fused run ever read a buffer mid-mutation (or mixed two
        epochs), some step would traverse an edge that only exists in a
        neighbouring epoch's graph.
        """
        edge_sets = _edge_sets_per_epoch(stream)
        starts = [v for v in range(stream.initial_graph.num_vertices)
                  if stream.initial_graph.degree(v) > 0][:24]
        service = GraphService(
            "bingo", stream.initial_graph, rng=9, fuse_window_seconds=0.0
        )
        tickets = []
        try:
            for batch in stream.batches:
                service.ingest(batch)
                for _ in range(3):
                    tickets.append(service.submit("deepwalk", starts, 8))
            service.flush()
            results = [ticket.result(timeout=120.0) for ticket in tickets]
        finally:
            service.close()
        assert service.stats.epochs_published == len(stream.batches)
        served_epochs = {result.epoch for result in results}
        assert served_epochs  # at least one epoch observed
        for result in results:
            assert 0 <= result.epoch <= len(stream.batches)
            _assert_walks_from_single_epoch(
                result.walks.matrix, edge_sets[result.epoch]
            )

    def test_post_flush_snapshot_matches_strict_application(self, stream):
        """After draining, the published engine equals serial batch replay."""
        from repro.engines.registry import create_engine
        from repro.walks.frontier import run_frontier_deepwalk

        reference = create_engine("bingo", rng=9)
        reference.build(stream.initial_graph.copy())
        for batch in stream.batches:
            reference.apply_batch(batch)
        expected = run_frontier_deepwalk(reference, [1, 2, 3, 4], 8, rng=77)

        service = GraphService("bingo", stream.initial_graph, rng=9)
        try:
            for batch in stream.batches:
                service.ingest(batch)
            service.flush()
            result = service.query("deepwalk", [1, 2, 3, 4], 8, rng=77, timeout=120.0)
        finally:
            service.close()
        assert result.epoch == len(stream.batches)
        assert np.array_equal(result.walks.matrix, expected.matrix)


class TestMutationEdgeCases:
    def test_update_deleting_a_queried_walkers_vertex(self):
        """Deleting every out-edge of a queried start vertex never crashes.

        Queries served before the delete epoch walk normally; queries
        served after it retire their walkers on the spot (one-column rows).
        """
        graph = build_dataset("AM", rng=5)
        vertex = max(range(graph.num_vertices), key=graph.degree)
        deletes = UpdateBatch.from_updates(
            [
                GraphUpdate(UpdateKind.DELETE, vertex, int(dst), 1.0, stamp)
                for stamp, dst in enumerate(graph.neighbor_array(vertex).tolist())
            ]
        )
        service = GraphService("bingo", graph, rng=7, fuse_window_seconds=0.0)
        tickets = [service.submit("deepwalk", [vertex] * 8, 6)]
        try:
            service.ingest(deletes)
            tickets.append(service.submit("deepwalk", [vertex] * 8, 6))
            service.flush()
            final = service.query("deepwalk", [vertex] * 8, 6, timeout=120.0)
            results = [ticket.result(timeout=120.0) for ticket in tickets]
        finally:
            service.close()
        assert final.epoch == 1
        # Every walker starts on the now-sink vertex and retires immediately.
        assert final.walks.matrix.shape[1] >= 1
        assert (final.walks.matrix[:, 0] == vertex).all()
        assert final.walks.total_steps == 0
        for result in results:
            if result.epoch == 0:
                assert result.walks.total_steps > 0
            else:
                assert result.walks.total_steps == 0

    def test_empty_batches_publish_epochs_without_breaking_queries(self, stream):
        service = GraphService("bingo", stream.initial_graph, rng=7)
        try:
            service.ingest(UpdateBatch.from_updates([]))
            service.ingest(stream.batches[0])
            service.ingest(UpdateBatch.from_updates([]))
            service.flush()
            assert service.epoch == 3
            result = service.query("deepwalk", [1, 2, 3], 6, timeout=120.0)
            assert result.walks.num_walks == 3
        finally:
            service.close()

    def test_intra_batch_duplicate_insert_delete_cancels(self, stream):
        graph = stream.initial_graph
        # A fresh edge inserted then deleted inside one batch is a net no-op.
        src = 0
        dst = graph.num_vertices - 1
        assert not graph.has_edge(src, dst)
        batch = UpdateBatch.from_updates(
            [
                GraphUpdate(UpdateKind.INSERT, src, dst, 2.0, 0),
                GraphUpdate(UpdateKind.DELETE, src, dst, 2.0, 1),
            ]
        )
        service = GraphService("bingo", graph, rng=7)
        try:
            service.ingest(batch)
            service.flush()
            assert not service.engine.has_edge(src, dst)
        finally:
            service.close()

    def test_duplicate_batch_is_quarantined_and_service_keeps_serving(self, stream):
        """Re-ingesting the same insert batch is a real workload bug: the
        writer quarantines the poisoned batch into the dead-letter list,
        rebuilds the back buffer and keeps serving — flush() stays clean."""
        graph = build_dataset("AM", rng=5)
        assert not graph.has_edge(0, graph.num_vertices - 1)
        inserts = UpdateBatch.from_updates(
            [GraphUpdate(UpdateKind.INSERT, 0, graph.num_vertices - 1, 1.0, 0)]
        )
        service = GraphService("bingo", graph, rng=7)
        try:
            service.ingest(inserts)
            service.ingest(inserts)  # duplicate: inserts an existing edge
            service.flush()  # quarantined, not latched
            dead = service.dead_letter()
            assert len(dead) == 1
            assert dead[0]["updates"] == 1
            assert "Duplicate" in dead[0]["error"] or "exists" in dead[0]["error"]
            stats = service.stats_snapshot()
            assert stats["writer_recoveries"] == 1
            assert stats["batches_quarantined"] == 1
            # The healthy batch published; the poisoned one was dropped.
            assert service.epoch == 1
            result = service.query("deepwalk", [1, 2, 3], 6, timeout=120.0)
            assert result.walks.num_walks == 3
        finally:
            service.close()

    def test_writer_failure_latches_when_recovery_is_disabled(self, stream):
        """writer_recovery_limit=0 restores the fail-fast contract: the
        first poisoned batch latches and flush()/ingest() raise."""
        graph = build_dataset("AM", rng=5)
        inserts = UpdateBatch.from_updates(
            [GraphUpdate(UpdateKind.INSERT, 0, graph.num_vertices - 1, 1.0, 0)]
        )
        service = GraphService("bingo", graph, rng=7, writer_recovery_limit=0)
        try:
            service.ingest(inserts)
            service.ingest(inserts)  # duplicate: inserts an existing edge
            with pytest.raises(ServeError, match="writer failed"):
                service.flush()
            with pytest.raises(ServeError):
                service.ingest(inserts)
        finally:
            service.close()


class TestShutdown:
    def test_graceful_shutdown_drains_the_query_queue(self, stream):
        service = GraphService(
            "bingo", stream.initial_graph, rng=7, fuse_window_seconds=0.05
        )
        queries = [
            WalkQuery("deepwalk", [1, 2, 3, 4], 6) for _ in range(10)
        ]
        tickets = service.submit_many(queries)
        service.ingest(stream.batches[0])
        service.close(drain=True)
        for ticket in tickets:
            result = ticket.result(timeout=1.0)  # already resolved
            assert result.walks.num_walks == 4
        assert service.stats.queries_served == len(tickets)

    def test_abandoning_shutdown_resolves_every_ticket(self, stream):
        service = GraphService(
            "bingo", stream.initial_graph, rng=7, fuse_window_seconds=0.05
        )
        tickets = []
        for _ in range(6):
            tickets.append(service.submit("deepwalk", [1, 2, 3], 6))
        service.close(drain=False)
        for ticket in tickets:
            # Each ticket either completed before the cancel or was failed
            # with a ServeError — never left dangling.
            assert ticket.done
            try:
                result = ticket.result(timeout=1.0)
            except ServeError:
                continue
            assert result.walks.num_walks == 3

    def test_close_is_idempotent(self, stream):
        service = GraphService("bingo", stream.initial_graph, rng=7)
        service.close()
        service.close()


@pytest.mark.slow
def test_concurrent_service_with_shard_parallel_workers(stream):
    """Shard-parallel serving runs behind the router: fused queries fan out
    to two shard processes while mixed batches flip epochs underneath."""
    service = RouterService("bingo", stream.initial_graph, shards=2, rng=7)
    try:
        tickets = []
        for batch in stream.batches[:2]:
            service.ingest(batch)
            tickets.append(service.submit("deepwalk", [1, 2, 3, 4], 6))
        service.flush()
        results = [ticket.result(timeout=300.0) for ticket in tickets]
    finally:
        service.close()
    assert service.epoch == 2
    for result in results:
        assert result.walks.num_walks == 4
