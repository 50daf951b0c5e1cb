"""Tests for shard-parallel walk execution on the shard pool (repro.serve.router)."""

import numpy as np
import pytest

from repro.engines.registry import create_engine
from repro.engines.sliced_tables import pack_arrays, unpack_arrays
from repro.errors import ParallelExecutionError, ServeError
from repro.gpu.multi_device import MultiDeviceTracker
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import power_law_graph
from repro.graph.partition import SharedGraphShards, partition_graph
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.serve.router import ShardServePool, _boot_blob, flip_payload
from repro.serve.shard_worker import _install_frontier_state, batch_from_payload
from repro.walks.frontier import (
    BatchedWalks,
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)

ENGINES = ("bingo", "knightking", "gsampler", "flowwalker")
PPR = {"termination_probability": 0.15, "max_steps": 20}
NODE2VEC = {"p": 0.5, "q": 2.0}


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(80, 3, rng=13)


@pytest.fixture(scope="module")
def starts(graph):
    return np.array(
        [v for v in range(graph.num_vertices) if graph.degree(v) > 0][:48],
        dtype=np.int64,
    )


def _pool(engine_name, graph, num_shards, *, engine_seed=99, source=None):
    """A shard pool booted at epoch 0 from a source engine over ``graph``."""
    if source is None:
        source = create_engine(engine_name, rng=engine_seed)
        source.build(graph.copy())
    return ShardServePool(
        engine_name=engine_name,
        engine_kwargs=None,
        engine_seed=engine_seed,
        graph=source.graph,
        num_shards=num_shards,
        strategy="degree_balanced",
        source_engine=source,
        epoch=0,
    )


def _walks_are_valid(graph, matrix):
    """Every consecutive pair in every walk must be a live edge."""
    for row in matrix:
        for current, nxt in zip(row, row[1:]):
            if nxt < 0:
                break
            assert graph.has_edge(int(current), int(nxt))


class TestSingleWorkerIdentity:
    """One shard must reproduce the serial frontier bitwise (acceptance)."""

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_deepwalk_bitwise_identical(self, graph, starts, engine_name):
        engine = create_engine(engine_name, rng=99)
        engine.build(graph.copy())
        serial = run_frontier_deepwalk(engine, starts, 8, rng=555)
        pool = _pool(engine_name, graph, 1)
        try:
            matrix, _ = pool.run("deepwalk", starts, 8, {}, (555,), 0)
        finally:
            pool.close()
        assert np.array_equal(serial.matrix, matrix)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_ppr_and_node2vec_bitwise_identical(self, graph, starts, engine_name):
        # One engine / one pool serving consecutive runs, mirroring how the
        # persistent worker reuses its engine (FlowWalker's scalar fallback
        # consumes engine-internal RNG, so run history must match too).
        engine = create_engine(engine_name, rng=99)
        engine.build(graph.copy())
        serial_ppr = run_frontier_ppr(
            engine, starts, termination_probability=0.15, max_steps=20, rng=556
        )
        serial_n2v = run_frontier_node2vec(engine, starts, 8, p=0.5, q=2.0, rng=557)
        pool = _pool(engine_name, graph, 1)
        try:
            parallel_ppr, _ = pool.run("ppr", starts, 20, PPR, (556,), 0)
            parallel_n2v, _ = pool.run("node2vec", starts, 8, NODE2VEC, (557,), 0)
        finally:
            pool.close()
        assert np.array_equal(serial_ppr.matrix, parallel_ppr)
        assert np.array_equal(serial_n2v.matrix, parallel_n2v)


class TestMultiWorker:
    def test_walks_valid_and_transfers_recorded(self, graph, starts):
        pool = _pool("bingo", graph, 2)
        try:
            matrix, busy = pool.run("deepwalk", starts, 8, {}, (555,), 0)
            owners = pool.owners_of(starts)
            tracker = MultiDeviceTracker(pool.owner, 2)
        finally:
            pool.close()
        _walks_are_valid(graph, matrix)
        result = BatchedWalks(matrix=matrix)
        assert result.num_walks == len(starts)
        assert result.total_steps > 0
        assert len(busy) == 2
        # Both shards were handed starts, so both ran walks.
        assert set(owners.tolist()) == {0, 1}
        # A connected power-law graph split in two must cross the partition.
        assert tracker.record_walk_matrix(matrix) > 0
        assert tracker.stats.steps == result.total_steps

    def test_shard_engines_only_build_owned_state(self, graph):
        store = SharedGraphShards.create(graph, partition_graph(graph, 2))
        try:
            view0 = store.shard_view(0)
            engine = create_engine("bingo", rng=99)
            engine.build_shard(view0, view0.owned_vertices())
            owned = set(view0.owned_vertices().tolist())
            assert set(engine._samplers).issubset(owned)
            total_with_edges = sum(
                1 for v in range(graph.num_vertices) if graph.degree(v) > 0
            )
            assert 0 < len(engine._samplers) < total_with_edges
        finally:
            store.close()

    def test_ppr_and_node2vec_multi_worker_valid(self, graph, starts):
        pool = _pool("gsampler", graph, 3)
        try:
            ppr, _ = pool.run(
                "ppr",
                starts,
                15,
                {"termination_probability": 0.2, "max_steps": 15},
                (558,),
                0,
            )
            n2v, _ = pool.run("node2vec", starts, 6, NODE2VEC, (559,), 0)
        finally:
            pool.close()
        _walks_are_valid(graph, ppr)
        _walks_are_valid(graph, n2v)

    def test_isolated_and_out_of_range_starts_retire(self, graph):
        isolated = [v for v in range(graph.num_vertices) if graph.degree(v) == 0]
        queries = np.array(
            (isolated[:1] or [0]) + [graph.num_vertices + 7], dtype=np.int64
        )
        pool = _pool("knightking", graph, 2)
        try:
            matrix, _ = pool.run("deepwalk", queries, 5, {}, (560,), 0)
        finally:
            pool.close()
        assert matrix[-1, 0] == graph.num_vertices + 7
        assert (matrix[-1, 1:] == -1).all()


class TestFlip:
    def test_flip_applies_updates(self, graph):
        engine = create_engine("bingo", rng=99)
        engine.build(graph.copy())
        mutable = engine.graph
        pool = _pool("bingo", graph, 2, source=engine)
        try:
            before, _ = pool.run("deepwalk", np.array([0, 1, 2]), 5, {}, (561,), 0)
            _walks_are_valid(mutable, before)
            # Delete vertex 0's whole out-neighbourhood through the engine.
            batch = UpdateBatch.from_updates(
                [
                    GraphUpdate(UpdateKind.DELETE, 0, dst)
                    for dst in list(mutable.neighbors(0))
                ]
            )
            engine.apply_batch(batch)
            payload, _ = flip_payload(engine, batch, engine.warm_frontier_tables())
            pool.flip(1, pack_arrays(payload), engine)
            after, _ = pool.run("deepwalk", np.array([0, 1, 2]), 5, {}, (562,), 1)
        finally:
            pool.close()
        _walks_are_valid(mutable, after)
        # The walker starting on the now-isolated vertex retires at once.
        assert after[0, 0] == 0
        assert (after[0, 1:] == -1).all()

    @pytest.mark.parametrize("engine_name", ENGINES[:3])
    def test_replica_adjacency_store_follows_boot_and_flips(self, graph, engine_name):
        """The shard worker's boot and flip steps, in process, over the real blobs.

        The replica owns half the vertices; its node2vec walks read the
        writer's adjacency store and must equal the writer's.
        """
        writer = create_engine(engine_name, rng=99)
        writer.build(graph.copy())
        owned = np.arange(0, graph.num_vertices, 2)
        replica = type(writer).for_shard(graph.copy(), owned, rng=99)
        boot = unpack_arrays(_boot_blob(writer, 0))
        _install_frontier_state(replica, boot, full=True)
        replica.check_adjacency_store()
        starts = np.arange(graph.num_vertices)
        hub = max(range(graph.num_vertices), key=graph.degree)
        fresh = [v for v in range(2, graph.num_vertices) if not graph.has_edge(1, v)]
        batches = [
            [GraphUpdate(UpdateKind.DELETE, hub, dst) for dst in graph.neighbors(hub)[:3]],
            [GraphUpdate(UpdateKind.INSERT, 1, dst, 2.5) for dst in fresh[:3]],
        ]
        for seed, updates in enumerate(batches):
            batch = UpdateBatch.from_updates(updates)
            writer.apply_batch(batch)
            payload, full = flip_payload(writer, batch, writer.warm_frontier_tables())
            assert not full
            payload = unpack_arrays(pack_arrays(payload))
            replica._apply_batch_to_graph(batch_from_payload(payload))
            _install_frontier_state(replica, payload, full=False)
            replica.check_adjacency_store()
            writer.check_adjacency_store()
            assert np.array_equal(
                run_frontier_node2vec(replica, starts, 8, rng=seed, **NODE2VEC).matrix,
                run_frontier_node2vec(writer, starts, 8, rng=seed, **NODE2VEC).matrix,
            )

    def test_closed_pool_rejects_runs(self, graph):
        pool = _pool("flowwalker", graph, 1)
        pool.close()
        with pytest.raises(ServeError):
            pool.run("deepwalk", np.array([0]), 3, {}, (1,), 0)


class TestEdgeCases:
    def test_empty_start_set(self, graph):
        pool = _pool("flowwalker", graph, 2)
        try:
            matrix, _ = pool.run("deepwalk", np.empty(0, dtype=np.int64), 5, {}, (563,), 0)
        finally:
            pool.close()
        result = BatchedWalks(matrix=matrix)
        assert result.num_walks == 0
        assert result.total_steps == 0

    def test_more_workers_than_busy_shards(self):
        tiny = DynamicGraph.from_edges([(0, 1, 1.0), (1, 0, 1.0)])
        pool = _pool("bingo", tiny, 3)
        try:
            matrix, _ = pool.run("deepwalk", np.array([0, 1]), 6, {}, (564,), 0)
        finally:
            pool.close()
        assert BatchedWalks(matrix=matrix).total_steps == 12
        _walks_are_valid(tiny, matrix)

    def test_invalid_parameters(self, graph):
        with pytest.raises(ValueError):
            _pool("bingo", graph, 0)
        # A worker rejects bad hyper-parameters with the serial drivers'
        # ValueError; the pool surfaces it typed, with the worker traceback.
        bad_runs = [
            ("ppr", {"termination_probability": 0.0, "max_steps": 5}),
            ("node2vec", {"p": 0.0, "q": 1.0}),
        ]
        for application, params in bad_runs:
            pool = _pool("bingo", graph, 1)
            try:
                with pytest.raises(ParallelExecutionError, match="ValueError"):
                    pool.run(application, np.array([0]), 5, params, (1,), 0)
            finally:
                pool.close()
