"""Pathological UpdateBatch inputs through the columnar (parallel) batch path."""

import numpy as np
import pytest

from repro.engines.registry import create_engine
from repro.errors import EdgeNotFoundError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind

ENGINES = ("bingo", "knightking", "gsampler", "flowwalker")


def _graph():
    return DynamicGraph.from_edges(
        [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0), (2, 0, 1.0)]
    )


def _state_snapshot(engine):
    graph = engine.graph
    return {
        "edges": sorted((e.src, e.dst, e.bias) for e in graph.edges()),
        "num_edges": graph.num_edges,
    }


class TestEmptyBatch:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_empty_batch_is_a_noop(self, engine_name):
        engine = create_engine(engine_name, rng=5)
        engine.build(_graph())
        before = _state_snapshot(engine)
        engine.apply_batch(UpdateBatch.from_updates([]))
        assert _state_snapshot(engine) == before
        # Sampling still works afterwards.
        draws = engine.sample_frontier(np.array([0, 1, 2]), rng=7)
        assert (draws >= 0).all()

    def test_empty_batch_columns_directly(self):
        batch = UpdateBatch(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=bool),
        )
        assert len(batch) == 0
        assert batch.max_vertex() == -1
        assert batch.group_by_source() == []


class TestDeletesOfAbsentEdges:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_all_deletes_of_absent_edges_raise(self, engine_name):
        engine = create_engine(engine_name, rng=5)
        engine.build(_graph())
        batch = UpdateBatch.from_updates(
            [
                GraphUpdate(UpdateKind.DELETE, 0, 3),
                GraphUpdate(UpdateKind.DELETE, 1, 0),
            ]
        )
        with pytest.raises(EdgeNotFoundError):
            engine.apply_batch(batch)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_bulk_delete_of_absent_slice_raises(self, engine_name):
        engine = create_engine(engine_name, rng=5)
        engine.build(_graph())
        batch = UpdateBatch.from_updates(
            [GraphUpdate(UpdateKind.DELETE, 0, dst) for dst in (1, 2, 3)]
        )
        with pytest.raises(EdgeNotFoundError):
            engine.apply_batch(batch)


class TestDuplicateInsertDelete:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_insert_then_delete_cancels(self, engine_name):
        engine = create_engine(engine_name, rng=5)
        engine.build(_graph())
        before = _state_snapshot(engine)
        engine.apply_batch(
            UpdateBatch.from_updates(
                [
                    GraphUpdate(UpdateKind.INSERT, 1, 0, 4.0),
                    GraphUpdate(UpdateKind.DELETE, 1, 0),
                ]
            )
        )
        assert _state_snapshot(engine) == before

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_delete_then_reinsert_updates_bias(self, engine_name):
        engine = create_engine(engine_name, rng=5)
        engine.build(_graph())
        engine.apply_batch(
            UpdateBatch.from_updates(
                [
                    GraphUpdate(UpdateKind.DELETE, 0, 1),
                    GraphUpdate(UpdateKind.INSERT, 0, 1, 9.0),
                ]
            )
        )
        assert engine.graph.edge_bias(0, 1) == pytest.approx(9.0)

    def test_cancelled_pair_through_parallel_walks(self):
        import numpy as np

        from repro.serve.router import ShardServePool

        graph = _graph()
        engine = create_engine("bingo", rng=5)
        engine.build(graph)
        engine.apply_batch(
            UpdateBatch.from_updates(
                [
                    GraphUpdate(UpdateKind.INSERT, 2, 1, 3.0),
                    GraphUpdate(UpdateKind.DELETE, 2, 1),
                    GraphUpdate(UpdateKind.DELETE, 2, 0),
                ]
            )
        )
        # Vertex 2 netted out to zero degree; walkers reaching it retire on
        # the shard-parallel path just like on the serial one.
        pool = ShardServePool(
            engine_name="bingo",
            engine_kwargs=None,
            engine_seed=5,
            graph=engine.graph,
            num_shards=2,
            strategy="degree_balanced",
            source_engine=engine,
            epoch=0,
        )
        try:
            matrix, _ = pool.run("deepwalk", np.array([2, 0, 1]), 5, {}, (11,), 0)
        finally:
            pool.close()
        assert matrix[0, 0] == 2
        assert (matrix[0, 1:] == -1).all()
        for row in matrix[1:]:
            for current, nxt in zip(row, row[1:]):
                if nxt < 0:
                    break
                assert engine.graph.has_edge(int(current), int(nxt))
