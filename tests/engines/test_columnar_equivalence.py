"""Columnar vs per-edge ingestion: strict equivalence on all engines.

The batched columnar pipeline (``apply_batch``) must be indistinguishable
from the per-edge oracle (``apply_batch_scalar`` in
``tests/engines/scalar_batch_oracle.py``): identical post-batch graph
(including neighbour-array order), identical sampling state (Bingo: its
fused tables and batch counters), and identical seeded walk output — plus matching behaviour on every
batch-update edge case (same-edge insert+delete in both orders, duplicate
inserts, deletes of batch-inserted edges, brand-new vertices).
"""

from __future__ import annotations

import pytest

from repro.engines.bingo import BingoEngine
from repro.engines.flowwalker import FlowWalkerEngine
from repro.engines.gsampler import GSamplerEngine
from repro.engines.knightking import KnightKingEngine
from repro.errors import DuplicateEdgeError
from repro.graph.generators import erdos_renyi_graph, power_law_graph
from repro.graph.update_stream import (
    GraphUpdate,
    UpdateKind,
    generate_update_stream,
)
from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk
from tests.engines.bingo_oracle import assert_same_fused_state, fused_state
from tests.engines.scalar_batch_oracle import apply_batch_scalar

ALL_ENGINE_CLASSES = [BingoEngine, KnightKingEngine, GSamplerEngine, FlowWalkerEngine]


def _insert(src, dst, bias=1.0, ts=0):
    return GraphUpdate(UpdateKind.INSERT, src, dst, bias, ts)


def _delete(src, dst, ts=0):
    return GraphUpdate(UpdateKind.DELETE, src, dst, 1.0, ts)


def _engine_pair(engine_cls, graph, seed=9):
    legacy = engine_cls(rng=seed)
    legacy.build(graph.copy())
    columnar = engine_cls(rng=seed)
    columnar.build(graph.copy())
    return legacy, columnar


def _assert_same_graph(legacy, columnar):
    assert legacy.graph.num_vertices == columnar.graph.num_vertices
    assert legacy.graph.num_edges == columnar.graph.num_edges
    for vertex in range(legacy.graph.num_vertices):
        assert legacy.graph.neighbors(vertex) == columnar.graph.neighbors(vertex)
        assert legacy.graph.neighbor_biases(vertex) == columnar.graph.neighbor_biases(
            vertex
        )


def _assert_same_walks(legacy, columnar, *, rng=123):
    starts = [v for v in range(min(40, legacy.graph.num_vertices))]
    frontier_a = run_deepwalk(
        legacy, DeepWalkConfig(walk_length=8), starts=starts, rng=rng
    )
    frontier_b = run_deepwalk(
        columnar, DeepWalkConfig(walk_length=8), starts=starts, rng=rng
    )
    assert frontier_a.paths == frontier_b.paths
    scalar_a = [legacy.sample_neighbor(v) for v in starts for _ in range(4)]
    scalar_b = [columnar.sample_neighbor(v) for v in starts for _ in range(4)]
    assert scalar_a == scalar_b


def _assert_same_bingo_tables(legacy: BingoEngine, columnar: BingoEngine):
    assert legacy.lam == columnar.lam
    assert legacy.batch_stats == columnar.batch_stats
    assert_same_fused_state(fused_state(legacy), fused_state(columnar))


@pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
@pytest.mark.parametrize("workload", ["insertion", "deletion", "mixed"])
def test_random_streams_identical_state_and_walks(engine_cls, workload):
    graph = erdos_renyi_graph(60, 400, rng=11)
    stream = generate_update_stream(
        graph, batch_size=50, num_batches=3, workload=workload, rng=12
    )
    legacy, columnar = _engine_pair(engine_cls, stream.initial_graph)
    for batch in stream.batches:
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
    _assert_same_graph(legacy, columnar)
    if engine_cls is BingoEngine:
        legacy.check_consistency()
        columnar.check_consistency()
        _assert_same_bingo_tables(legacy, columnar)
    _assert_same_walks(legacy, columnar)


class TestBatchEdgeCases:
    """The satellite edge-case matrix, asserted equivalent on all engines."""

    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_insert_then_delete_same_edge(self, engine_cls, example_graph):
        legacy, columnar = _engine_pair(engine_cls, example_graph)
        batch = [_insert(2, 3, 3.0, ts=0), _delete(2, 3, ts=1)]
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
        assert not columnar.graph.has_edge(2, 3)
        _assert_same_graph(legacy, columnar)
        _assert_same_walks(legacy, columnar)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_delete_then_reinsert_same_edge(self, engine_cls, example_graph):
        legacy, columnar = _engine_pair(engine_cls, example_graph)
        batch = [_delete(2, 1, ts=0), _insert(2, 1, 9.0, ts=1)]
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
        assert columnar.graph.edge_bias(2, 1) == 9.0
        _assert_same_graph(legacy, columnar)
        _assert_same_walks(legacy, columnar)

    def test_duplicate_inserts_keep_last_bias_on_bingo(self, example_graph):
        # Bingo's Section 5.2 normalization collapses duplicates: the last
        # write wins — identically on both paths.
        legacy, columnar = _engine_pair(BingoEngine, example_graph)
        batch = [_insert(2, 3, 3.0, ts=0), _insert(2, 3, 8.0, ts=1)]
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
        assert columnar.graph.edge_bias(2, 3) == 8.0
        _assert_same_graph(legacy, columnar)
        _assert_same_bingo_tables(legacy, columnar)
        _assert_same_walks(legacy, columnar)

    @pytest.mark.parametrize(
        "engine_cls", [KnightKingEngine, GSamplerEngine, FlowWalkerEngine]
    )
    def test_duplicate_inserts_raise_on_rebuild_baselines(
        self, engine_cls, example_graph
    ):
        # The baselines replay the batch verbatim; both paths reject the
        # second insert of the same edge with the same error type.
        batch = [_insert(2, 3, 3.0, ts=0), _insert(2, 3, 8.0, ts=1)]
        legacy, columnar = _engine_pair(engine_cls, example_graph)
        with pytest.raises(DuplicateEdgeError):
            apply_batch_scalar(legacy, list(batch))
        with pytest.raises(DuplicateEdgeError):
            columnar.apply_batch(batch)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_delete_of_batch_inserted_edge_after_gap(self, engine_cls, example_graph):
        legacy, columnar = _engine_pair(engine_cls, example_graph)
        batch = [
            _insert(2, 3, 3.0, ts=0),
            _insert(2, 0, 1.0, ts=1),
            _delete(2, 3, ts=2),
        ]
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
        assert not columnar.graph.has_edge(2, 3)
        assert columnar.graph.has_edge(2, 0)
        _assert_same_graph(legacy, columnar)
        _assert_same_walks(legacy, columnar)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_updates_introducing_new_vertices(self, engine_cls, example_graph):
        legacy, columnar = _engine_pair(engine_cls, example_graph)
        highest = example_graph.num_vertices
        batch = [
            _insert(highest + 2, 0, 2.0, ts=0),
            _insert(1, highest + 4, 1.5, ts=1),
            _insert(highest + 2, highest + 4, 3.0, ts=2),
        ]
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
        assert columnar.graph.num_vertices == highest + 5
        assert columnar.graph.has_edge(highest + 2, 0)
        assert columnar.graph.has_edge(1, highest + 4)
        _assert_same_graph(legacy, columnar)
        _assert_same_walks(legacy, columnar)

    def test_mixed_edge_case_batch_on_bingo_state(self, example_graph):
        """One batch combining every edge case, checked down to the fused tables."""
        legacy, columnar = _engine_pair(BingoEngine, example_graph)
        highest = example_graph.num_vertices
        batch = [
            _insert(2, 3, 3.0, ts=0),
            _delete(2, 3, ts=1),            # cancels ts=0
            _delete(2, 1, ts=2),
            _insert(2, 1, 7.0, ts=3),       # delete-then-reinsert (update)
            _insert(0, highest + 1, 2.0, ts=4),  # brand-new vertex
            _insert(5, 2, 4.0, ts=5),
            _delete(5, 2, ts=6),            # delete of batch-inserted edge
            _insert(5, 2, 5.0, ts=7),       # reinsert after cancellation
        ]
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
        legacy.check_consistency()
        columnar.check_consistency()
        assert columnar.graph.edge_bias(2, 1) == 7.0
        assert columnar.graph.edge_bias(5, 2) == 5.0
        assert not columnar.graph.has_edge(2, 3)
        _assert_same_graph(legacy, columnar)
        _assert_same_bingo_tables(legacy, columnar)
        _assert_same_walks(legacy, columnar)


def test_streaming_and_columnar_batched_converge_on_bingo():
    """The columnar batch path still matches per-edge streaming semantics."""
    graph = power_law_graph(120, 3, rng=31)
    stream = generate_update_stream(graph, batch_size=60, num_batches=2, rng=32)
    streaming = BingoEngine(rng=33)
    streaming.build(stream.initial_graph.copy())
    batched = BingoEngine(rng=33)
    batched.build(stream.initial_graph.copy())
    for batch in stream.batches:
        streaming.apply_streaming(batch)
        batched.apply_batch(batch)
    streaming.check_consistency()
    batched.check_consistency()
    assert streaming.graph.num_edges == batched.graph.num_edges
    for edge in streaming.graph.edges():
        assert batched.graph.has_edge(edge.src, edge.dst)
        assert batched.graph.edge_bias(edge.src, edge.dst) == pytest.approx(edge.bias)
