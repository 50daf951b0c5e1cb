"""Columnar vs per-edge ingestion: strict equivalence on all engines.

The batched columnar pipeline (``apply_batch``) must be indistinguishable
from the per-edge Section 5.2 oracle (``apply_batch_scalar`` in
``tests/engines/scalar_batch_oracle.py``): identical post-batch graph
(including neighbour-array order), identical sampling state (Bingo: its
fused tables and batch counters), and identical seeded walk output — plus
matching behaviour on every batch-update edge case (same-edge
insert+delete in both orders, duplicate inserts, deletes of batch-inserted
edges, brand-new vertices).  A batch an engine refuses changes nothing,
and an undirected batch is the directed batch of its mirrored arcs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.bingo import BingoEngine
from repro.engines.flowwalker import FlowWalkerEngine
from repro.engines.gsampler import GSamplerEngine
from repro.engines.knightking import KnightKingEngine
from repro.errors import DuplicateEdgeError, EdgeNotFoundError
from repro.graph.dynamic_graph import DynamicGraph
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

    @pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
    def test_duplicate_inserts_keep_last_bias(self, engine_cls, example_graph):
        # Section 5.2's normalization collapses duplicates on every engine:
        # the last write wins, identically on both paths.
        legacy, columnar = _engine_pair(engine_cls, example_graph)
        batch = [_insert(2, 3, 3.0, ts=0), _insert(2, 3, 8.0, ts=1)]
        apply_batch_scalar(legacy, list(batch))
        columnar.apply_batch(batch)
        assert columnar.graph.edge_bias(2, 3) == 8.0
        _assert_same_graph(legacy, columnar)
        if engine_cls is BingoEngine:
            _assert_same_bingo_tables(legacy, columnar)
        _assert_same_walks(legacy, columnar)

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


@pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
@pytest.mark.parametrize("refusal", ["existing-insert", "absent-delete"])
def test_a_refused_batch_changes_nothing(engine_cls, refusal):
    """On the highest-degree vertex a batch that deletes an edge, then
    breaks the graph's contract, leaves the graph, its edge count and (after
    a warm) the fused tables as they were."""
    graph = erdos_renyi_graph(60, 400, rng=11)
    hub = max(range(graph.num_vertices), key=graph.degree)
    first, second = graph.neighbors(hub)[:2]
    absent = next(v for v in range(graph.num_vertices) if not graph.has_edge(hub, v))
    batch = [_delete(hub, first, ts=0), _insert(hub, absent, 2.0, ts=1)]
    if refusal == "existing-insert":
        batch.append(_insert(hub, second, 3.0, ts=2))
    else:
        batch.append(_delete(hub, absent + 1000, ts=2))
    engine = engine_cls(rng=9)
    engine.build(graph.copy())
    fused = hasattr(engine, "warm_frontier_tables")
    if fused:
        engine.warm_frontier_tables()
        tables = engine.export_frontier_state()
    error = DuplicateEdgeError if refusal == "existing-insert" else EdgeNotFoundError
    with pytest.raises(error):
        engine.apply_batch(batch)
    assert engine.graph.num_edges == graph.num_edges
    assert engine.graph.num_vertices == graph.num_vertices
    for vertex in range(graph.num_vertices):
        assert engine.graph.neighbors(vertex) == graph.neighbors(vertex)
        assert engine.graph.neighbor_biases(vertex) == graph.neighbor_biases(vertex)
    if fused:
        engine.warm_frontier_tables()
        after = engine.export_frontier_state()
        assert sorted(after) == sorted(tables)
        assert all(np.array_equal(after[key], tables[key]) for key in tables)
    reference = engine_cls(rng=9)
    reference.build(graph.copy())
    _assert_same_walks(reference, engine)


def _mirrored_arcs(batch) -> list[GraphUpdate]:
    """The directed batch of an undirected batch's arcs, ``src -> dst`` first."""
    arcs = []
    for update in batch:
        arcs.append(update)
        if update.src != update.dst:
            arcs.append(
                GraphUpdate(update.kind, update.dst, update.src, update.bias, update.timestamp)
            )
    return arcs


@pytest.mark.parametrize("engine_cls", ALL_ENGINE_CLASSES)
def test_undirected_batch_is_the_directed_batch_of_its_arcs(engine_cls):
    """A generated undirected stream, batch by batch, against the same
    arcs on a directed graph: the same rows, tables and walks, and the
    per-edge oracle agrees."""
    graph = erdos_renyi_graph(120, 500, rng=11, undirected=True)
    stream = generate_update_stream(
        graph, batch_size=120, num_batches=2, workload="mixed", rng=12
    )
    undirected, legacy = _engine_pair(engine_cls, stream.initial_graph)
    directed = engine_cls(rng=9)
    directed.build(DynamicGraph.from_csr(*stream.initial_graph.csr_columns()))
    for batch in stream.batches:
        undirected.apply_batch(batch)
        apply_batch_scalar(legacy, list(batch))
        directed.apply_batch(_mirrored_arcs(batch))
    assert undirected.graph.undirected and not directed.graph.undirected
    assert undirected.graph.num_arcs == directed.graph.num_edges
    assert undirected.graph.num_edges == stream.final_graph().num_edges
    _assert_same_graph(legacy, undirected)
    for vertex in range(directed.graph.num_vertices):
        assert undirected.graph.neighbors(vertex) == directed.graph.neighbors(vertex)
        assert undirected.graph.neighbor_biases(
            vertex
        ) == directed.graph.neighbor_biases(vertex)
    if engine_cls is BingoEngine:
        undirected.check_consistency()
        _assert_same_bingo_tables(undirected, directed)
        _assert_same_bingo_tables(undirected, legacy)
    twin = undirected.clone()
    _assert_same_walks(undirected, directed)
    _assert_same_walks(twin, legacy)


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
