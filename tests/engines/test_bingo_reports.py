"""Bingo's reports come from one layout of the graph rows, and it keeps no sampler.

``memory_report``, ``group_kind_ratios``, Figure 11's per-kind bytes and
Table 4's conversion counts are derived from
:class:`~repro.core.vertex_sampler.RadixLayout` passes over graph rows.
Each must equal, exactly, the per-vertex sums of the sampler oracle in
``tests/engines/bingo_oracle.py`` — on the golden graph, on skewed
stand-ins with and without group adaption, and after churn.  The engine
itself holds no per-vertex sampler after any update path or a clone, and
a build on the TW stand-in leaves almost no GC-tracked objects behind.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench.datasets import build_dataset
from repro.bench.experiments import group_conversions
from repro.core.adaptive import ConversionTracker, GroupKind
from repro.engines.bingo import BingoEngine
from repro.errors import UpdateError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph, power_law_graph
from repro.graph.update_stream import (
    GraphUpdate,
    UpdateKind,
    UpdateWorkload,
    generate_update_stream,
)
from tests.engines.bingo_oracle import SamplerOracle
from tests.walks.test_frontier_golden import churn_batch, make_engine

#: A cold Bingo build on the TW stand-in may leave at most this many new
#: GC-tracked objects (19 measured; each per-vertex sampler took ~28).
MAX_BUILD_OBJECTS = 1_000


def _assert_reports_match(engine: BingoEngine, oracle: SamplerOracle) -> None:
    assert engine.memory_report().as_dict() == oracle.memory_report().as_dict()
    assert engine.group_kind_ratios() == oracle.group_kind_ratios()
    layout = engine.radix_layout()
    for kind in (GroupKind.DENSE, GroupKind.ONE_ELEMENT, GroupKind.SPARSE):
        got = (layout.group_bytes(kind), layout.group_bytes(kind, GroupKind.REGULAR))
        assert got == oracle.per_kind_bytes(kind), kind


def _stream(graph, seed: int, batches: int = 3):
    return generate_update_stream(
        graph, batch_size=120, num_batches=batches, workload=UpdateWorkload.MIXED, rng=seed
    )


class TestReportsEqualThePerVertexSums:
    def test_golden_graph_before_and_after_its_churn_batch(self):
        engine = make_engine("bingo")
        oracle = SamplerOracle.of(engine)
        _assert_reports_match(engine, oracle)
        batch = churn_batch(engine.graph)
        engine.apply_batch(batch)
        oracle.apply_batch(batch)
        _assert_reports_match(engine, oracle)

    @pytest.mark.parametrize("adaptive", [True, False], ids=["GA", "BS"])
    @pytest.mark.parametrize("streaming", [False, True], ids=["batch", "streaming"])
    def test_skewed_graph_through_churn(self, adaptive, streaming):
        stream = _stream(power_law_graph(300, 4, rng=5), seed=6)
        engine = BingoEngine(rng=7, adaptive_groups=adaptive)
        engine.build(stream.initial_graph.copy())
        oracle = SamplerOracle.of(engine)
        _assert_reports_match(engine, oracle)
        for batch in stream.batches:
            for target in (engine, oracle):
                if streaming:
                    target.apply_streaming(batch)
                else:
                    target.apply_batch(batch)
            _assert_reports_match(engine, oracle)

    def test_lj_stand_in_groups_of_every_kind(self):
        engine = BingoEngine(rng=3)
        engine.build(build_dataset("LJ", rng=2))
        oracle = SamplerOracle.of(engine)
        _assert_reports_match(engine, oracle)
        assert set(engine.group_kind_ratios()) == {k.value for k in GroupKind}

    def test_empty_graph(self):
        engine = BingoEngine(rng=1)
        engine.build(DynamicGraph(4))
        assert engine.memory_report().as_dict() == {"graph": 32}
        assert engine.group_kind_ratios() == {}


class TestTable4ConversionsEqualTheSamplerTracker:
    @staticmethod
    def _compare(graph, batches, **engine_kwargs):
        engine = BingoEngine(rng=9, **engine_kwargs)
        engine.build(graph.copy())
        oracle = SamplerOracle.of(engine)
        tracker = ConversionTracker()
        for batch in batches:
            group_conversions(engine, batch, tracker)
            oracle.apply_batch(batch)
            assert tracker.observations == oracle.tracker.observations
            assert tracker.transitions == oracle.tracker.transitions
        return tracker

    def test_lj_stand_in_mixed_batches(self):
        stream = generate_update_stream(
            build_dataset("LJ", rng=4),
            batch_size=400,
            num_batches=4,
            workload=UpdateWorkload.MIXED,
            rng=5,
        )
        tracker = self._compare(stream.initial_graph, stream.batches)
        assert tracker.conversion_count() > 0

    def test_golden_graph_churn_and_a_vertex_emptied_and_refilled(self):
        graph = make_engine("bingo").graph
        gone = [
            GraphUpdate(UpdateKind.DELETE, 3, dst, 1.0, t)
            for t, dst in enumerate(graph.neighbors(3))
        ]
        back = [
            GraphUpdate(UpdateKind.INSERT, 3, dst, 2.0 + dst, t)
            for t, dst in enumerate(range(20, 26))
        ]
        self._compare(graph, [churn_batch(graph), gone, back], lam=1.0)

    def test_cancelled_reinserted_and_replaced_edges(self):
        graph = power_law_graph(60, 3, rng=8)
        dst = next(d for d in range(1, 60) if not graph.has_edge(0, d))
        old = graph.neighbors(1)[0]
        batch = [
            GraphUpdate(UpdateKind.INSERT, 0, dst, 6.0, 0),
            GraphUpdate(UpdateKind.DELETE, 0, dst, 1.0, 1),
            GraphUpdate(UpdateKind.DELETE, 1, old, 1.0, 2),
            GraphUpdate(UpdateKind.INSERT, 1, old, 7.0, 3),
            GraphUpdate(UpdateKind.INSERT, 61, 2, 3.0, 4),
        ]
        # Vertex 2 loses every edge and gets new ones in the same batch:
        # its groups exist before and after, so they keep their old kinds
        # as the starting point.
        replaced = graph.neighbors(2)
        fresh = [d for d in range(3, 60) if d not in replaced][:3]
        batch += [GraphUpdate(UpdateKind.DELETE, 2, d, 1.0, 5) for d in replaced]
        batch += [GraphUpdate(UpdateKind.INSERT, 2, d, 5.0, 6) for d in fresh]
        tracker = self._compare(graph, [batch], adaptive_groups=True)
        assert tracker.conversion_count() > 0


class TestNoSamplers:
    @pytest.mark.parametrize("path", ["batch", "streaming", "undirected", "clone"])
    def test_no_sampler_after_any_update_path(self, path):
        graph = erdos_renyi_graph(120, 500, rng=11, undirected=path == "undirected")
        if graph.undirected:
            # One batch of mirrored inserts, one deleting a vertex's edges.
            fresh = [d for d in range(1, 120) if not graph.has_edge(0, d)][:5]
            batches = [
                [GraphUpdate(UpdateKind.INSERT, 0, d, 1.5, t) for t, d in enumerate(fresh)],
                [GraphUpdate(UpdateKind.DELETE, 7, d) for d in graph.neighbors(7)],
            ]
        else:
            stream = _stream(graph, seed=12, batches=2)
            graph, batches = stream.initial_graph, stream.batches
        engine = BingoEngine(rng=13)
        engine.build(graph.copy())
        assert engine._samplers == {}
        for batch in batches:
            if path == "streaming":
                engine.apply_streaming(batch)
            else:
                engine.apply_batch(batch)
            if path == "clone":
                engine = engine.clone()
            assert engine._samplers == {}
        engine.sample_neighbor(0)
        engine.check_consistency()
        assert engine._samplers == {}


def test_tw_build_leaves_almost_no_gc_tracked_objects():
    graph = build_dataset("TW", rng=1)
    engine = BingoEngine(rng=1)
    gc.collect()
    before = len(gc.get_objects())
    engine.build(graph)
    engine.warm_frontier_tables()
    gc.collect()
    assert len(gc.get_objects()) - before < MAX_BUILD_OBJECTS


@pytest.mark.parametrize(
    "column, slot, value",
    [("prob", 1, 0.5), ("alias", 1, 2), ("members", 0, 47), ("decimal_fractions", 0, 0.9)],
)
def test_check_consistency_catches_a_corrupted_slice(column, slot, value):
    """One changed value in any draw store changes some edge's exact
    probability (or draws a non-neighbour), and the check says so."""
    engine = make_engine("bingo")
    engine.check_consistency()
    views = engine.frontier_tables.views()
    assert views[column][slot] != value
    views[column][slot] = value
    with pytest.raises(UpdateError):
        engine.check_consistency()
