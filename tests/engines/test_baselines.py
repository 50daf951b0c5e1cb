"""Tests for the baseline engines (KnightKing, gSampler, FlowWalker)."""

import pytest

from repro.engines.flowwalker import FlowWalkerEngine
from repro.engines.gsampler import GSamplerEngine
from repro.engines.knightking import KnightKingEngine
from repro.engines.registry import create_engine, engine_names
from repro.errors import EngineError
from repro.graph.generators import power_law_graph
from repro.graph.update_stream import GraphUpdate, UpdateKind
from tests.conftest import total_variation

BASELINE_CLASSES = [KnightKingEngine, GSamplerEngine, FlowWalkerEngine]


def _insert(src, dst, bias, ts=0):
    return GraphUpdate(UpdateKind.INSERT, src, dst, bias, ts)


def _delete(src, dst, ts=0):
    return GraphUpdate(UpdateKind.DELETE, src, dst, 1.0, ts)


class TestRegistry:
    def test_all_engines_registered(self):
        assert set(engine_names()) == {"bingo", "knightking", "gsampler", "flowwalker"}

    def test_create_engine(self):
        engine = create_engine("knightking", rng=1)
        assert isinstance(engine, KnightKingEngine)

    def test_unknown_engine(self):
        with pytest.raises(EngineError):
            create_engine("does-not-exist")


@pytest.mark.parametrize("engine_cls", BASELINE_CLASSES)
class TestBaselineBehaviour:
    def test_sampling_distribution(self, engine_cls, example_graph):
        engine = engine_cls(rng=5)
        engine.build(example_graph)
        counts = {}
        for _ in range(20_000):
            neighbor = engine.sample_neighbor(2)
            counts[neighbor] = counts.get(neighbor, 0) + 1
        empirical = {k: v / 20_000 for k, v in counts.items()}
        expected = {1: 5 / 12, 4: 4 / 12, 5: 3 / 12}
        assert total_variation(empirical, expected) < 0.02

    def test_streaming_updates_reflected_in_sampling(self, engine_cls, example_graph):
        engine = engine_cls(rng=6)
        engine.build(example_graph)
        engine.apply_streaming_update(_delete(2, 1))
        engine.apply_streaming_update(_insert(2, 0, 20.0))
        draws = {engine.sample_neighbor(2) for _ in range(500)}
        assert 1 not in draws
        assert 0 in draws

    def test_batch_updates_reflected_in_sampling(self, engine_cls, example_graph):
        engine = engine_cls(rng=7)
        engine.build(example_graph)
        engine.apply_batch([_delete(2, 1, ts=0), _insert(2, 3, 50.0, ts=1)])
        assert engine.graph.has_edge(2, 3)
        draws = {engine.sample_neighbor(2) for _ in range(500)}
        assert 1 not in draws
        assert 3 in draws

    def test_sink_vertex_returns_none(self, engine_cls):
        graph = power_law_graph(40, 2, rng=8)
        sink = graph.add_vertex()
        engine = engine_cls(rng=9)
        engine.build(graph)
        assert engine.sample_neighbor(sink) is None

    def test_memory_report_positive(self, engine_cls, example_graph):
        engine = engine_cls(rng=10)
        engine.build(example_graph)
        assert engine.memory_report().total_bytes() > 0

    def test_has_edge_handles_out_of_range(self, engine_cls, example_graph):
        engine = engine_cls(rng=11)
        engine.build(example_graph)
        assert engine.has_edge(0, 9999) is False


class TestBaselineCostProfiles:
    def test_knightking_batch_triggers_full_rebuild(self, example_graph):
        engine = KnightKingEngine(rng=1)
        engine.build(example_graph)
        rebuild_before = engine.breakdown.get("rebuild")
        engine.apply_batch([_insert(2, 3, 3.0)])
        assert engine.breakdown.get("rebuild") > rebuild_before

    def test_gsampler_insert_is_append_only(self, example_graph):
        engine = GSamplerEngine(rng=2)
        engine.build(example_graph)
        engine.apply_streaming_update(_insert(2, 3, 3.0))
        draws = {engine.sample_neighbor(2) for _ in range(500)}
        assert 3 in draws

    def test_flowwalker_memory_has_no_sampling_structures(self, example_graph):
        flow = FlowWalkerEngine(rng=3)
        flow.build(example_graph)
        knight = KnightKingEngine(rng=3)
        knight.build(example_graph.copy())
        assert flow.memory_report().total_bytes() < knight.memory_report().total_bytes()

    def test_flowwalker_reload_count(self, example_graph):
        flow = FlowWalkerEngine(rng=4)
        flow.build(example_graph)
        flow.apply_batch([_insert(2, 3, 1.0)])
        assert flow.reload_count == 2
