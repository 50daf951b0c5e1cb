"""Tests for the Bingo engine (streaming + batched update paths)."""

import numpy as np
import pytest

from repro.engines import bingo as bingo_module
from repro.engines import compiled
from repro.engines.bingo import BatchStatistics, BingoEngine
from repro.errors import InvalidBiasError, UpdateError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import power_law_graph, running_example_graph
from repro.graph.update_stream import (
    GraphUpdate,
    UpdateKind,
    UpdateWorkload,
    generate_update_stream,
)
from repro.utils.rng import coerce_np_rng
from tests.conftest import total_variation


def _insert(src, dst, bias, ts=0):
    return GraphUpdate(UpdateKind.INSERT, src, dst, bias, ts)


def _delete(src, dst, ts=0):
    return GraphUpdate(UpdateKind.DELETE, src, dst, 1.0, ts)


class TestBuild:
    def test_build_gives_every_non_sink_slices_and_keeps_no_sampler(
        self, example_graph
    ):
        engine = BingoEngine(rng=1)
        engine.build(example_graph)
        views = engine.frontier_tables.views()
        for vertex in range(example_graph.num_vertices):
            degree = example_graph.degree(vertex)
            assert (views["inter_length"][vertex] > 0) == (degree > 0)
            assert views["adjacency_length"][vertex] == degree
        assert engine._samplers == {}
        engine.check_consistency()

    def test_auto_lambda_for_integer_biases(self, example_graph):
        engine = BingoEngine(rng=1)
        engine.build(example_graph)
        assert engine.lam == 1.0

    def test_auto_lambda_for_float_biases(self):
        graph = running_example_graph()
        for edge in list(graph.edges()):
            graph.update_bias(edge.src, edge.dst, edge.bias + 0.5)
        engine = BingoEngine(rng=1)
        engine.build(graph)
        assert engine.lam > 1.0

    def test_requires_build_before_use(self):
        engine = BingoEngine(rng=1)
        with pytest.raises(UpdateError):
            engine.sample_neighbor(0)


class TestSampling:
    def test_sampling_distribution_matches_biases(self, example_graph):
        engine = BingoEngine(rng=5)
        engine.build(example_graph)
        counts = {}
        draws = 30_000
        for _ in range(draws):
            neighbor = engine.sample_neighbor(2)
            counts[neighbor] = counts.get(neighbor, 0) + 1
        total = sum(counts.values())
        empirical = {k: v / total for k, v in counts.items()}
        expected = {1: 5 / 12, 4: 4 / 12, 5: 3 / 12}
        assert total_variation(empirical, expected) < 0.02

    def test_sink_vertex_returns_none(self):
        engine = BingoEngine(rng=1)
        graph = power_law_graph(50, 2, rng=3)
        sink = graph.add_vertex()
        engine.build(graph)
        assert engine.sample_neighbor(sink) is None

    @pytest.mark.parametrize("kernel", ["compiled", "numpy"])
    def test_scalar_draws_are_one_entry_frontier_draws(self, kernel, monkeypatch):
        # Float biases, so some draws land in decimal groups; the vertex
        # list holds a sink and an id past the vertex range.
        if kernel == "numpy":
            monkeypatch.setattr(compiled, "load", lambda: None)
        elif compiled.load() is None:
            pytest.skip("the compiled frontier kernel is unavailable")
        graph = power_law_graph(60, 4, rng=7)
        biases = np.random.default_rng(8)
        for edge in list(graph.edges()):
            graph.update_bias(edge.src, edge.dst, float(biases.uniform(0.1, 9.9)))
        sink = graph.add_vertex()
        engine = BingoEngine(rng=11)
        engine.build(graph)
        twin = engine.clone()
        vertices = [*range(graph.num_vertices), sink, graph.num_vertices + 5] * 20
        got = [engine.sample_neighbor(vertex) for vertex in vertices]
        rng = coerce_np_rng(twin._rng)
        want = [
            int(twin._sample_frontier(np.array([vertex], dtype=np.int64), rng)[0])
            for vertex in vertices
        ]
        assert got == [None if drawn < 0 else drawn for drawn in want]
        assert any(twin.frontier_tables.views()["entry_decimal"])

    def test_scalar_draws_follow_each_batch(self, example_graph):
        # The bound kernel step is re-bound whenever a warm moves the tables.
        engine = BingoEngine(rng=3)
        engine.build(example_graph)
        assert engine.sample_neighbor(2) in {1, 4, 5}
        engine.apply_batch([_delete(2, 1), _delete(2, 4)])
        assert {engine.sample_neighbor(2) for _ in range(50)} == {5}
        engine.apply_batch([_insert(2, 0, 2.0), _delete(2, 5)])
        assert {engine.sample_neighbor(2) for _ in range(50)} == {0}


class TestStreamingUpdates:
    def test_streaming_insert_and_delete(self, example_graph):
        engine = BingoEngine(rng=2)
        engine.build(example_graph)
        engine.apply_streaming_update(_insert(2, 3, 3.0))
        assert engine.graph.has_edge(2, 3)
        assert 3 in engine.sample_neighbors(2, 400, rng=1)
        engine.apply_streaming_update(_delete(2, 1))
        assert not engine.graph.has_edge(2, 1)
        assert 1 not in engine.sample_neighbors(2, 400, rng=1)
        engine.check_consistency()

    def test_streaming_insert_for_new_vertex(self, example_graph):
        engine = BingoEngine(rng=2)
        engine.build(example_graph)
        engine.apply_streaming_update(_insert(7, 0, 2.0))
        assert engine.graph.num_vertices == 8
        assert engine.sample_neighbor(7) == 0
        engine.check_consistency()

    def test_streaming_delete_last_edge_empties_the_slices(self, example_graph):
        engine = BingoEngine(rng=2)
        engine.build(example_graph)
        engine.apply_streaming_update(_delete(1, 2))  # vertex 1's only edge
        assert engine.frontier_tables.views()["inter_length"][1] == 0
        assert engine.sample_neighbor(1) is None

    def test_phase_breakdown_accumulates(self, example_graph):
        engine = BingoEngine(rng=2)
        engine.build(example_graph)
        engine.reset_breakdown()
        engine.apply_streaming_update(_insert(2, 3, 3.0))
        engine.apply_streaming_update(_delete(2, 3))
        engine.warm_frontier_tables()
        phases = engine.breakdown.as_dict()
        assert phases.get("insert", 0) > 0
        assert phases.get("delete", 0) > 0
        assert phases.get("rebuild", 0) > 0


class TestBatchedUpdates:
    def test_batch_equivalent_to_streaming(self):
        graph = power_law_graph(150, 3, rng=7)
        stream = generate_update_stream(
            graph, batch_size=80, num_batches=2, workload=UpdateWorkload.MIXED, rng=8
        )
        streaming_engine = BingoEngine(rng=9)
        streaming_engine.build(stream.initial_graph.copy())
        batched_engine = BingoEngine(rng=9)
        batched_engine.build(stream.initial_graph.copy())

        for batch in stream.batches:
            streaming_engine.apply_streaming(batch)
            batched_engine.apply_batch(batch)

        streaming_engine.check_consistency()
        batched_engine.check_consistency()
        # Both engines must expose the identical final adjacency.
        a, b = streaming_engine.graph, batched_engine.graph
        assert a.num_edges == b.num_edges
        for edge in a.edges():
            assert b.has_edge(edge.src, edge.dst)
            assert b.edge_bias(edge.src, edge.dst) == pytest.approx(edge.bias)

    def test_insert_then_delete_within_batch_cancels(self, example_graph):
        engine = BingoEngine(rng=3)
        engine.build(example_graph)
        batch = [_insert(2, 3, 3.0, ts=0), _delete(2, 3, ts=1)]
        engine.apply_batch(batch)
        assert not engine.graph.has_edge(2, 3)
        assert engine.batch_stats.cancelled_pairs == 1
        engine.check_consistency()

    def test_delete_then_reinsert_within_batch_updates_bias(self, example_graph):
        engine = BingoEngine(rng=3)
        engine.build(example_graph)
        batch = [_delete(2, 1, ts=0), _insert(2, 1, 9.0, ts=1)]
        engine.apply_batch(batch)
        assert engine.graph.edge_bias(2, 1) == 9.0
        engine.check_consistency()

    def test_batch_records_kernel_launch_and_stats(self, example_graph):
        engine = BingoEngine(rng=3)
        engine.build(example_graph)
        engine.apply_batch([_insert(2, 3, 3.0), _insert(0, 2, 1.0), _delete(5, 0)])
        assert engine.batch_stats.kernel_launches == 1
        assert engine.batch_stats.touched_vertices == 3
        assert engine.batch_stats.insertions == 2
        assert engine.batch_stats.deletions == 1
        # Three work items fit in one modelled step.
        assert engine.batch_stats.parallel_steps == 1

    def test_parallel_steps_are_touched_vertices_over_lanes(
        self, example_graph, monkeypatch
    ):
        monkeypatch.setattr(bingo_module, "DEVICE_LANES", 2)
        engine = BingoEngine(rng=3)
        engine.build(example_graph)
        new_edges = [(0, 2), (1, 0), (2, 0), (4, 0), (5, 1)]
        engine.apply_batch([_insert(src, dst, 1.0) for src, dst in new_edges])
        assert engine.batch_stats.touched_vertices == 5
        assert engine.batch_stats.parallel_steps == 3
        engine.apply_batch([])
        assert engine.batch_stats.parallel_steps == 3
        assert engine.batch_stats.kernel_launches == 2

    def test_batch_statistics_merge_adds_every_counter(self):
        total = BatchStatistics(insertions=2, deletions=1, parallel_steps=1)
        total.merge(
            BatchStatistics(
                insertions=3,
                cancelled_pairs=1,
                touched_vertices=4,
                rebuilds=4,
                kernel_launches=1,
                parallel_steps=1,
            )
        )
        assert total == BatchStatistics(
            insertions=5,
            deletions=1,
            cancelled_pairs=1,
            touched_vertices=4,
            rebuilds=4,
            kernel_launches=1,
            parallel_steps=2,
        )

    def test_rebuild_happens_once_per_touched_vertex(self, example_graph):
        engine = BingoEngine(rng=3)
        engine.build(example_graph)
        engine.warm_frontier_tables()
        engine.apply_batch([_insert(2, 3, 3.0), _insert(2, 0, 1.0), _delete(2, 5)])
        assert engine.batch_stats.rebuilds == 1
        delta = engine.warm_frontier_tables()
        assert list(delta.vertex_ids) == [2]


class TestAdaptiveConfiguration:
    def test_baseline_mode_uses_more_memory(self):
        graph = power_law_graph(200, 4, rng=11)
        adaptive = BingoEngine(rng=12, adaptive_groups=True)
        adaptive.build(graph.copy())
        baseline = BingoEngine(rng=12, adaptive_groups=False)
        baseline.build(graph.copy())
        assert adaptive.memory_report().total_bytes() < baseline.memory_report().total_bytes()

    def test_group_kind_ratios_sum_to_one(self):
        graph = power_law_graph(200, 4, rng=13)
        engine = BingoEngine(rng=14)
        engine.build(graph)
        ratios = engine.group_kind_ratios()
        assert ratios
        assert sum(ratios.values()) == pytest.approx(1.0)

    def test_memory_report_has_graph_component(self, example_graph):
        engine = BingoEngine(rng=1)
        engine.build(example_graph)
        assert engine.memory_report().get("graph") > 0


def test_steady_state_batches_grow_nothing_in_the_device_model():
    """Long runs of 1-edge batches keep no per-batch record in the package,
    the modelled device's accounting included."""
    import tracemalloc

    graph = power_law_graph(20, 2, rng=41)
    engine = BingoEngine(rng=42)
    engine.build(graph)
    src = 0
    dst = next(d for d in range(1, graph.num_vertices) if not graph.has_edge(src, d))

    def churn(count):
        # Insert then delete the same edge: the edge count stays constant.
        for step in range(count):
            if step % 2 == 0:
                engine.apply_batch([_insert(src, dst, 2.0, ts=step)])
            else:
                engine.apply_batch([_delete(src, dst, ts=step)])

    tracemalloc.start()
    try:
        churn(200)
        before = tracemalloc.take_snapshot()
        churn(4000)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # A record kept per batch would grow its site by 4000 x 8 bytes or
    # more; the counters themselves may only trade small ints for larger.
    package = [tracemalloc.Filter(True, "*/repro/*")]
    growth = after.filter_traces(package).compare_to(
        before.filter_traces(package), "lineno"
    )
    assert [stat for stat in growth if stat.size_diff > 1024] == []
    assert engine.batch_stats.kernel_launches == 4200


class TestUnscalableBias:
    """A bias whose λ-scaled integer part reaches 2**63 is refused on every
    Bingo path, before the graph changes."""

    @staticmethod
    def _edges(engine):
        return sorted((e.src, e.dst, e.bias) for e in engine.graph.edges())

    def test_cold_build_raises(self):
        graph = DynamicGraph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 1e19)
        with pytest.raises(InvalidBiasError):
            BingoEngine(rng=5).build(graph)

    def test_apply_batch_raises_and_changes_no_edge(self):
        engine = BingoEngine(rng=5)
        engine.build(power_law_graph(40, 2, rng=6))
        before = self._edges(engine)
        targets = [d for d in range(40) if not engine.graph.has_edge(0, d)][:16]
        with pytest.raises(InvalidBiasError):
            engine.apply_batch([_insert(0, d, 1e19, ts=t) for t, d in enumerate(targets)])
        assert self._edges(engine) == before
        engine.check_consistency()
        engine.apply_batch([_insert(0, targets[0], 2.0)])
        assert engine.graph.edge_bias(0, targets[0]) == 2.0
        engine.check_consistency()

    def test_apply_streaming_raises_and_changes_no_edge(self, example_graph):
        engine = BingoEngine(rng=5)
        engine.build(example_graph)
        before = self._edges(engine)
        with pytest.raises(InvalidBiasError):
            engine.apply_streaming([_insert(1, 0, 1e19)])
        assert self._edges(engine) == before
        engine.check_consistency()

    def test_explicit_lambda_refuses_at_build_and_in_batches(self):
        graph = DynamicGraph(3)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(0, 2, 2e13)
        with pytest.raises(InvalidBiasError):
            BingoEngine(rng=5, lam=1e6).build(graph)
        graph.remove_edge(0, 2)
        engine = BingoEngine(rng=5, lam=1e6)
        engine.build(graph)
        with pytest.raises(InvalidBiasError):
            engine.apply_batch([_insert(0, 2, 2e13)])
        assert not engine.graph.has_edge(0, 2)
        engine.check_consistency()

    def test_undirected_batch_raises_and_changes_no_edge(self):
        graph = DynamicGraph(4, undirected=True)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 2.0)
        engine = BingoEngine(rng=5)
        engine.build(graph)
        before = self._edges(engine)
        with pytest.raises(InvalidBiasError):
            engine.apply_batch([_insert(2, 3, 1e19)])
        assert self._edges(engine) == before
        engine.check_consistency()

    @staticmethod
    def _two_vertex_engine():
        graph = DynamicGraph(2)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 0, 2.0)
        engine = BingoEngine(rng=5)
        engine.build(graph)
        assert engine.lam == 1.0
        return engine

    @pytest.mark.parametrize("path", ["apply_streaming", "apply_batch"])
    def test_vanishing_bias_is_refused_before_the_graph_changes(self, path):
        # 1e-12 * λ snaps to (0, 0.0): no radix group and no decimal group
        # would hold the edge.
        engine = self._two_vertex_engine()
        before = self._edges(engine)
        with pytest.raises(InvalidBiasError, match="vanishes"):
            getattr(engine, path)([_insert(0, 0, 1e-12)])
        assert self._edges(engine) == before
        engine.check_consistency()
        engine.apply_batch([_insert(0, 0, 3.0, ts=1)])
        assert engine.graph.edge_bias(0, 0) == 3.0
        engine.check_consistency()

    def test_vanishing_bias_anywhere_in_a_batch_changes_nothing(self):
        engine = self._two_vertex_engine()
        before = self._edges(engine)
        with pytest.raises(InvalidBiasError):
            engine.apply_batch([_insert(1, 1, 4.0), _insert(0, 0, 1e-12, ts=1)])
        assert self._edges(engine) == before
        engine.check_consistency()

    def test_fractional_graph_with_one_large_bias_builds(self):
        graph = DynamicGraph(6)
        for dst, bias in enumerate([0.25, 0.5, 0.125, 0.3, 1e13], start=1):
            graph.add_edge(0, dst, bias)
        graph.add_edge(1, 2, 0.7)
        engine = BingoEngine(rng=5)
        engine.build(graph)
        assert 1e13 * engine.lam < 2.0**63
        engine.check_consistency()
        draws = engine.sample_neighbors(0, 200, rng=7)
        assert set(draws.tolist()) <= {1, 2, 3, 4, 5}
        assert (draws == 5).mean() > 0.99
