"""Tests for biased DeepWalk."""

import pytest

from repro.engines.bingo import BingoEngine
from repro.graph.generators import path_graph
from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk
from repro.walks.walker import default_start_vertices


@pytest.fixture
def engine(example_graph):
    engine = BingoEngine(rng=3)
    engine.build(example_graph)
    return engine


class TestConfig:
    def test_defaults_match_paper(self):
        config = DeepWalkConfig()
        assert config.walk_length == 80
        assert config.walkers_per_vertex == 1

    def test_invalid_walk_length(self):
        with pytest.raises(ValueError):
            DeepWalkConfig(walk_length=0)


class TestSingleWalk:
    """Each case walks one start vertex with many walkers."""

    def test_walk_length_respected(self, engine):
        result = run_deepwalk(engine, DeepWalkConfig(walk_length=15), starts=[0] * 200, rng=1)
        assert result.num_walks == 200
        for path in result.paths:
            assert path[0] == 0
            assert len(path) <= 16

    def test_walk_follows_existing_edges(self, engine, example_graph):
        result = run_deepwalk(engine, DeepWalkConfig(walk_length=30), starts=[2] * 200, rng=2)
        for path in result.paths:
            for src, dst in zip(path, path[1:]):
                assert example_graph.has_edge(src, dst)

    def test_walk_stops_at_sink(self):
        graph = path_graph(4)
        engine = BingoEngine(rng=1)
        engine.build(graph)
        result = run_deepwalk(engine, DeepWalkConfig(walk_length=50), starts=[0] * 50, rng=3)
        assert result.paths == [[0, 1, 2, 3]] * 50


class TestRunDeepWalk:
    def test_one_walker_per_vertex_by_default(self, engine, example_graph):
        result = run_deepwalk(engine, DeepWalkConfig(walk_length=5))
        assert result.num_walks == example_graph.num_vertices

    def test_explicit_starts(self, engine):
        result = run_deepwalk(engine, DeepWalkConfig(walk_length=5), starts=[2, 2, 2])
        assert result.num_walks == 3
        assert all(path[0] == 2 for path in result.paths)

    def test_walkers_per_vertex_scaling(self):
        starts = default_start_vertices(4, walkers_per_vertex=3)
        assert len(starts) == 12
        assert starts.count(2) == 3

    def test_total_steps_counted(self, engine):
        result = run_deepwalk(engine, DeepWalkConfig(walk_length=5), starts=[0, 1])
        assert result.total_steps == sum(len(p) - 1 for p in result.paths)

    def test_biased_walks_prefer_heavy_edges(self, example_graph):
        """From vertex 2, neighbour 1 (bias 5) should be visited most often."""
        engine = BingoEngine(rng=29)
        engine.build(example_graph)
        result = run_deepwalk(engine, DeepWalkConfig(walk_length=1), starts=[2] * 6000, rng=4)
        first_steps = [path[1] for path in result.paths]
        counts = {v: first_steps.count(v) for v in (1, 4, 5)}
        assert counts[1] > counts[4] > counts[5]
