"""Tests for node2vec second-order walks."""

import pytest

from repro.engines import compiled
from repro.engines.bingo import BingoEngine
from repro.graph.dynamic_graph import DynamicGraph
from repro.walks.node2vec import (
    Node2VecConfig,
    exact_second_order_distribution,
    run_node2vec,
)
from tests.conftest import total_variation


@pytest.fixture
def engine(example_graph):
    engine = BingoEngine(rng=7)
    engine.build(example_graph)
    return engine


class TestConfig:
    def test_defaults_match_paper(self):
        config = Node2VecConfig()
        assert config.p == 0.5
        assert config.q == 2.0
        assert config.walk_length == 80

    def test_max_factor(self):
        assert Node2VecConfig(p=0.5, q=2.0).max_factor == 2.0
        assert Node2VecConfig(p=2.0, q=4.0).max_factor == 1.0

    def test_invalid_hyper_parameters(self):
        with pytest.raises(ValueError):
            Node2VecConfig(p=0)
        with pytest.raises(ValueError):
            Node2VecConfig(q=-1)


class TestSecondOrderFactor:
    def test_factor_cases(self, engine):
        config = Node2VecConfig(p=0.5, q=2.0)
        # Backtrack: candidate == previous.
        assert config.factor(engine, 1, 1) == pytest.approx(2.0)
        # Distance 1: the previous vertex has an edge to the candidate.
        assert config.factor(engine, 1, 2) == pytest.approx(1.0)
        # Distance 2: no edge from previous to candidate.
        assert config.factor(engine, 0, 5) == pytest.approx(0.5)


class TestWalks:
    def test_walk_structure(self, engine, example_graph):
        result = run_node2vec(
            engine, Node2VecConfig(walk_length=25), starts=[2] * 100, rng=1
        )
        for path in result.paths:
            assert path[0] == 2
            for src, dst in zip(path, path[1:]):
                assert example_graph.has_edge(src, dst)

    def test_run_one_walker_per_vertex(self, engine, example_graph):
        result = run_node2vec(engine, Node2VecConfig(walk_length=5), rng=2)
        assert result.num_walks == example_graph.num_vertices

    def test_low_p_encourages_backtracking(self):
        """With tiny p, walkers should return to the previous vertex often."""
        graph = DynamicGraph.from_edges(
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 0, 1), (0, 2, 1)]
        )
        engine = BingoEngine(rng=5)
        engine.build(graph)
        backtracks = {"low_p": 0, "high_p": 0}
        for label, p in (("low_p", 0.05), ("high_p", 20.0)):
            config = Node2VecConfig(p=p, q=1.0, walk_length=20)
            result = run_node2vec(engine, config, starts=[0] * 150, rng=11)
            for path in result.paths:
                backtracks[label] += sum(
                    1 for i in range(2, len(path)) if path[i] == path[i - 2]
                )
        assert backtracks["low_p"] > backtracks["high_p"]

    @pytest.mark.parametrize("driver", ["compiled", "numpy"])
    def test_rejection_reproduces_exact_second_order_distribution(
        self, example_graph, driver, monkeypatch
    ):
        """The static-sample + rejection step must match P(v) ∝ bias * f(w, v)."""
        if driver == "numpy":
            monkeypatch.setattr(compiled, "load", lambda: None)
        elif compiled.load() is None:
            pytest.skip("no C compiler: the NumPy driver runs")
        engine = BingoEngine(rng=13)
        engine.build(example_graph)
        config = Node2VecConfig(p=0.5, q=2.0, walk_length=2)
        previous = 1  # walker moved 1 -> 2; now at 2 choosing among {1, 4, 5}
        neighbors = [1, 4, 5]
        biases = [5.0, 4.0, 3.0]
        expected_list = exact_second_order_distribution(
            engine, neighbors, biases, previous, config
        )
        expected = dict(zip(neighbors, expected_list))

        result = run_node2vec(engine, config, starts=[previous] * 20_000, rng=3)
        second_steps = [path[2] for path in result.paths if path[1] == 2]
        assert len(second_steps) > 10_000
        counts = {v: second_steps.count(v) for v in neighbors}
        assert sum(counts.values()) == len(second_steps)
        empirical = {v: c / len(second_steps) for v, c in counts.items()}
        assert total_variation(empirical, expected) < 0.02

    def test_exact_distribution_normalizes(self, engine):
        config = Node2VecConfig()
        dist = exact_second_order_distribution(engine, [1, 4, 5], [5, 4, 3], 1, config)
        assert sum(dist) == pytest.approx(1.0)
