"""Tests for Personalized PageRank walks."""

import pytest

from repro.engines.bingo import BingoEngine
from repro.walks.ppr import PPRConfig, ppr_scores, run_ppr


@pytest.fixture
def engine(example_graph):
    engine = BingoEngine(rng=3)
    engine.build(example_graph)
    return engine


class TestConfig:
    def test_defaults_match_paper(self):
        config = PPRConfig()
        assert config.termination_probability == pytest.approx(1 / 80)
        assert config.expected_length == pytest.approx(80.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PPRConfig(termination_probability=0.0)
        with pytest.raises(ValueError):
            PPRConfig(termination_probability=1.5)
        with pytest.raises(ValueError):
            PPRConfig(max_steps=0)


class TestWalks:
    def test_walk_starts_at_source(self, engine):
        result = run_ppr(engine, PPRConfig(), starts=[2] * 100, rng=1)
        assert all(path[0] == 2 for path in result.paths)

    def test_walk_respects_max_steps(self, engine):
        config = PPRConfig(termination_probability=0.001, max_steps=10)
        result = run_ppr(engine, config, starts=[0] * 100, rng=2)
        assert all(len(path) <= 11 for path in result.paths)

    def test_expected_length_roughly_matches_termination(self, engine):
        config = PPRConfig(termination_probability=0.2, max_steps=1000)
        result = run_ppr(engine, config, starts=[0] * 400, rng=3)
        # Expected number of steps is 1/0.2 = 5, so about 6 vertices per path.
        assert 4.0 < result.average_length() < 8.0

    def test_run_ppr_one_walker_per_vertex(self, engine, example_graph):
        result = run_ppr(engine, PPRConfig(termination_probability=0.25), rng=3)
        assert result.num_walks == example_graph.num_vertices


class TestScores:
    def test_scores_normalized(self, engine):
        scores = ppr_scores(engine, 2, num_walks=300, config=PPRConfig(0.2, 50), rng=5)
        assert sum(scores.values()) == pytest.approx(1.0)
        assert all(score >= 0 for score in scores.values())

    def test_source_has_high_score(self, engine):
        scores = ppr_scores(engine, 2, num_walks=300, config=PPRConfig(0.5, 50), rng=7)
        # With aggressive termination the source dominates its own PPR vector.
        assert scores[2] == max(scores.values())
