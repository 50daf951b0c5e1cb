"""WalkFrontier's step contract: a step advances the whole alive set."""

import numpy as np
import pytest

from repro.engines.registry import create_engine
from repro.graph.generators import power_law_graph
from repro.walks.frontier import WalkFrontier


@pytest.fixture
def frontier():
    engine = create_engine("bingo", rng=1)
    engine.build(power_law_graph(50, 3, rng=2))
    return WalkFrontier(engine, range(10), 5, rng=3)


def test_step_accepts_a_copy_of_the_alive_set(frontier):
    walkers = frontier.alive_walkers().copy()
    assert frontier.advance(walkers, frontier.propose(walkers)) == frontier.alive_count()
    assert (frontier.matrix[:, 1] >= 0).sum() == frontier.alive_count()


def test_step_rejects_a_subset_of_the_alive_set(frontier):
    subset = np.array([1, 2])
    with pytest.raises(ValueError):
        frontier.propose(subset)
    with pytest.raises(ValueError):
        frontier.advance(subset, np.array([0, 0]))
    assert frontier.steps_taken == 0


def test_kill_retires_walkers(frontier):
    frontier.kill(np.array([0, 7]))
    assert frontier.alive_count() == 8
    assert not frontier.alive[0] and not frontier.alive[7] and frontier.alive[1]
    walkers = frontier.alive_walkers()
    assert 0 not in walkers and 7 not in walkers
    frontier.advance(walkers, frontier.propose(walkers))
    assert frontier.matrix[0, 1] == -1 and frontier.matrix[7, 1] == -1
