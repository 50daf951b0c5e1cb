"""Personalized PageRank via terminating random walks.

The paper configures PPR with a per-step termination probability of 1/80,
giving an expected walk length of 80, launches one walker per vertex, and
derives the PPR scores from visit frequencies (Section 1 / 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.utils.rng import AnyRngSource
from repro.utils.validation import check_positive_int, check_probability
from repro.walks.frontier import run_frontier_ppr
from repro.walks.walker import NeighborSampler, WalkResult, default_start_vertices


@dataclass(frozen=True)
class PPRConfig:
    """PPR parameters (paper default: termination probability 1/80)."""

    termination_probability: float = 1.0 / 80.0
    max_steps: int = 10_000
    walkers_per_vertex: int = 1

    def __post_init__(self) -> None:
        check_probability(self.termination_probability, "termination_probability")
        if self.termination_probability == 0.0:
            raise ValueError("termination_probability must be positive")
        check_positive_int(self.max_steps, "max_steps")
        check_positive_int(self.walkers_per_vertex, "walkers_per_vertex")

    @property
    def expected_length(self) -> float:
        """Expected number of steps before termination (1 / termination prob)."""
        return 1.0 / self.termination_probability


def run_ppr(
    engine: NeighborSampler,
    config: PPRConfig | None = None,
    *,
    starts: Sequence[int] | None = None,
    rng: AnyRngSource = None,
) -> WalkResult:
    """Run PPR walks from every start vertex and return the collected paths.

    Before every step each alive walker flips the termination coin, and
    the survivors advance together through the batched walk frontier;
    ``rng`` (an int seed, NumPy generator, or Python generator) seeds its
    stream deterministically.  A walk also ends at a vertex with no
    out-edges or after ``config.max_steps`` steps.
    """
    if config is None:
        config = PPRConfig()
    if starts is None:
        starts = default_start_vertices(engine.num_vertices(), config.walkers_per_vertex)
    return run_frontier_ppr(
        engine,
        starts,
        termination_probability=config.termination_probability,
        max_steps=config.max_steps,
        rng=rng,
    ).to_walk_result()


def ppr_scores(
    engine: NeighborSampler,
    source: int,
    *,
    num_walks: int = 1000,
    config: PPRConfig | None = None,
    rng: AnyRngSource = None,
) -> dict[int, float]:
    """Monte Carlo PPR scores for a single source vertex.

    Launches ``num_walks`` terminating walks from ``source`` as one
    frontier run and returns the normalized visit frequencies, the
    estimator the paper's motivating applications (recommendation, fraud
    detection) consume.
    """
    result = run_ppr(engine, config, starts=[source] * num_walks, rng=rng)
    counter = result.visit_counter()
    return {vertex: counter.frequency(vertex) for vertex in counter.counts}
