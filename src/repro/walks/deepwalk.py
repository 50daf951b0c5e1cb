"""Biased DeepWalk (Perozzi et al., extended to weighted graphs by Cochez et al.).

Each walker starts at its seed vertex and takes ``walk_length`` first-order
biased steps (transition probability proportional to edge bias).  The
resulting paths are what a downstream SkipGram model would consume; the
engine-facing cost is purely the repeated biased sampling the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.utils.rng import AnyRngSource
from repro.utils.validation import check_positive_int
from repro.walks.frontier import run_frontier_deepwalk
from repro.walks.walker import NeighborSampler, WalkResult, default_start_vertices


@dataclass(frozen=True)
class DeepWalkConfig:
    """DeepWalk parameters (paper defaults: walk length 80, one walker per vertex)."""

    walk_length: int = 80
    walkers_per_vertex: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.walk_length, "walk_length")
        check_positive_int(self.walkers_per_vertex, "walkers_per_vertex")


def run_deepwalk(
    engine: NeighborSampler,
    config: DeepWalkConfig | None = None,
    *,
    starts: Sequence[int] | None = None,
    rng: AnyRngSource = None,
) -> WalkResult:
    """Run DeepWalk for every start vertex and return the collected paths.

    When ``starts`` is omitted the paper's default placement is used: one
    walker per vertex of the current snapshot.  All walkers advance
    together through the batched walk frontier; ``rng`` (an int seed,
    NumPy generator, or Python generator) seeds its stream
    deterministically.  A walk stops early at a vertex with no out-edges.
    """
    if config is None:
        config = DeepWalkConfig()
    if starts is None:
        starts = default_start_vertices(engine.num_vertices(), config.walkers_per_vertex)
    return run_frontier_deepwalk(
        engine, starts, config.walk_length, rng=rng
    ).to_walk_result()
