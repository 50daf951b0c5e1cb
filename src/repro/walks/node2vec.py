"""node2vec: second-order biased random walks (Grover & Leskovec).

The transition out of vertex ``u`` with previous vertex ``w`` multiplies the
static edge bias towards ``v`` by the factor of Equation (1):

* 1/p when ``v == w`` (backtrack),
* 1  when ``v`` is a neighbour of ``w`` (distance 1),
* 1/q otherwise (distance 2).

Bingo adopts KnightKing's strategy for second-order applications (Section
7.3): draw ``v`` from the *static* biased distribution (which Bingo samples in
O(1)) and accept it with probability ``f(w, v) / max_f``, retrying on
rejection.  That keeps the dynamic part structure-free while producing the
exact second-order distribution, and it is what :func:`run_node2vec` runs,
batched over the walk frontier — so every engine that can do first-order
sampling can run node2vec.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.utils.rng import AnyRngSource
from repro.utils.validation import check_positive_int
from repro.walks.frontier import run_frontier_node2vec
from repro.walks.walker import NeighborSampler, WalkResult, default_start_vertices


@dataclass(frozen=True)
class Node2VecConfig:
    """node2vec parameters (paper defaults: p = 0.5, q = 2, walk length 80)."""

    p: float = 0.5
    q: float = 2.0
    walk_length: int = 80
    walkers_per_vertex: int = 1

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q <= 0:
            raise ValueError("node2vec hyper-parameters p and q must be positive")
        check_positive_int(self.walk_length, "walk_length")
        check_positive_int(self.walkers_per_vertex, "walkers_per_vertex")

    @property
    def max_factor(self) -> float:
        """The rejection envelope: max(1/p, 1, 1/q)."""
        return max(1.0 / self.p, 1.0, 1.0 / self.q)

    def factor(self, engine: NeighborSampler, previous: int, candidate: int) -> float:
        """The second-order factor f(w, v) of Equation (1)."""
        if candidate == previous:
            return 1.0 / self.p
        if engine.has_edge(previous, candidate):
            return 1.0
        return 1.0 / self.q


def run_node2vec(
    engine: NeighborSampler,
    config: Node2VecConfig | None = None,
    *,
    starts: Sequence[int] | None = None,
    rng: AnyRngSource = None,
) -> WalkResult:
    """Run node2vec from every start vertex and return the collected paths.

    Every walker advances together through the batched walk frontier: the
    first step is a plain first-order draw, later steps draw from the
    static distribution and accept with probability ``f(w, v) / max_f``.
    ``rng`` (an int seed, NumPy generator, or Python generator) seeds its
    stream deterministically.
    """
    if config is None:
        config = Node2VecConfig()
    if starts is None:
        starts = default_start_vertices(engine.num_vertices(), config.walkers_per_vertex)
    return run_frontier_node2vec(
        engine,
        starts,
        config.walk_length,
        p=config.p,
        q=config.q,
        rng=rng,
    ).to_walk_result()


def exact_second_order_distribution(
    engine: NeighborSampler,
    neighbors: Sequence[int],
    biases: Sequence[float],
    previous: int,
    config: Node2VecConfig,
) -> list[float]:
    """The exact normalized second-order transition probabilities.

    Used by tests to verify that the static-sample + rejection procedure
    reproduces node2vec's distribution: P(v) ∝ bias(v) * f(previous, v).
    """
    weights = [
        bias * config.factor(engine, previous, neighbor)
        for neighbor, bias in zip(neighbors, biases)
    ]
    total = sum(weights)
    if total <= 0:
        return [0.0 for _ in weights]
    return [weight / total for weight in weights]
