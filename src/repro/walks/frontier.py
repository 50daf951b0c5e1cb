"""Batched walk-frontier execution engine.

The paper's throughput numbers come from advancing *many* walkers per kernel
launch, not one walker per Python loop iteration.  This module reproduces
that execution model on the host: the alive walkers and their current
vertices live in two compact NumPy vectors, and each step hands the whole
vertex vector to the engine's
:meth:`~repro.engines.base.RandomWalkEngine.sample_frontier` kernel — a
fused whole-frontier draw for Bingo, KnightKing and gSampler, or a
group-by-vertex dispatch onto the vectorized batch kernel for FlowWalker.
A step costs that one kernel call plus a few NumPy calls; node2vec adds one
vectorized :meth:`~repro.engines.base.RandomWalkEngine.has_arcs` edge probe
per rejection round.  On the fused engines DeepWalk, PPR and node2vec skip
the Python step loop altogether when the compiled kernel loads:
:meth:`~repro.engines.base.RandomWalkEngine.compiled_walk` runs the whole
walk in one foreign call, with the same generator calls in the same order.

This is the only walk driver: ``run_deepwalk``, ``run_ppr`` and
``run_node2vec`` run on it.  The result is a dense walk matrix
(walkers × steps, ``-1`` padded) that converts to a
:class:`~repro.walks.walker.WalkResult` when the application wants paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.errors import SamplerStateError
from repro.utils.rng import AnyRngSource, coerce_np_rng
from repro.walks.walker import WalkResult

#: Initial number of matrix columns for open-ended (PPR-style) walks.
_INITIAL_COLUMNS = 129

#: Safety valve for the node2vec acceptance loop (expected trials are tiny).
_MAX_REJECTION_ROUNDS = 10_000


@dataclass
class BatchedWalks:
    """The dense output of a frontier run: one row per walker.

    ``matrix[i, j]`` is the vertex of walker ``i`` after ``j`` steps, or
    ``-1`` once the walk has ended.  Column 0 holds the start vertices.
    """

    matrix: np.ndarray

    @property
    def num_walks(self) -> int:
        return int(self.matrix.shape[0])

    def lengths(self) -> np.ndarray:
        """Number of vertices in each walk (≥ 1: the start always counts)."""
        return (self.matrix >= 0).sum(axis=1)

    @property
    def total_steps(self) -> int:
        """Total edges traversed across all walks."""
        return int((self.lengths() - 1).sum())

    def paths(self) -> list[list[int]]:
        """The walks as plain vertex lists (padding stripped)."""
        lengths = self.lengths()
        return [
            [int(v) for v in row[:length]]
            for row, length in zip(self.matrix, lengths)
        ]

    def to_walk_result(self) -> WalkResult:
        """Convert to the path-list result type the applications return."""
        result = WalkResult()
        for path in self.paths():
            result.add(path)
        return result


class WalkFrontier:
    """N concurrent walkers advanced one step at a time as NumPy vectors.

    The alive walkers are kept compact: their row indices (ascending) and
    their current vertices live in two aligned arrays, so a step hands the
    vertex array straight to the engine's kernel and a step nobody dies in
    costs one column write and one reassignment.  Deaths compact both
    arrays with one boolean mask.
    """

    #: Rejection rounds a node2vec step may take before it gives up.
    max_rejection_rounds = _MAX_REJECTION_ROUNDS

    def __init__(
        self,
        engine,
        starts: Sequence[int],
        walk_length: int,
        *,
        rng: AnyRngSource = None,
    ) -> None:
        if walk_length < 1:
            raise ValueError("walk_length must be positive")
        self.engine = engine
        # Accepts ints, NumPy generators, and (deterministically derived)
        # Python generators, so a harness holding a random.Random can seed
        # the frontier reproducibly.
        self.rng = coerce_np_rng(rng)
        self.walk_length = int(walk_length)
        if not isinstance(starts, np.ndarray):
            starts = list(starts)  # any iterable, generators included
        vertices = np.array(starts, dtype=np.int64)
        if vertices.ndim != 1:
            raise ValueError("starts must be a flat sequence of vertex ids")
        size = len(vertices)
        self._walkers = np.arange(size, dtype=np.int64)
        self._vertices = vertices
        columns = min(self.walk_length + 1, _INITIAL_COLUMNS)
        self.matrix = np.full((size, columns), -1, dtype=np.int64)
        if size:
            self.matrix[:, 0] = vertices
        self.steps_taken = 0

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> np.ndarray:
        """Boolean mask over all walkers: which still step."""
        mask = np.zeros(self.matrix.shape[0], dtype=bool)
        mask[self._walkers] = True
        return mask

    def alive_count(self) -> int:
        return len(self._walkers)

    def alive_walkers(self) -> np.ndarray:
        """Indices of walkers that still step, ascending."""
        return self._walkers

    def alive_vertices(self) -> np.ndarray:
        """Current vertices of the alive walkers, aligned with :meth:`alive_walkers`."""
        return self._vertices

    def kill(self, walkers: np.ndarray) -> None:
        """Retire the given walker indices (their rows stop growing)."""
        self._retain(np.isin(self._walkers, walkers, invert=True))

    def _retain(self, keep: np.ndarray) -> None:
        """Keep the alive walkers where the (alive-aligned) mask is true."""
        self._walkers = self._walkers[keep]
        self._vertices = self._vertices[keep]

    def _check_alive_set(self, walkers: np.ndarray) -> None:
        if walkers is not self._walkers and not np.array_equal(walkers, self._walkers):
            raise ValueError("a step takes the whole alive set: pass alive_walkers()")

    # ------------------------------------------------------------------ #
    # the batched sampling step
    # ------------------------------------------------------------------ #
    def propose(self, walkers: np.ndarray) -> np.ndarray:
        """One biased neighbour draw per alive walker.

        ``walkers`` is :meth:`alive_walkers`.  Their vertices go to the
        engine's :meth:`~repro.engines.base.RandomWalkEngine.sample_frontier`,
        which either runs a fused whole-frontier kernel or partitions by
        vertex and serves each group with one vectorized kernel call.
        Entries are ``-1`` where the walker sits on a sink vertex.
        """
        self._check_alive_set(walkers)
        if len(walkers) == 0:
            return np.empty(0, dtype=np.int64)
        return self.engine.sample_frontier(self._vertices, self.rng)

    def advance(self, walkers: np.ndarray, next_vertices: np.ndarray) -> int:
        """Commit one step: walkers with a ``-1`` draw die, the rest move.

        ``walkers`` is :meth:`alive_walkers` and ``next_vertices`` its
        :meth:`propose` draws.  Returns the number of walkers still alive.
        The alive set only ever shrinks — a retired walker can never be
        stepped again.
        """
        self._check_alive_set(walkers)
        self.steps_taken += 1
        self.ensure_columns(self.steps_taken + 1)
        # Dying walkers write -1 over a column that is already -1.
        self.matrix[walkers, self.steps_taken] = next_vertices
        moving = next_vertices >= 0
        if moving.all():
            self._vertices = next_vertices
        else:
            self._walkers = walkers[moving]
            self._vertices = next_vertices[moving]
        return len(self._walkers)

    def resume(self, walkers: np.ndarray, vertices: np.ndarray, steps_taken: int) -> None:
        """Adopt the state of a walk advanced outside :meth:`advance`.

        The compiled kernel (:meth:`~repro.engines.base.FusedFrontierEngine.compiled_walk`)
        writes the walk matrix itself and hands back the alive walkers,
        their vertices and the steps taken.
        """
        self._walkers = walkers
        self._vertices = vertices
        self.steps_taken = steps_taken

    def ensure_columns(self, needed: int) -> None:
        """Widen the walk matrix (doubling) unless ``needed`` < its width."""
        rows, columns = self.matrix.shape
        if needed < columns:
            return
        grown = min(self.walk_length + 1, max(needed + 1, 2 * columns))
        extension = np.full((rows, grown - columns), -1, dtype=np.int64)
        self.matrix = np.hstack([self.matrix, extension])

    def finish(self) -> BatchedWalks:
        """Package the (trimmed) walk matrix.

        An empty frontier takes no steps, so trimming would collapse the
        matrix to ``(0, 1)``; downstream consumers stacking ticket results
        rely on the declared ``(0, walk_length + 1)`` width instead.
        """
        if self.matrix.shape[0] == 0:
            return BatchedWalks(
                matrix=np.full((0, self.walk_length + 1), -1, dtype=np.int64)
            )
        return BatchedWalks(matrix=self.matrix[:, : self.steps_taken + 1])


# --------------------------------------------------------------------------- #
# application drivers
# --------------------------------------------------------------------------- #
def run_frontier_deepwalk(
    engine,
    starts: Sequence[int],
    walk_length: int,
    *,
    rng: AnyRngSource = None,
) -> BatchedWalks:
    """DeepWalk for every start vertex, executed as one batched frontier."""
    frontier = WalkFrontier(engine, starts, walk_length, rng=rng)
    if engine.compiled_walk(frontier):
        return frontier.finish()
    for _ in range(walk_length):
        walkers = frontier.alive_walkers()
        if len(walkers) == 0:
            break
        frontier.advance(walkers, frontier.propose(walkers))
    return frontier.finish()


def run_frontier_ppr(
    engine,
    starts: Sequence[int],
    *,
    termination_probability: float,
    max_steps: int,
    rng: AnyRngSource = None,
) -> BatchedWalks:
    """Terminating (PPR) walks as a batched frontier.

    Before every step each alive walker flips the termination coin from the
    shared generator — one vectorized draw for the whole frontier — and the
    survivors advance together.
    """
    if not 0.0 < termination_probability <= 1.0:
        raise ValueError("termination_probability must lie in (0, 1]")
    frontier = WalkFrontier(engine, starts, max_steps, rng=rng)
    if engine.compiled_walk(frontier, termination_probability=termination_probability):
        return frontier.finish()
    for _ in range(max_steps):
        alive = frontier.alive_count()
        if alive == 0:
            break
        survive = frontier.rng.random(alive) >= termination_probability
        if not survive.all():
            frontier._retain(survive)
        walkers = frontier.alive_walkers()
        if len(walkers) == 0:
            break
        frontier.advance(walkers, frontier.propose(walkers))
    return frontier.finish()


def run_frontier_node2vec(
    engine,
    starts: Sequence[int],
    walk_length: int,
    *,
    p: float,
    q: float,
    rng: AnyRngSource = None,
) -> BatchedWalks:
    """node2vec as a batched frontier (static draw + vectorized rejection).

    The first step of every walker is a plain first-order draw.  Later steps
    follow the KnightKing strategy batched: the whole pending frontier
    proposes from the static distribution in one kernel call, the
    Equation (1) factors are evaluated against the walkers' previous
    vertices — backtracks and the default ``1/q`` vectorize, and the
    distance-1 case is one :meth:`~repro.engines.base.RandomWalkEngine.has_arcs`
    probe per rejection round — and one vectorized coin flip accepts or
    returns each walker to the pending set.  On the fused engines the
    compiled kernel runs the same rounds, reading the distance-1 test from
    the engine's sorted adjacency store.
    """
    # Plain floats: the compiled rounds evaluate Equation (1) in float64.
    p, q = float(p), float(q)
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise ValueError("node2vec hyper-parameters p and q must be positive and finite")
    frontier = WalkFrontier(engine, starts, walk_length, rng=rng)
    if engine.compiled_walk(frontier, node2vec=(p, q)):
        return frontier.finish()
    # Aligned with the compact alive set, like the frontier's own vertices.
    previous = np.empty(0, dtype=np.int64)
    for step in range(walk_length):
        walkers = frontier.alive_walkers()
        if len(walkers) == 0:
            break
        if step == 0:
            resolved = frontier.propose(walkers)
        else:
            resolved = _node2vec_step(engine, frontier, previous, p, q)
        previous = frontier.alive_vertices()
        frontier.advance(walkers, resolved)
        if frontier.alive_count() < len(walkers):
            previous = previous[resolved >= 0]
    return frontier.finish()


def _node2vec_step(engine, frontier, previous, p, q):
    """Rejection-sample one node2vec step for every alive walker.

    Works on positions in the compact alive set, so ``previous`` and the
    frontier's vertices need no per-walker gather.  Returns the accepted
    draws aligned with the alive set, ``-1`` for walkers on sinks.
    """
    envelope = max(1.0 / p, 1.0, 1.0 / q)
    vertices = frontier.alive_vertices()
    resolved = np.full(len(vertices), -1, dtype=np.int64)
    pending = np.arange(len(vertices))
    for _ in range(frontier.max_rejection_rounds):
        proposals = engine.sample_frontier(vertices[pending], frontier.rng)
        # Sink walkers are resolved as dead; the rest face the acceptance
        # test against their previous vertex.
        live = proposals >= 0
        candidates = pending[live]
        if len(candidates) == 0:
            return resolved
        drawn = proposals[live]
        befores = previous[candidates]
        # Equation (1): 1/p for a backtrack, 1 at distance 1, else 1/q.
        factors = np.where(engine.has_arcs(befores, drawn), 1.0, 1.0 / q)
        factors[drawn == befores] = 1.0 / p
        accepted = frontier.rng.random(len(candidates)) < factors / envelope
        resolved[candidates[accepted]] = drawn[accepted]
        pending = candidates[~accepted]
        if len(pending) == 0:
            return resolved
    raise SamplerStateError(
        "node2vec frontier rejection failed to accept; check p/q values"
    )
