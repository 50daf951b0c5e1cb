"""Inverse Transform Sampling (ITS) as a dynamic sampler.

ITS keeps the prefix sums of candidate biases and binary-searches a uniform
draw in ``[0, total_bias)``.  Sampling is O(log d); append-only insertion is
O(1) amortised (extend the prefix-sum array); deleting or changing an interior
candidate invalidates every later prefix and costs O(d).  These are the
"ITS" row costs in Table 1, and the structure used by the gSampler-style
baseline engine.
"""

from __future__ import annotations

import bisect
from dataclasses import replace

import numpy as np

from repro.errors import EmptySamplerError, SamplerStateError
from repro.sampling.base import DynamicSampler, SamplerKind
from repro.sampling.cost_model import OperationCounter
from repro.utils.rng import NumpySource, RandomSource, clone_rng, ensure_np_rng
from repro.utils.validation import check_bias

_FLOAT_BYTES = 8
_INT_BYTES = 8


class InverseTransformSampler(DynamicSampler):
    """CDF (prefix-sum) sampler with binary search."""

    kind = SamplerKind.ITS

    def __init__(self, *, rng: RandomSource = None, counter: OperationCounter | None = None) -> None:
        super().__init__(rng=rng, counter=counter)
        self._ids: list[int] = []
        self._biases: list[float] = []
        self._index: dict[int, int] = {}
        self._cumulative: list[float] = []
        self._dirty = False
        # NumPy mirrors of (ids, cumulative), built lazily for sample_batch.
        self._np_arrays: tuple[np.ndarray, np.ndarray] | None = None

    def clone(self) -> InverseTransformSampler:
        """An independent copy in the same state (generator state included)."""
        sampler = InverseTransformSampler.__new__(InverseTransformSampler)
        sampler._rng = clone_rng(self._rng)
        sampler.counter = replace(self.counter)
        sampler._ids = self._ids.copy()
        sampler._biases = self._biases.copy()
        sampler._index = self._index.copy()
        sampler._cumulative = self._cumulative.copy()
        sampler._dirty = self._dirty
        sampler._np_arrays = None
        return sampler

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, candidate: int, bias: float) -> None:
        check_bias(bias)
        if candidate in self._index:
            raise SamplerStateError(f"candidate {candidate} already present")
        self._index[candidate] = len(self._ids)
        self._ids.append(candidate)
        self._biases.append(float(bias))
        # Appending extends the prefix sums in O(1); no rebuild needed.
        previous = self._cumulative[-1] if self._cumulative else 0.0
        self._cumulative.append(previous + float(bias))
        self._np_arrays = None
        self.counter.touch(3)
        self.counter.arith(1)

    def insert_many(self, candidates, biases) -> None:
        """Bulk append-only insert (same state as repeated :meth:`insert`).

        The prefix sums are extended with one sequential ``np.cumsum`` seeded
        by the current running total, which accumulates left to right exactly
        like the scalar appends — the stored CDF is bit-identical.
        """
        candidates = np.ascontiguousarray(candidates, dtype=np.int64)
        biases = np.ascontiguousarray(biases, dtype=np.float64)
        count = len(candidates)
        if count == 0:
            return
        if len(biases) != count:
            raise SamplerStateError("candidates and biases must have matching lengths")
        finite = np.isfinite(biases)
        if not finite.all() or (biases[finite] <= 0).any():
            check_bias(float(biases[~(finite & (biases > 0))][0]))
        candidate_list = candidates.tolist()
        index = self._index
        for candidate in candidate_list:
            if candidate in index:
                raise SamplerStateError(f"candidate {candidate} already present")
        if len(set(candidate_list)) != count:
            raise SamplerStateError("duplicate candidates within one insert_many slice")
        start = len(self._ids)
        index.update(zip(candidate_list, range(start, start + count)))
        self._ids.extend(candidate_list)
        self._biases.extend(biases.tolist())
        previous = self._cumulative[-1] if self._cumulative else 0.0
        extended = np.cumsum(np.concatenate(([previous], biases)))
        self._cumulative.extend(extended[1:].tolist())
        self._np_arrays = None
        self.counter.touch(3 * count)
        self.counter.arith(count)

    def delete(self, candidate: int) -> None:
        if candidate not in self._index:
            raise SamplerStateError(f"candidate {candidate} not present")
        position = self._index.pop(candidate)
        self._ids.pop(position)
        self._biases.pop(position)
        for moved_position in range(position, len(self._ids)):
            self._index[self._ids[moved_position]] = moved_position
            self.counter.touch(1)
        self._dirty = True
        self.counter.touch(2)

    def update_bias(self, candidate: int, bias: float) -> None:
        check_bias(bias)
        if candidate not in self._index:
            raise SamplerStateError(f"candidate {candidate} not present")
        self._biases[self._index[candidate]] = float(bias)
        self._dirty = True
        self.counter.touch(1)

    # ------------------------------------------------------------------ #
    # CDF maintenance
    # ------------------------------------------------------------------ #
    def rebuild(self) -> None:
        """Recompute the prefix sums in O(d)."""
        running = 0.0
        cumulative: list[float] = []
        for bias in self._biases:
            running += bias
            cumulative.append(running)
            self.counter.arith(1)
            self.counter.touch(1)
        self._cumulative = cumulative
        self._dirty = False
        self._np_arrays = None

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> int:
        if not self._ids:
            raise EmptySamplerError("ITS sampler holds no candidates")
        if self._dirty:
            self.rebuild()
        total = self._cumulative[-1]
        draw = self._rng.random() * total
        self.counter.draw(1)
        position = bisect.bisect_right(self._cumulative, draw)
        if position >= len(self._ids):
            position = len(self._ids) - 1
        # Binary search cost: ceil(log2(d)) comparisons.
        self.counter.compare(max(1, (len(self._ids)).bit_length()))
        self.counter.touch(1)
        return self._ids[position]

    def sample_batch(self, count: int, rng: NumpySource = None) -> np.ndarray:
        """Draw ``count`` candidates at once via vectorized binary search.

        One uniform per draw, searched in the shared prefix-sum array with a
        single :func:`numpy.searchsorted` call — the batched form of exactly
        the scalar :meth:`sample` procedure.
        """
        if not self._ids:
            raise EmptySamplerError("ITS sampler holds no candidates")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        generator = ensure_np_rng(rng)
        ids, cumulative = self.numpy_tables()
        total = cumulative[-1]
        draws = generator.random(count) * total
        positions = np.searchsorted(cumulative, draws, side="right")
        np.clip(positions, 0, len(ids) - 1, out=positions)
        self.counter.draw(count)
        self.counter.compare(count * max(1, (len(self._ids)).bit_length()))
        self.counter.touch(count)
        return ids[positions]

    def numpy_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The (ids, cumulative) arrays as cached NumPy mirrors.

        Rebuilds first when dirty; used by :meth:`sample_batch` and by the
        gSampler engine's fused frontier kernel.
        """
        if self._dirty:
            self.rebuild()
        if self._np_arrays is None:
            self._np_arrays = (
                np.asarray(self._ids, dtype=np.int64),
                np.asarray(self._cumulative, dtype=np.float64),
            )
        return self._np_arrays

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ids)

    def candidates(self) -> list[tuple[int, float]]:
        return list(zip(self._ids, self._biases))

    def total_bias(self) -> float:
        return float(sum(self._biases))

    def memory_bytes(self) -> int:
        count = len(self._ids)
        return count * (_INT_BYTES + 2 * _FLOAT_BYTES) + count * _INT_BYTES

    def is_dirty(self) -> bool:
        """Whether the prefix sums are stale."""
        return self._dirty
