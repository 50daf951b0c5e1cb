"""The alias method (Walker/Vose) as a dynamic sampler.

The alias table delivers O(1) sampling but any bias change requires a full
O(d) rebuild, which is exactly the weakness Bingo's radix factorization
attacks (Table 1, row "Alias Method").  The engine emulating KnightKing uses
this structure per vertex and rebuilds it on every update.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np

from repro.errors import EmptySamplerError, SamplerStateError
from repro.sampling.base import DynamicSampler, SamplerKind
from repro.sampling.cost_model import OperationCounter
from repro.utils.rng import NumpySource, RandomSource, clone_rng, ensure_np_rng, ensure_rng
from repro.utils.validation import check_bias

_FLOAT_BYTES = 8
_INT_BYTES = 8


class AliasTable(DynamicSampler):
    """Vose's alias method over a dynamic candidate set.

    The candidate list is kept as parallel arrays; every structural change
    marks the alias table dirty and the next :meth:`sample` (or an explicit
    :meth:`rebuild`) reconstructs it in O(d).
    """

    kind = SamplerKind.ALIAS

    def __init__(self, *, rng: RandomSource = None, counter: OperationCounter | None = None) -> None:
        super().__init__(rng=rng, counter=counter)
        self._ids: list[int] = []
        self._biases: list[float] = []
        self._index: dict[int, int] = {}
        self._prob: list[float] = []
        self._alias: list[int] = []
        self._dirty = True
        self.rebuild_count = 0
        # NumPy mirrors of the alias arrays, built lazily for sample_batch.
        self._np_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_built(
        cls,
        ids: list[int],
        biases: list[float],
        prob: list[float],
        alias: list[int],
        *,
        rng: RandomSource = None,
        counter: OperationCounter | None = None,
    ) -> AliasTable:
        """Adopt prebuilt alias arrays (the batched-rebuild fast path).

        ``prob``/``alias`` must be exactly what :meth:`rebuild` would produce
        for the given candidates — e.g. the output of
        :func:`repro.core.batch_rebuild.batch_vose` — so a table adopted here
        is indistinguishable from one built by the scalar path.  The lists
        are adopted *by reference* (one table is assembled per touched vertex
        per batch); callers must not mutate them afterwards.  Empty inputs
        yield an empty, still-dirty table, matching a freshly constructed one.
        """
        table = cls.__new__(cls)
        table._rng = ensure_rng(rng)
        table.counter = counter if counter is not None else OperationCounter()
        table._ids = ids
        table._biases = biases
        table._index = dict(zip(ids, range(len(ids))))
        table._prob = prob
        table._alias = alias
        table._dirty = not ids
        table.rebuild_count = 1 if ids else 0
        table._np_arrays = None
        return table

    def clone(
        self, *, rng: random.Random | None = None, counter: OperationCounter | None = None
    ) -> AliasTable:
        """An independent copy in the same state.

        ``rng`` / ``counter`` replace the generator and the counter (a
        Bingo sampler hands its inter-group table its own); by default
        they are copied.
        """
        table = AliasTable.__new__(AliasTable)
        table._rng = rng if rng is not None else clone_rng(self._rng)
        table.counter = counter if counter is not None else replace(self.counter)
        table._ids = self._ids.copy()
        table._biases = self._biases.copy()
        table._index = self._index.copy()
        table._prob = self._prob.copy()
        table._alias = self._alias.copy()
        table._dirty = self._dirty
        table.rebuild_count = self.rebuild_count
        table._np_arrays = None
        return table

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
        self._dirty = True
        self.counter.touch(2)

    def insert_many(self, candidates, biases) -> None:
        """Bulk insert (same state as repeated :meth:`insert`, one pass).

        Validation runs vectorized over the slice; the candidate arrays are
        extended in order, so the table is indistinguishable from one built
        with scalar inserts.
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
        self._dirty = True
        self.counter.touch(2 * count)

    def delete(self, candidate: int) -> None:
        if candidate not in self._index:
            raise SamplerStateError(f"candidate {candidate} not present")
        position = self._index.pop(candidate)
        last = len(self._ids) - 1
        if position != last:
            moved = self._ids[last]
            self._ids[position] = moved
            self._biases[position] = self._biases[last]
            self._index[moved] = position
        self._ids.pop()
        self._biases.pop()
        self._dirty = True
        self.counter.touch(3)

    def update_bias(self, candidate: int, bias: float) -> None:
        check_bias(bias)
        if candidate not in self._index:
            raise SamplerStateError(f"candidate {candidate} not present")
        self._biases[self._index[candidate]] = float(bias)
        self._dirty = True
        self.counter.touch(1)

    # ------------------------------------------------------------------ #
    # alias construction (Vose's O(d) algorithm)
    # ------------------------------------------------------------------ #
    def rebuild(self) -> None:
        """Reconstruct the alias table from the current candidate arrays."""
        count = len(self._ids)
        self.rebuild_count += 1
        if count == 0:
            self._prob = []
            self._alias = []
            self._dirty = False
            self._np_arrays = None
            return
        total = sum(self._biases)
        self.counter.arith(count)
        if total <= 0:
            raise SamplerStateError("total bias must be positive")

        scaled = [bias * count / total for bias in self._biases]
        self.counter.arith(count)
        small: list[int] = []
        large: list[int] = []
        for position, value in enumerate(scaled):
            self.counter.compare(1)
            if value < 1.0:
                small.append(position)
            else:
                large.append(position)

        prob = [0.0] * count
        alias = list(range(count))
        while small and large:
            small_index = small.pop()
            large_index = large.pop()
            prob[small_index] = scaled[small_index]
            alias[small_index] = large_index
            scaled[large_index] = scaled[large_index] + scaled[small_index] - 1.0
            self.counter.touch(4)
            self.counter.arith(2)
            self.counter.compare(1)
            if scaled[large_index] < 1.0:
                small.append(large_index)
            else:
                large.append(large_index)
        for remaining in large + small:
            prob[remaining] = 1.0
            self.counter.touch(1)

        self._prob = prob
        self._alias = alias
        self._dirty = False
        self._np_arrays = None

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> int:
        if not self._ids:
            raise EmptySamplerError("alias table holds no candidates")
        if self._dirty:
            self.rebuild()
        bucket = self._rng.randrange(len(self._ids))
        toss = self._rng.random()
        self.counter.draw(2)
        self.counter.compare(1)
        self.counter.touch(2)
        if toss < self._prob[bucket]:
            return self._ids[bucket]
        return self._ids[self._alias[bucket]]

    def sample_batch(self, count: int, rng: NumpySource = None) -> np.ndarray:
        """Draw ``count`` candidates at once with the vectorized alias kernel.

        Semantically identical to ``count`` calls to :meth:`sample`: one
        uniform bucket and one toss per draw, resolved through the same
        prob/alias arrays.  Draws come from a NumPy generator so a whole
        walk frontier can consume one stream.
        """
        if not self._ids:
            raise EmptySamplerError("alias table holds no candidates")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        generator = ensure_np_rng(rng)
        ids, prob, alias = self.numpy_tables()
        buckets = generator.integers(0, len(ids), size=count)
        toss = generator.random(count)
        self.counter.draw(2 * count)
        self.counter.compare(count)
        self.counter.touch(2 * count)
        chosen = np.where(toss < prob[buckets], buckets, alias[buckets])
        return ids[chosen]

    def numpy_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (ids, prob, alias) arrays as cached NumPy mirrors.

        Rebuilds first when dirty; used by :meth:`sample_batch` and by the
        Bingo vertex sampler's fused inter-group draw.
        """
        if self._dirty:
            self.rebuild()
        if self._np_arrays is None:
            self._np_arrays = (
                np.asarray(self._ids, dtype=np.int64),
                np.asarray(self._prob, dtype=np.float64),
                np.asarray(self._alias, dtype=np.int64),
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
        # ids + biases + prob + alias arrays, plus the position index.
        return count * (2 * _INT_BYTES + 2 * _FLOAT_BYTES) + count * 2 * _INT_BYTES

    def is_dirty(self) -> bool:
        """Whether the alias arrays are stale relative to the candidate set."""
        return self._dirty
