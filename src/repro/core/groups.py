"""Intra-group structures: radix groups and the decimal group.

A :class:`RadixGroup` holds, for one vertex and one bit position ``k``, the
set of *neighbour indices* (positions in the vertex's neighbour list) whose
bias has bit ``k`` set.  Every member carries the identical sub-bias ``2^k``,
so membership alone determines the group weight and intra-group sampling is
uniform.

The group's *representation* follows the adaptive scheme of Section 5.1
(:class:`~repro.core.adaptive.GroupKind`):

* list-backed kinds (regular / sparse / one-element) keep a compact member
  array plus an inverted index (member -> slot) enabling the O(1)
  delete-and-swap of Figure 6;
* the dense kind keeps only a member count and samples by rejection against
  the vertex's bias array, using ``bias & 2^k`` as the acceptance test.

The :class:`DecimalGroup` is the extra group of Section 4.3 that absorbs the
fractional parts of λ-scaled floating-point biases; it is sampled with
rejection (the paper allows ITS or rejection) and its total weight is kept
below ``1/d`` of the vertex weight by the choice of λ.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np

from repro.core.adaptive import GroupKind
from repro.errors import SamplerStateError
from repro.sampling.cost_model import OperationCounter


class RadixGroup:
    """Members of one radix group, under a switchable representation."""

    __slots__ = ("position", "kind", "members", "_slots", "_count", "_np_members")

    def __init__(self, position: int, kind: GroupKind = GroupKind.REGULAR) -> None:
        self.position = int(position)
        self.kind = kind
        #: compact member list (neighbour indices); unused in dense mode
        self.members: list[int] = []
        #: inverted index behind :attr:`slots` (``None`` until first use)
        self._slots: dict[int, int] | None = {}
        #: member count (the only state kept in dense mode)
        self._count = 0
        #: NumPy mirror of ``members``, built lazily for sample_batch
        self._np_members: np.ndarray | None = None

    @classmethod
    def built(
        cls, position: int, kind: GroupKind, members: list[int], count: int
    ) -> RadixGroup:
        """A group holding ``count`` members, listed in ``members``.

        ``members`` is adopted by reference; it must be empty for the dense
        kind, which keeps only the count.  The inverted index is built on
        first use.
        """
        group = cls.__new__(cls)
        group.position = position
        group.kind = kind
        group.members = members
        group._slots = None
        group._count = count
        group._np_members = None
        return group

    def clone(self) -> RadixGroup:
        """An independent copy (the member list and index are copied)."""
        group = RadixGroup.__new__(RadixGroup)
        group.position = self.position
        group.kind = self.kind
        group.members = self.members.copy()
        group._slots = None if self._slots is None else self._slots.copy()
        group._count = self._count
        group._np_members = None
        return group

    @property
    def slots(self) -> dict[int, int]:
        """Inverted index: neighbour index -> slot in ``members`` (list kinds).

        A cold build leaves it unbuilt; the first update or query builds it
        from ``members`` in one pass.
        """
        slots = self._slots
        if slots is None:
            slots = self._slots = dict(zip(self.members, range(len(self.members))))
        return slots

    @slots.setter
    def slots(self, value: dict[int, int]) -> None:
        self._slots = value

    # ------------------------------------------------------------------ #
    # size / weight
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._count

    @property
    def sub_bias(self) -> int:
        """The identical sub-bias 2^k carried by every member."""
        return 1 << self.position

    def weight(self) -> int:
        """W(p_k) = |G_k| * 2^k (Equation 4)."""
        return self._count * self.sub_bias

    def is_dense(self) -> bool:
        """Whether the group currently uses the structure-free dense representation."""
        return self.kind is GroupKind.DENSE

    # ------------------------------------------------------------------ #
    # membership updates
    # ------------------------------------------------------------------ #
    def add(self, neighbor_index: int, counter: OperationCounter | None = None) -> None:
        """Add a member (the neighbour's bias has bit ``position`` set)."""
        self._count += 1
        self._np_members = None
        if self.kind is GroupKind.DENSE:
            if counter is not None:
                counter.arith(1)
            return
        if neighbor_index in self.slots:
            raise SamplerStateError(
                f"neighbor index {neighbor_index} already in group 2^{self.position}"
            )
        self.slots[neighbor_index] = len(self.members)
        self.members.append(neighbor_index)
        if counter is not None:
            counter.touch(2)

    def remove(self, neighbor_index: int, counter: OperationCounter | None = None) -> None:
        """Remove a member with the delete-and-swap of Figure 6 (O(1))."""
        if self._count <= 0:
            raise SamplerStateError(f"group 2^{self.position} is already empty")
        self._count -= 1
        self._np_members = None
        if self.kind is GroupKind.DENSE:
            if counter is not None:
                counter.arith(1)
            return
        if neighbor_index not in self.slots:
            raise SamplerStateError(
                f"neighbor index {neighbor_index} not in group 2^{self.position}"
            )
        slot = self.slots.pop(neighbor_index)
        last_slot = len(self.members) - 1
        if slot != last_slot:
            moved = self.members[last_slot]
            self.members[slot] = moved
            self.slots[moved] = slot
        self.members.pop()
        if counter is not None:
            counter.touch(3)

    def rename(self, old_index: int, new_index: int, counter: OperationCounter | None = None) -> None:
        """Re-point a member after the vertex neighbour list moved it.

        When the vertex sampler deletes a neighbour it relocates the tail of
        its neighbour list into the vacated slot; every group containing the
        relocated neighbour must update its stored index.  O(1) via the
        inverted index; a no-op for dense groups (membership is implicit).
        """
        if self.kind is GroupKind.DENSE:
            return
        if old_index == new_index:
            return
        if old_index not in self.slots:
            raise SamplerStateError(
                f"neighbor index {old_index} not in group 2^{self.position}"
            )
        slot = self.slots.pop(old_index)
        self.members[slot] = new_index
        self.slots[new_index] = slot
        self._np_members = None
        if counter is not None:
            counter.touch(2)

    def contains(self, neighbor_index: int) -> bool:
        """Membership test (list-backed kinds only)."""
        if self.kind is GroupKind.DENSE:
            raise SamplerStateError("dense groups do not support membership queries")
        return neighbor_index in self.slots

    # ------------------------------------------------------------------ #
    # representation changes
    # ------------------------------------------------------------------ #
    def convert(
        self,
        new_kind: GroupKind,
        *,
        integer_parts: Sequence[int] | None = None,
        counter: OperationCounter | None = None,
    ) -> None:
        """Switch to ``new_kind``, rebuilding structures if required.

        Converting *from* the dense representation needs the vertex's
        integer bias array (``integer_parts``) to rediscover membership,
        which costs O(d) — the expensive case the batched-update workflow
        defers to its rebuild phase (Section 5.2).
        """
        if new_kind is self.kind:
            return
        if self.kind is GroupKind.DENSE and new_kind is not GroupKind.DENSE:
            if integer_parts is None:
                raise SamplerStateError(
                    "converting a dense group to a list-backed kind requires the "
                    "vertex integer bias array"
                )
            mask = self.sub_bias
            self.members = [
                index for index, value in enumerate(integer_parts) if value & mask
            ]
            self.slots = {index: slot for slot, index in enumerate(self.members)}
            self._count = len(self.members)
            if counter is not None:
                counter.touch(len(integer_parts))
        elif new_kind is GroupKind.DENSE:
            # Dropping to dense discards the member structures.
            self.members = []
            self.slots = {}
            if counter is not None:
                counter.touch(1)
        self._np_members = None
        self.kind = new_kind

    # ------------------------------------------------------------------ #
    # intra-group sampling
    # ------------------------------------------------------------------ #
    def sample(
        self,
        rng: random.Random,
        *,
        integer_parts: Sequence[int] | None = None,
        counter: OperationCounter | None = None,
        max_trials: int = 1_000_000,
    ) -> int:
        """Uniformly sample a member neighbour index.

        List-backed kinds index the member array directly (O(1)).  Dense
        groups run the rejection loop of Section 5.1: propose a uniform
        neighbour from the vertex list and accept when its bias has the
        group's bit set.  The rejection probability is below 1 − α% by the
        density threshold.
        """
        if self._count == 0:
            raise SamplerStateError(f"group 2^{self.position} is empty")
        if self.kind is not GroupKind.DENSE:
            slot = rng.randrange(len(self.members))
            if counter is not None:
                counter.draw(1)
                counter.touch(1)
            return self.members[slot]
        if integer_parts is None:
            raise SamplerStateError("dense-group sampling requires the vertex bias array")
        mask = self.sub_bias
        degree = len(integer_parts)
        for _ in range(max_trials):
            index = rng.randrange(degree)
            if counter is not None:
                counter.draw(1)
                counter.touch(1)
                counter.compare(1)
            if integer_parts[index] & mask:
                return index
        raise SamplerStateError(
            f"dense-group rejection sampling exceeded {max_trials} trials"
        )

    def sample_batch(
        self,
        count: int,
        rng: np.random.Generator,
        *,
        integer_parts: np.ndarray | None = None,
        counter: OperationCounter | None = None,
        max_rounds: int = 10_000,
    ) -> np.ndarray:
        """Uniformly sample ``count`` member neighbour indices at once.

        List-backed kinds index the member array with one vector of uniform
        slots.  Dense groups run the Section 5.1 rejection loop vectorized:
        every still-pending draw proposes a uniform neighbour per round and
        accepts when the group's bit is set in its integer bias.
        """
        if self._count == 0:
            raise SamplerStateError(f"group 2^{self.position} is empty")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if self.kind is not GroupKind.DENSE:
            if self._np_members is None:
                self._np_members = np.asarray(self.members, dtype=np.int64)
            slots = rng.integers(0, len(self.members), size=count)
            if counter is not None:
                counter.draw(count)
                counter.touch(count)
            return self._np_members[slots]
        if integer_parts is None:
            raise SamplerStateError("dense-group sampling requires the vertex bias array")
        mask = self.sub_bias
        degree = len(integer_parts)
        out = np.empty(count, dtype=np.int64)
        pending = np.arange(count)
        for _ in range(max_rounds):
            proposals = rng.integers(0, degree, size=len(pending))
            if counter is not None:
                counter.draw(len(pending))
                counter.touch(len(pending))
                counter.compare(len(pending))
            accepted = (integer_parts[proposals] & mask) != 0
            out[pending[accepted]] = proposals[accepted]
            pending = pending[~accepted]
            if len(pending) == 0:
                return out
        raise SamplerStateError(
            f"dense-group rejection sampling exceeded {max_rounds} rounds"
        )

    def member_list(self, integer_parts: Sequence[int] | None = None) -> list[int]:
        """The member neighbour indices (scanning the bias array for dense groups)."""
        if self.kind is not GroupKind.DENSE:
            return list(self.members)
        if integer_parts is None:
            raise SamplerStateError("dense groups need the vertex bias array to enumerate")
        mask = self.sub_bias
        return [index for index, value in enumerate(integer_parts) if value & mask]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RadixGroup(2^{self.position}, kind={self.kind.value}, size={self._count})"
        )


class DecimalGroup:
    """The fractional-bias group of Section 4.3.

    Holds ``neighbour index -> fractional sub-bias`` for the residues left
    after λ-scaling; sampled by rejection with the current maximum fraction
    as the envelope (fractions are < 1 so the envelope is tight).
    """

    __slots__ = ("fractions", "_total", "_np_arrays")

    def __init__(self) -> None:
        self.fractions: dict[int, float] = {}
        self._total = 0.0
        #: NumPy mirrors of the (index, fraction) pairs for sample_batch
        self._np_arrays = None

    def __len__(self) -> int:
        return len(self.fractions)

    def clone(self) -> DecimalGroup:
        """An independent copy (same entries, order and running total)."""
        group = DecimalGroup.__new__(DecimalGroup)
        group.fractions = self.fractions.copy()
        group._total = self._total
        group._np_arrays = None
        return group

    def weight(self) -> float:
        """W_D: total fractional weight held by the group."""
        # Recompute lazily from the dict when drift would matter; the running
        # total avoids O(d) scans on the hot path.
        return max(0.0, self._total)

    def add(self, neighbor_index: int, fraction: float) -> None:
        """Register a fractional sub-bias for a neighbour."""
        if not 0.0 < fraction < 1.0:
            raise SamplerStateError(f"fraction must lie in (0, 1), got {fraction}")
        if neighbor_index in self.fractions:
            raise SamplerStateError(f"neighbor index {neighbor_index} already in decimal group")
        self.fractions[neighbor_index] = fraction
        self._total += fraction
        self._np_arrays = None

    def add_many(self, neighbor_indices: Sequence[int], fractions: Sequence[float]) -> None:
        """Register a slice of fractional sub-biases (bulk form of :meth:`add`).

        The running total is accumulated in the given order, so the stored
        state is identical to repeated :meth:`add` calls.
        """
        registered = self.fractions
        total = self._total
        for neighbor_index, fraction in zip(neighbor_indices, fractions):
            if not 0.0 < fraction < 1.0:
                raise SamplerStateError(f"fraction must lie in (0, 1), got {fraction}")
            if neighbor_index in registered:
                raise SamplerStateError(
                    f"neighbor index {neighbor_index} already in decimal group"
                )
            registered[neighbor_index] = fraction
            total += fraction
        self._total = total
        self._np_arrays = None

    def remove(self, neighbor_index: int) -> None:
        """Drop a neighbour's fractional sub-bias."""
        fraction = self.fractions.pop(neighbor_index, None)
        if fraction is None:
            raise SamplerStateError(f"neighbor index {neighbor_index} not in decimal group")
        self._total -= fraction
        self._np_arrays = None

    def rename(self, old_index: int, new_index: int) -> None:
        """Re-point an entry after the vertex neighbour list moved it."""
        if old_index == new_index:
            return
        if old_index not in self.fractions:
            raise SamplerStateError(f"neighbor index {old_index} not in decimal group")
        self.fractions[new_index] = self.fractions.pop(old_index)
        self._np_arrays = None

    def contains(self, neighbor_index: int) -> bool:
        """Whether the neighbour has a fractional sub-bias registered."""
        return neighbor_index in self.fractions

    def fraction_of(self, neighbor_index: int) -> float:
        """The stored fractional sub-bias of a neighbour (0.0 when absent)."""
        return self.fractions.get(neighbor_index, 0.0)

    def sample(
        self,
        rng: random.Random,
        *,
        counter: OperationCounter | None = None,
        max_trials: int = 1_000_000,
    ) -> int:
        """Draw a neighbour index with probability proportional to its fraction."""
        if not self.fractions:
            raise SamplerStateError("decimal group is empty")
        indices = list(self.fractions.keys())
        envelope = max(self.fractions.values())
        for _ in range(max_trials):
            index = indices[rng.randrange(len(indices))]
            threshold = rng.random() * envelope
            if counter is not None:
                counter.draw(2)
                counter.compare(1)
                counter.touch(1)
            if threshold < self.fractions[index]:
                return index
        raise SamplerStateError(
            f"decimal-group rejection sampling exceeded {max_trials} trials"
        )

    def sample_batch(
        self,
        count: int,
        rng: np.random.Generator,
        *,
        counter: OperationCounter | None = None,
        max_rounds: int = 10_000,
    ) -> np.ndarray:
        """Draw ``count`` neighbour indices ∝ fraction, rejection vectorized."""
        if not self.fractions:
            raise SamplerStateError("decimal group is empty")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if self._np_arrays is None:
            self._np_arrays = (
                np.fromiter(self.fractions.keys(), dtype=np.int64, count=len(self.fractions)),
                np.fromiter(
                    self.fractions.values(), dtype=np.float64, count=len(self.fractions)
                ),
            )
        indices, fractions = self._np_arrays
        return indices[
            sample_by_fraction(fractions, count, rng, counter=counter, max_rounds=max_rounds)
        ]


def sample_by_fraction(
    fractions: np.ndarray,
    count: int,
    rng: np.random.Generator,
    *,
    counter: OperationCounter | None = None,
    max_rounds: int = 10_000,
) -> np.ndarray:
    """Draw ``count`` positions of ``fractions``, each ∝ its fraction.

    Rejection with the largest fraction as the envelope, vectorized: each
    round draws ``rng.integers(0, len(fractions), pending)`` proposals,
    then ``rng.random(pending)`` thresholds, and keeps the accepted ones.
    The decimal group's draw, whether the fractions come from a
    :class:`DecimalGroup` or from Bingo's fused ``decimal`` store.
    """
    envelope = float(fractions.max())
    out = np.empty(count, dtype=np.int64)
    pending = np.arange(count)
    for _ in range(max_rounds):
        proposals = rng.integers(0, len(fractions), size=len(pending))
        thresholds = rng.random(len(pending)) * envelope
        if counter is not None:
            counter.draw(2 * len(pending))
            counter.compare(len(pending))
            counter.touch(len(pending))
        accepted = thresholds < fractions[proposals]
        out[pending[accepted]] = proposals[accepted]
        pending = pending[~accepted]
        if len(pending) == 0:
            return out
    raise SamplerStateError(
        f"decimal-group rejection sampling exceeded {max_rounds} rounds"
    )
