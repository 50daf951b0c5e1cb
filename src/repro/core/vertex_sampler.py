"""The per-vertex Bingo sampler: hierarchical sampling over radix groups.

This class is the reproduction of Sections 4 and 5.1 for a single vertex:

* the neighbour list (candidate IDs + biases) kept compact with
  swap-with-last deletion, exactly like the graph substrate;
* one :class:`~repro.core.groups.RadixGroup` per set bit position, holding
  neighbour *indices* plus an inverted index for O(1) delete-and-swap
  (Figure 6);
* a :class:`~repro.core.groups.DecimalGroup` absorbing fractional residues of
  λ-scaled floating-point biases (Section 4.3);
* an inter-group alias table over the group weights (Equation 5), rebuilt in
  O(K) after every structural change (or deferred in batched mode);
* the adaptive group representation of Section 5.1, with group-type
  conversions recorded in an optional
  :class:`~repro.core.adaptive.ConversionTracker`.

Sampling follows the two-stage process of Section 4.1: alias-sample a group,
then uniformly sample a member inside it (rejection against the neighbour
bias array for dense groups), giving O(1) expected time.  Insertion and
deletion touch at most ``popcount(w) + 1 <= K + 1`` groups plus one O(K)
alias rebuild, giving the O(K) update cost of Table 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from operator import add

import numpy as np

from repro.core.adaptive import ConversionTracker, GroupClassifier, GroupKind
from repro.core.batch_rebuild import batch_vose, vose_padded
from repro.core.groups import DecimalGroup, RadixGroup
from repro.core.memory_model import (
    ALIAS_BUCKET_BYTES,
    BIAS_BYTES,
    INDEX_BYTES,
    MemoryReport,
    group_memory_total,
    vertex_memory_bytes,
)
from repro.core.radix import (
    decompose_bias,
    split_scaled_arrays,
    split_scaled_bias,
    split_scaled_biases,
)
from repro.errors import EmptySamplerError, SamplerStateError
from repro.sampling.alias import AliasTable
from repro.sampling.base import DynamicSampler, SamplerKind
from repro.sampling.cost_model import OperationCounter
from repro.utils.rng import NumpySource, RandomSource, ensure_np_rng
from repro.utils.segments import segment_positions
from repro.utils.validation import check_bias

#: Sentinel group key used for the decimal group in the inter-group table.
DECIMAL_GROUP_KEY = -1


class BingoVertexSampler(DynamicSampler):
    """Radix-factorized biased sampler for one vertex's neighbourhood.

    Parameters
    ----------
    lam:
        Amortization factor λ applied to every bias before radix
        decomposition.  Use 1.0 (default) for integer biases; floating-point
        workloads typically pass 10.0 or use
        :func:`repro.core.radix.choose_amortization_factor`.
    classifier:
        Group-representation policy (Equation 9).  Pass
        ``GroupClassifier(adaptive=False)`` to reproduce the BS baseline.
    conversion_tracker:
        Optional tracker receiving group-type transitions (Table 4).
    auto_rebuild:
        When ``True`` (streaming mode) the inter-group alias table and group
        classification are refreshed after every insert/delete.  Batched
        updates set this to ``False``, apply a whole batch, then call
        :meth:`rebuild` once — the single-rebuild optimisation of Section 5.2.
    """

    kind = SamplerKind.BINGO

    def __init__(
        self,
        *,
        rng: RandomSource = None,
        counter: OperationCounter | None = None,
        lam: float = 1.0,
        classifier: GroupClassifier | None = None,
        conversion_tracker: ConversionTracker | None = None,
        auto_rebuild: bool = True,
    ) -> None:
        super().__init__(rng=rng, counter=counter)
        if lam <= 0:
            raise ValueError("amortization factor lam must be positive")
        self.lam = float(lam)
        self.classifier = classifier if classifier is not None else GroupClassifier()
        self.conversion_tracker = conversion_tracker
        self.auto_rebuild = bool(auto_rebuild)

        # Neighbour list (candidate IDs aligned with biases and scaled parts).
        self._ids: list[int] = []
        self._biases: list[float] = []
        self._integer_parts: list[int] = []
        self._fractions: list[float] = []
        self._index_of: dict[int, int] = {}

        # Radix groups keyed by bit position, plus the decimal group.
        self._groups: dict[int, RadixGroup] = {}
        self._decimal = DecimalGroup()

        # Inter-group alias table over group keys (bit positions; -1 = decimal).
        self._inter_group = AliasTable(rng=self._rng, counter=self.counter)
        self._inter_dirty = True
        self.rebuild_count = 0
        # NumPy mirrors (ids, key lut, flat member table, offsets, sizes),
        # built lazily for sample_many.
        self._np_cache: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_neighbors(
        cls,
        pairs: Iterable[tuple[int, float]],
        **kwargs,
    ) -> BingoVertexSampler:
        """Build a sampler from ``(neighbour id, bias)`` pairs."""
        sampler = cls(**kwargs)
        previous_mode = sampler.auto_rebuild
        sampler.auto_rebuild = False
        for candidate, bias in pairs:
            sampler.insert(candidate, bias)
        sampler.auto_rebuild = previous_mode
        sampler.rebuild()
        return sampler

    # ------------------------------------------------------------------ #
    # mutation (Table 1: O(K))
    # ------------------------------------------------------------------ #
    def insert(self, candidate: int, bias: float) -> None:
        """Insert a neighbour: append, register sub-biases, refresh inter-group table."""
        check_bias(bias)
        if candidate in self._index_of:
            raise SamplerStateError(f"candidate {candidate} already present")

        integer_part, fraction = split_scaled_bias(bias, self.lam)
        if integer_part == 0 and fraction == 0.0:
            raise SamplerStateError(
                f"bias {bias} scaled by lam={self.lam} vanishes; increase lam"
            )

        index = len(self._ids)
        self._index_of[candidate] = index
        self._ids.append(candidate)
        self._biases.append(float(bias))
        self._integer_parts.append(integer_part)
        self._fractions.append(fraction)
        self.counter.touch(4)

        if integer_part:
            for position in decompose_bias(integer_part):
                self._group_for(position).add(index, self.counter)
        if fraction:
            self._decimal.add(index, fraction)
            self.counter.touch(1)

        self._inter_dirty = True
        self._np_cache = None
        if self.auto_rebuild:
            self.rebuild()

    def insert_many(
        self,
        candidates,
        biases,
        *,
        split_parts: tuple[Sequence[int], Sequence[float]] | None = None,
    ) -> None:
        """Insert a whole slice of neighbours in one pass.

        The radix decomposition of every new bias is computed with array
        arithmetic (one vectorized :func:`repro.core.radix.split_scaled_bias`
        over the slice) and each touched radix group receives its new members
        in one bulk append.  The resulting state — neighbour order, group
        member order, group creation order, decimal-group running total — is
        identical to calling :meth:`insert` once per pair, so the batched
        and streaming ingestion paths remain interchangeable.

        ``split_parts`` optionally carries pre-split ``(integer_parts,
        fractions)`` sequences for the slice — the batched engine splits a
        whole update batch in one vectorized pass and hands each vertex its
        share, so small slices run allocation-free here.  The parts must be
        exactly what :func:`split_scaled_bias` yields under this sampler's
        λ, for already-validated positive finite biases.

        Like :meth:`insert`, triggers one :meth:`rebuild` at the end when
        ``auto_rebuild`` is set (instead of one per element).
        """
        count = len(candidates)
        if count == 0:
            return
        if len(biases) != count:
            raise SamplerStateError("candidates and biases must have matching lengths")
        candidate_list = (
            candidates.tolist() if isinstance(candidates, np.ndarray) else list(candidates)
        )
        bias_list = biases.tolist() if isinstance(biases, np.ndarray) else list(biases)

        if split_parts is not None:
            integer_list, fraction_list = split_parts
            integer_list = (
                integer_list.tolist()
                if isinstance(integer_list, np.ndarray)
                else list(integer_list)
            )
            fraction_list = (
                fraction_list.tolist()
                if isinstance(fraction_list, np.ndarray)
                else list(fraction_list)
            )
        elif count < 16:
            # Small slices: the scalar split beats vectorization overhead.
            integer_list = []
            fraction_list = []
            for bias in bias_list:
                integer_part, fraction = split_scaled_bias(bias, self.lam)
                integer_list.append(integer_part)
                fraction_list.append(fraction)
        else:
            integer_list, fraction_list = split_scaled_biases(bias_list, self.lam)

        index_of = self._index_of
        for candidate in candidate_list:
            if candidate in index_of:
                raise SamplerStateError(f"candidate {candidate} already present")
        if count > 1 and len(set(candidate_list)) != count:
            raise SamplerStateError("duplicate candidates within one insert_many slice")
        for integer_part, fraction in zip(integer_list, fraction_list):
            if integer_part == 0 and fraction == 0.0:
                raise SamplerStateError(
                    f"bias scaled by lam={self.lam} vanishes; increase lam"
                )

        start = len(self._ids)
        index_of.update(zip(candidate_list, range(start, start + count)))
        self._ids.extend(candidate_list)
        self._biases.extend(bias_list)
        self._integer_parts.extend(integer_list)
        self._fractions.extend(fraction_list)
        self.counter.touch(4 * count)

        # Scatter the new neighbour indices into their radix groups in the
        # scalar encounter order (candidate-major, bit ascending), creating
        # missing groups on first contact exactly like the scalar loop.  The
        # group membership update is inlined (new indices cannot collide, so
        # the scalar duplicate guard is vacuous here).
        groups = self._groups
        dense_kind = GroupKind.DENSE
        decimal_indices: list[int] = []
        decimal_fractions: list[float] = []
        for offset, (integer_part, fraction) in enumerate(
            zip(integer_list, fraction_list)
        ):
            index = start + offset
            if integer_part:
                value = integer_part
                position = 0
                while value:
                    if value & 1:
                        group = groups.get(position)
                        if group is None:
                            group = RadixGroup(position, GroupKind.REGULAR)
                            groups[position] = group
                        group._count += 1
                        group._np_members = None
                        if group.kind is not dense_kind:
                            members = group.members
                            group.slots[index] = len(members)
                            members.append(index)
                    value >>= 1
                    position += 1
            if fraction:
                decimal_indices.append(index)
                decimal_fractions.append(fraction)
        if decimal_indices:
            self._decimal.add_many(decimal_indices, decimal_fractions)
            self.counter.touch(len(decimal_indices))

        self._inter_dirty = True
        self._np_cache = None
        if self.auto_rebuild:
            self.rebuild()

    def delete_many(self, candidates) -> None:
        """Delete a slice of neighbours with one deferred rebuild.

        Deletions replay the Figure 6 delete-and-swap workflow in slice
        order — the stored state is identical to repeated :meth:`delete`
        calls — as one tight loop with the radix decomposition inlined and
        without per-operation cost-model accounting (the batched pipeline
        accounts whole phases instead).  The inter-group rebuild runs once
        at the end when ``auto_rebuild`` is set, not once per element.
        """
        index_of = self._index_of
        ids = self._ids
        biases = self._biases
        integer_parts = self._integer_parts
        fractions = self._fractions
        groups = self._groups
        decimal = self._decimal
        dense_kind = GroupKind.DENSE
        changed = False
        for candidate in candidates:
            candidate = int(candidate)
            if candidate not in index_of:
                raise SamplerStateError(f"candidate {candidate} not present")
            index = index_of.pop(candidate)
            integer_part = integer_parts[index]
            if integer_part:
                value = integer_part
                position = 0
                while value:
                    if value & 1:
                        # Inlined RadixGroup.remove (delete-and-swap).
                        group = groups[position]
                        group._count -= 1
                        group._np_members = None
                        if group.kind is not dense_kind:
                            slots = group.slots
                            members = group.members
                            slot = slots.pop(index)
                            last_slot = len(members) - 1
                            if slot != last_slot:
                                moved_member = members[last_slot]
                                members[slot] = moved_member
                                slots[moved_member] = slot
                            members.pop()
                    value >>= 1
                    position += 1
            if fractions[index]:
                decimal.remove(index)
            last = len(ids) - 1
            if index != last:
                moved_id = ids[last]
                moved_integer = integer_parts[last]
                moved_fraction = fractions[last]
                ids[index] = moved_id
                biases[index] = biases[last]
                integer_parts[index] = moved_integer
                fractions[index] = moved_fraction
                index_of[moved_id] = index
                if moved_integer:
                    value = moved_integer
                    position = 0
                    while value:
                        if value & 1:
                            # Inlined RadixGroup.rename (re-point the moved
                            # neighbour's slot).
                            group = groups[position]
                            if group.kind is not dense_kind:
                                slots = group.slots
                                slot = slots.pop(last)
                                group.members[slot] = index
                                slots[index] = slot
                                group._np_members = None
                        value >>= 1
                        position += 1
                if moved_fraction:
                    decimal.rename(last, index)
            ids.pop()
            biases.pop()
            integer_parts.pop()
            fractions.pop()
            changed = True
        if changed:
            self._inter_dirty = True
            self._np_cache = None
            if self.auto_rebuild:
                # Scalar delete() rebuilds unconditionally, including down to
                # an empty candidate set (which leaves an empty inter table).
                self.rebuild()

    def delete(self, candidate: int) -> None:
        """Delete a neighbour with the Figure 6 delete-and-swap workflow."""
        if candidate not in self._index_of:
            raise SamplerStateError(f"candidate {candidate} not present")
        index = self._index_of.pop(candidate)
        integer_part = self._integer_parts[index]
        fraction = self._fractions[index]

        # Step (i)/(ii)/(iii): locate and swap-remove from every contributing group.
        if integer_part:
            for position in decompose_bias(integer_part):
                self._groups[position].remove(index, self.counter)
        if fraction:
            self._decimal.remove(index)
            self.counter.touch(1)

        # Keep the neighbour list compact: relocate the tail into the hole and
        # re-point every group referencing the relocated neighbour (O(K)).
        last = len(self._ids) - 1
        if index != last:
            moved_id = self._ids[last]
            moved_integer = self._integer_parts[last]
            moved_fraction = self._fractions[last]
            self._ids[index] = moved_id
            self._biases[index] = self._biases[last]
            self._integer_parts[index] = moved_integer
            self._fractions[index] = moved_fraction
            self._index_of[moved_id] = index
            if moved_integer:
                for position in decompose_bias(moved_integer):
                    self._groups[position].rename(last, index, self.counter)
            if moved_fraction:
                self._decimal.rename(last, index)
            self.counter.touch(4)
        self._ids.pop()
        self._biases.pop()
        self._integer_parts.pop()
        self._fractions.pop()
        self.counter.touch(2)

        self._inter_dirty = True
        self._np_cache = None
        if self.auto_rebuild:
            self.rebuild()

    def update_bias(self, candidate: int, bias: float) -> None:
        """Change a neighbour's bias (delete + insert, both O(K))."""
        previous_mode = self.auto_rebuild
        self.auto_rebuild = False
        try:
            self.delete(candidate)
            self.insert(candidate, bias)
        finally:
            self.auto_rebuild = previous_mode
        if self.auto_rebuild:
            self.rebuild()

    # ------------------------------------------------------------------ #
    # rebuild: reclassify groups + refresh the inter-group alias table
    # ------------------------------------------------------------------ #
    def rebuild(self) -> None:
        """Reclassify group representations and rebuild the inter-group table.

        Both steps are O(K) except for group-type conversions out of the
        dense representation, which require an O(d) scan of the neighbour
        bias array (the paper performs those in the dedicated rebuild phase
        of the batched workflow; streaming updates rarely trigger them).
        """
        self.rebuild_count += 1
        degree = len(self._ids)
        for group in self._groups.values():
            new_kind = self.classifier.classify(len(group), degree)
            if self.conversion_tracker is not None and len(group) > 0:
                self.conversion_tracker.observe(group.kind, new_kind)
            if new_kind is not group.kind:
                group.convert(
                    new_kind,
                    integer_parts=self._integer_parts,
                    counter=self.counter,
                )

        inter = AliasTable(rng=self._rng, counter=self.counter)
        for position, group in self._groups.items():
            weight = group.weight()
            if weight > 0:
                inter.insert(position, float(weight))
        decimal_weight = self._decimal.weight()
        if decimal_weight > 0 and len(self._decimal) > 0:
            inter.insert(DECIMAL_GROUP_KEY, decimal_weight)
        if len(inter) > 0:
            inter.rebuild()
        self._inter_group = inter
        self._inter_dirty = False
        self._np_cache = None

    def _group_for(self, position: int) -> RadixGroup:
        group = self._groups.get(position)
        if group is None:
            group = RadixGroup(position, GroupKind.REGULAR)
            self._groups[position] = group
        return group

    # ------------------------------------------------------------------ #
    # sampling (Table 1: O(1))
    # ------------------------------------------------------------------ #
    def sample(self) -> int:
        """Hierarchical sampling: inter-group alias draw, then intra-group uniform draw."""
        if not self._ids:
            raise EmptySamplerError("Bingo vertex sampler holds no candidates")
        if self._inter_dirty:
            self.rebuild()
        key = self._inter_group.sample()
        if key == DECIMAL_GROUP_KEY:
            index = self._decimal.sample(self._rng, counter=self.counter)
        else:
            index = self._groups[key].sample(
                self._rng,
                integer_parts=self._integer_parts,
                counter=self.counter,
            )
        self.counter.touch(1)
        return self._ids[index]

    def sample_many(self, count: int, rng: NumpySource = None) -> np.ndarray:
        """Draw ``count`` candidates at once through the two-stage hierarchy.

        The whole batch resolves in a handful of vectorized operations: one
        fused inter-group alias draw (bucket + toss vectors against the
        cached prob/alias arrays), then one gather into a flattened
        member table holding every group's members contiguously, indexed by
        a single intra-group uniform vector.  Only draws landing in the
        decimal group fall back to its (vectorized) rejection loop.  The
        flattened table is rebuilt lazily after a structural change, so the
        amortized per-draw work matches :meth:`sample` — this is the kernel
        the batched walk frontier runs on.
        """
        if not self._ids:
            raise EmptySamplerError("Bingo vertex sampler holds no candidates")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if self._inter_dirty:
            self.rebuild()
        generator = ensure_np_rng(rng)
        ids, lut, flat, offsets, sizes = self._batch_cache()
        group_ids, prob, alias = self._inter_group.numpy_tables()

        uniforms = generator.random(3 * count)
        self.counter.draw(3 * count)
        self.counter.compare(2 * count)
        self.counter.touch(3 * count)
        # Inter-group alias draw: floor(u * n) is the uniform bucket.
        buckets = (uniforms[:count] * len(group_ids)).astype(np.int64)
        chosen = np.where(
            uniforms[count : 2 * count] < prob[buckets], buckets, alias[buckets]
        )
        keys = group_ids[chosen]
        slots = lut[keys + 1]

        # Intra-group uniform member pick through the flattened member table.
        intra = uniforms[2 * count :]
        positions = offsets[slots] + np.minimum(
            (intra * sizes[slots]).astype(np.int64), sizes[slots] - 1
        )
        indices = flat[positions]
        decimal_mask = keys == DECIMAL_GROUP_KEY
        if decimal_mask.any():
            indices[decimal_mask] = self._decimal.sample_batch(
                int(decimal_mask.sum()), generator, counter=self.counter
            )
        return ids[indices]

    def _batch_cache(self) -> tuple[np.ndarray, ...]:
        """Lazily (re)build the NumPy mirrors used by :meth:`sample_many`.

        ``flat`` concatenates every weighted group's member indices (dense
        groups are materialised by scanning the integer bias array — the
        same O(d) the paper's batched rebuild phase pays); ``offsets`` and
        ``sizes`` delimit each group's slice, and ``lut`` maps a group key
        (shifted by one so the decimal group's -1 fits) to its slice slot.
        The decimal group keeps a sentinel slice of size 1 — its draws are
        overwritten by the rejection kernel.
        """
        if self._np_cache is not None:
            return self._np_cache
        keys = [key for key, _ in self._inter_group.candidates()]
        lut = np.full(max(keys, default=0) + 2, -1, dtype=np.int64)
        flat_parts: list[np.ndarray] = []
        offsets = np.zeros(len(keys), dtype=np.int64)
        sizes = np.ones(len(keys), dtype=np.int64)
        cursor = 0
        for slot, key in enumerate(keys):
            lut[key + 1] = slot
            if key == DECIMAL_GROUP_KEY:
                members = np.zeros(1, dtype=np.int64)
            else:
                members = np.asarray(
                    self._groups[key].member_list(self._integer_parts), dtype=np.int64
                )
            flat_parts.append(members)
            offsets[slot] = cursor
            sizes[slot] = len(members)
            cursor += len(members)
        flat = (
            np.concatenate(flat_parts) if flat_parts else np.empty(0, dtype=np.int64)
        )
        self._np_cache = (
            np.asarray(self._ids, dtype=np.int64),
            lut,
            flat,
            offsets,
            sizes,
        )
        return self._np_cache

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ids)

    def candidates(self) -> list[tuple[int, float]]:
        return list(zip(self._ids, self._biases))

    def total_bias(self) -> float:
        return float(sum(self._biases))

    def contains(self, candidate: int) -> bool:
        return candidate in self._index_of

    def bias_of(self, candidate: int) -> float:
        """The stored (original, unscaled) bias of a neighbour."""
        if candidate not in self._index_of:
            raise SamplerStateError(f"candidate {candidate} not present")
        return self._biases[self._index_of[candidate]]

    def num_groups(self) -> int:
        """Number of non-empty radix groups (excluding the decimal group)."""
        return sum(1 for group in self._groups.values() if len(group) > 0)

    def group_sizes(self) -> dict[int, int]:
        """Bit position -> member count for every non-empty group."""
        return {pos: len(group) for pos, group in self._groups.items() if len(group) > 0}

    def group_kinds(self) -> dict[int, GroupKind]:
        """Bit position -> current representation for every non-empty group."""
        return {pos: group.kind for pos, group in self._groups.items() if len(group) > 0}

    def decimal_group_size(self) -> int:
        """Number of neighbours with a fractional sub-bias."""
        return len(self._decimal)

    def decimal_share(self) -> float:
        """W_D / (W_I + W_D) — the quantity λ is chosen to keep below 1/d."""
        integer_weight = float(sum(group.weight() for group in self._groups.values()))
        decimal_weight = self._decimal.weight()
        total = integer_weight + decimal_weight
        return decimal_weight / total if total > 0 else 0.0

    def structure_probability(self, candidate: int) -> float:
        """Selection probability implied by the group structure (Equation 7).

        Tests compare this against ``bias / total_bias`` to verify
        Theorem 4.1 without Monte Carlo noise.
        """
        if candidate not in self._index_of:
            return 0.0
        index = self._index_of[candidate]
        integer_weight = float(sum(group.weight() for group in self._groups.values()))
        decimal_weight = self._decimal.weight()
        total = integer_weight + decimal_weight
        if total <= 0:
            return 0.0
        contribution = 0.0
        integer_part = self._integer_parts[index]
        if integer_part:
            for position in decompose_bias(integer_part):
                group = self._groups[position]
                group_weight = float(group.weight())
                if group_weight <= 0:
                    continue
                # P(group) * P(index | group) = (W_k / total) * (1 / |G_k|)
                contribution += (group_weight / total) * (1.0 / len(group))
        fraction = self._fractions[index]
        if fraction and decimal_weight > 0:
            contribution += (decimal_weight / total) * (fraction / decimal_weight)
        return contribution

    def memory_report(self) -> MemoryReport:
        """Modelled memory footprint of this vertex's sampling state."""
        return vertex_memory_bytes(
            self.group_sizes(),
            self.group_kinds(),
            len(self._ids),
            decimal_members=len(self._decimal),
        )

    def memory_bytes(self) -> int:
        return self.memory_report().total_bytes()

    def check_invariants(self) -> None:
        """Raise :class:`SamplerStateError` if internal structures disagree.

        Verified invariants:

        * every list-backed group's inverted index is the exact inverse of its
          member list;
        * group sizes match the number of neighbours whose scaled bias has the
          corresponding bit set;
        * the decimal group holds exactly the neighbours with a fractional
          residue;
        * the id -> index map matches the neighbour array.
        """
        degree = len(self._ids)
        for candidate, index in self._index_of.items():
            if not (0 <= index < degree) or self._ids[index] != candidate:
                raise SamplerStateError("id->index map inconsistent with neighbour array")
        for position, group in self._groups.items():
            mask = 1 << position
            expected = [i for i in range(degree) if self._integer_parts[i] & mask]
            if len(group) != len(expected):
                raise SamplerStateError(
                    f"group 2^{position} size {len(group)} != expected {len(expected)}"
                )
            if not group.is_dense():
                if sorted(group.members) != expected:
                    raise SamplerStateError(f"group 2^{position} membership mismatch")
                for member, slot in group.slots.items():
                    if group.members[slot] != member:
                        raise SamplerStateError(
                            f"group 2^{position} inverted index mismatch at {member}"
                        )
        expected_decimal = {i for i in range(degree) if self._fractions[i] > 0.0}
        if set(self._decimal.fractions.keys()) != expected_decimal:
            raise SamplerStateError("decimal group membership mismatch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BingoVertexSampler(degree={len(self._ids)}, groups={self.num_groups()}, "
            f"lam={self.lam})"
        )


def rebuild_samplers_batch(samplers: Iterable[BingoVertexSampler]) -> None:
    """Rebuild many samplers at once (the batched form of :meth:`rebuild`).

    This is the rebuild phase of the Section 5.2 batched-update workflow run
    as two vectorized passes over every touched vertex:

    1. group reclassification — one :meth:`GroupClassifier.classify_many`
       call over all (group, vertex) pairs, with conversions and
       conversion-tracker updates applied only where the representation
       actually changes;
    2. inter-group alias construction — one :func:`batch_vose` call building
       every vertex's alias table simultaneously.

    The resulting per-sampler state (group kinds, tracker counts, alias
    arrays, dirtiness flags) is identical to calling :meth:`rebuild` on each
    sampler, so batched and streaming ingestion stay interchangeable.
    Per-operation cost-model accounting is skipped (the batched pipeline
    accounts whole phases instead).
    """
    batch = samplers if isinstance(samplers, list) else list(samplers)
    if not batch:
        return

    # One pass per sampler: inline reclassification (same decision tree as
    # GroupClassifier.classify) + weight collection for the alias rows.
    key_rows: list[list[int]] = []
    weight_rows: list[list[float]] = []
    regular = GroupKind.REGULAR
    one_element = GroupKind.ONE_ELEMENT
    dense = GroupKind.DENSE
    sparse = GroupKind.SPARSE
    for sampler in batch:
        sampler.rebuild_count += 1
        classifier = sampler.classifier
        adaptive = classifier.adaptive
        alpha = classifier.alpha_percent
        beta = classifier.beta_percent
        tracker = sampler.conversion_tracker
        degree = len(sampler._ids)
        keys: list[int] = []
        weights: list[float] = []
        for position, group in sampler._groups.items():
            size = group._count
            if size == 0 or degree <= 0 or not adaptive:
                new_kind = regular
            elif size == 1:
                new_kind = one_element
            else:
                ratio = 100.0 * size / degree
                if ratio > alpha:
                    new_kind = dense
                elif ratio < beta:
                    new_kind = sparse
                else:
                    new_kind = regular
            if size:
                old_kind = group.kind
                if tracker is not None:
                    tracker.observations += 1
                    if old_kind is not new_kind:
                        transitions = tracker.transitions
                        pair = (old_kind, new_kind)
                        transitions[pair] = transitions.get(pair, 0) + 1
                if old_kind is not new_kind:
                    # Inlined RadixGroup.convert: only transitions out of the
                    # dense representation need the O(d) member rediscovery.
                    if old_kind is dense:
                        group.convert(
                            new_kind,
                            integer_parts=sampler._integer_parts,
                            counter=sampler.counter,
                        )
                    else:
                        if new_kind is dense:
                            group.members = []
                            group.slots = {}
                        group._np_members = None
                        group.kind = new_kind
                keys.append(position)
                weights.append(float(size << position))
            elif group.kind is not new_kind:
                group.convert(
                    new_kind,
                    integer_parts=sampler._integer_parts,
                    counter=sampler.counter,
                )
        decimal = sampler._decimal
        decimal_weight = decimal.weight()
        if decimal_weight > 0 and len(decimal.fractions) > 0:
            keys.append(DECIMAL_GROUP_KEY)
            weights.append(decimal_weight)
        key_rows.append(keys)
        weight_rows.append(weights)

    # Batched Vose: every touched vertex's inter-group table in one kernel,
    # then adopted per sampler without re-running the scalar construction.
    tables = batch_vose(weight_rows)
    for sampler, keys, weights, (prob, alias) in zip(
        batch, key_rows, weight_rows, tables
    ):
        sampler._inter_group = AliasTable.from_built(
            keys, weights, prob, alias, rng=sampler._rng, counter=sampler.counter
        )
        sampler._inter_dirty = False
        sampler._np_cache = None


#: Group representations by code in :class:`RadixLayout` (0 is the kind a
#: group is created with).
_KIND_BY_CODE = (
    GroupKind.REGULAR,
    GroupKind.ONE_ELEMENT,
    GroupKind.SPARSE,
    GroupKind.DENSE,
)


class RadixLayout:
    """Many vertices' radix factorization, computed in whole-array passes.

    The cold-build form of :meth:`BingoVertexSampler.insert_many` followed
    by :func:`rebuild_samplers_batch`, for every vertex at once.  Row ``r``
    is one vertex: ``lengths[r]`` neighbours, back to back in ``biases``.
    The result is the state those per-vertex calls leave — group member
    order, group creation order, classification, decimal running totals,
    inter-group alias — as arrays: Bingo's fused tables, its memory
    model and its group-kind counts are all read from them.

    Arrays, in group *creation order* (row-major; within a row, by first
    member, then bit): ``group_row``, ``group_bit``, ``group_size``,
    ``group_rank`` (position among the row's groups) and ``group_kind``
    (codes into :data:`_KIND_BY_CODE`).  ``members`` holds each group's
    neighbour indices (local to the row, ascending) back to back in the
    same order, ``member_edges`` their positions in the input.
    ``decimal_edges`` lists the input positions with a fractional part.
    Per row: ``starts`` (first input position), ``group_count``,
    ``decimal_count``, ``decimal_total`` and the inter-group table
    ``prob`` / ``alias`` / ``weights`` (zero-padded; ``inter_length``
    entries per row, the groups first and then the decimal group when the
    row has one).
    """

    def __init__(self, lengths, biases, lam: float, classifier: GroupClassifier) -> None:
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        rows = len(lengths)
        integer_parts, fractions = split_scaled_arrays(biases, lam)
        if ((integer_parts == 0) & (fractions == 0.0)).any():
            raise SamplerStateError(f"bias scaled by lam={lam} vanishes; increase lam")
        self.lengths = lengths
        self.starts = np.cumsum(lengths) - lengths
        self.integer_parts = integer_parts
        self.fractions = fractions
        edge_row = np.repeat(np.arange(rows, dtype=np.int64), lengths)
        local = np.arange(len(edge_row), dtype=np.int64) - self.starts[edge_row]

        # Every (edge, set bit) pair, one bit position at a time.
        top = int(integer_parts.max()).bit_length() if len(integer_parts) else 0
        per_bit = [np.flatnonzero((integer_parts >> bit) & 1) for bit in range(top)]
        entry_edge = np.concatenate(per_bit) if per_bit else np.empty(0, dtype=np.int64)
        entry_bit = np.repeat(
            np.arange(top, dtype=np.int64), [len(edges) for edges in per_bit]
        )
        entry_row = edge_row[entry_edge]
        # Group by (row, bit): one stable sort keeps each group's members in
        # edge order, i.e. ascending neighbour index.
        key = entry_row * 64 + entry_bit
        by_group = np.argsort(key, kind="stable")
        key = key[by_group]
        heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if len(key) else key
        sizes = np.diff(np.r_[heads, len(key)])
        rows_of = entry_row[by_group][heads]
        bits_of = entry_bit[by_group][heads]
        first_local = local[entry_edge[by_group][heads]]
        # Creation order: a row's groups by first member, then bit.
        creation = np.lexsort((bits_of, first_local, rows_of))
        self.group_row = rows_of[creation]
        self.group_bit = bits_of[creation]
        self.group_size = sizes[creation]
        gather = segment_positions(heads[creation], self.group_size)
        self.member_edges = entry_edge[by_group][gather]
        self.members = local[self.member_edges]

        self.group_count = np.bincount(self.group_row, minlength=rows)
        degree = lengths[self.group_row]
        size = self.group_size
        if classifier.adaptive:
            ratio = 100.0 * size / degree
            kind = np.where(
                ratio > classifier.alpha_percent,
                3,
                np.where(ratio < classifier.beta_percent, 2, 0),
            )
            self.group_kind = np.where(size == 1, 1, kind)
        else:
            self.group_kind = np.zeros(len(size), dtype=np.int64)

        # Decimal groups: running totals accumulate left to right, as
        # DecimalGroup.add_many does.
        self.decimal_edges = np.flatnonzero(fractions > 0.0)
        self.decimal_count = np.bincount(edge_row[self.decimal_edges], minlength=rows)
        bounds = np.r_[0, np.cumsum(self.decimal_count)].tolist()
        values = fractions[self.decimal_edges].tolist()
        self.decimal_total = np.array(
            [reduce(add, values[lo:hi], 0.0) for lo, hi in zip(bounds, bounds[1:])],
            dtype=np.float64,
        )

        # Inter-group weights: W(p_k) = |G_k| * 2^k per group, then W_D.
        has_decimal = self.decimal_total > 0.0
        self.inter_length = self.group_count + has_decimal
        width = int(self.inter_length.max()) if rows else 0
        self.weights = np.zeros((rows, width), dtype=np.float64)
        first_group = np.cumsum(self.group_count) - self.group_count
        self.group_rank = np.arange(len(size)) - first_group[self.group_row]
        self.weights[self.group_row, self.group_rank] = np.ldexp(
            size.astype(np.float64), self.group_bit
        )
        decimal_rows = np.flatnonzero(has_decimal)
        self.weights[decimal_rows, self.group_count[decimal_rows]] = self.decimal_total[
            decimal_rows
        ]
        self.prob, self.alias = vose_padded(self.weights, self.inter_length)

    def group_bytes(self, kind: GroupKind, stored_as: GroupKind | None = None) -> int:
        """Modelled bytes of the groups classified ``kind``, each stored as
        ``stored_as`` (default: ``kind`` itself)."""
        chosen = self.group_kind == _KIND_BY_CODE.index(kind)
        return group_memory_total(
            kind if stored_as is None else stored_as,
            self.group_size[chosen],
            self.lengths[self.group_row[chosen]],
        )

    def group_kinds(self) -> list[GroupKind]:
        """Every group's representation, in creation order."""
        return [_KIND_BY_CODE[code] for code in self.group_kind.tolist()]

    def kind_counts(self) -> dict[GroupKind, int]:
        """Number of groups per representation, for the kinds present."""
        counts = np.bincount(self.group_kind, minlength=len(_KIND_BY_CODE)).tolist()
        return {kind: count for kind, count in zip(_KIND_BY_CODE, counts) if count}

    def memory_report(self) -> MemoryReport:
        """Modelled memory of every row's sampling state.

        Equal, component by component, to the sum of
        :func:`~repro.core.memory_model.vertex_memory_bytes` over the rows
        (what each row's :class:`BingoVertexSampler` reports).
        """
        report = MemoryReport()
        if not len(self.lengths):
            return report
        report.add("neighbor_list", int(self.lengths.sum()) * (INDEX_BYTES + BIAS_BYTES))
        for kind in self.kind_counts():
            report.add(f"group:{kind.value}", self.group_bytes(kind))
        decimal_members = int(self.decimal_count.sum())
        if decimal_members:
            report.add("group:decimal", decimal_members * (INDEX_BYTES + BIAS_BYTES))
        report.add("inter_group_alias", int(self.inter_length.sum()) * ALIAS_BUCKET_BYTES)
        return report
