"""Byte-level memory accounting for Bingo's sampling structures.

The paper's memory results (Table 3's memory columns, Figure 11's BS-vs-GA
comparison) are driven by how much auxiliary state each radix group keeps:

* **baseline (BS)** — every group stores a full intra-group neighbour index
  list plus an inverted index of size *d* (the naive design of Section 4.4),
  so a vertex costs O(d · K);
* **group adaption (GA)** — dense groups keep nothing, one-element groups a
  single entry, sparse groups a compact inverted map, regular groups the full
  structures.

Because a pure-Python object graph has unrepresentative per-object overhead,
the reproduction *models* memory the way the CUDA implementation would lay it
out: 4-byte neighbour indices, 8-byte biases, dense arrays.  The same model
is applied to every engine so the comparison stays apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.adaptive import GroupKind

#: Modelled width of a neighbour index / slot entry (32-bit, as on the GPU).
INDEX_BYTES = 4
#: Modelled width of a bias value (64-bit float / long).
BIAS_BYTES = 8
#: Modelled width of one alias-table bucket (probability + alias index).
ALIAS_BUCKET_BYTES = BIAS_BYTES + INDEX_BYTES


def group_memory_bytes(kind: GroupKind, group_size: int, degree: int) -> int:
    """Modelled bytes for one radix group's intra-group structures.

    Parameters
    ----------
    kind:
        The group's representation.
    group_size:
        Number of members |G_k|.
    degree:
        The owning vertex's degree d (the size of a full inverted index).
    """
    if group_size < 0 or degree < 0:
        raise ValueError("group_size and degree must be non-negative")
    if group_size == 0:
        return 0
    if kind is GroupKind.DENSE:
        # Only the member counter.
        return INDEX_BYTES
    if kind is GroupKind.ONE_ELEMENT:
        # A single inline member entry.
        return INDEX_BYTES
    if kind is GroupKind.SPARSE:
        # Compact member list + compact inverted map (one entry per member).
        return group_size * INDEX_BYTES * 2
    # Regular: member list + full inverted index of size d.
    return group_size * INDEX_BYTES + degree * INDEX_BYTES


def group_memory_total(kind: GroupKind, group_sizes, degrees) -> int:
    """:func:`group_memory_bytes` summed over many non-empty groups stored as ``kind``.

    ``group_sizes`` and ``degrees`` are aligned arrays: each group's member
    count and its owning vertex's degree.
    """
    sizes = np.asarray(group_sizes, dtype=np.int64)
    if kind is GroupKind.DENSE or kind is GroupKind.ONE_ELEMENT:
        return len(sizes) * INDEX_BYTES
    if kind is GroupKind.SPARSE:
        return int(sizes.sum()) * INDEX_BYTES * 2
    return int(sizes.sum() + np.asarray(degrees, dtype=np.int64).sum()) * INDEX_BYTES


@dataclass
class MemoryReport:
    """Per-component memory totals for one engine / one experiment."""

    components: dict[str, int] = field(default_factory=dict)

    def add(self, component: str, num_bytes: int) -> None:
        """Accumulate ``num_bytes`` under ``component``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        self.components[component] = self.components.get(component, 0) + int(num_bytes)

    def get(self, component: str) -> int:
        """Bytes recorded for ``component`` (0 when absent)."""
        return self.components.get(component, 0)

    def total_bytes(self) -> int:
        """Total modelled bytes across components."""
        return sum(self.components.values())

    def total_gigabytes(self) -> float:
        """Total in GB (the unit the paper reports)."""
        return self.total_bytes() / (1024.0 ** 3)

    def merge(self, other: MemoryReport) -> None:
        """Fold another report into this one."""
        for component, num_bytes in other.components.items():
            self.add(component, num_bytes)

    def as_dict(self) -> dict[str, int]:
        """A copy of the component table."""
        return dict(self.components)


def vertex_memory_bytes(
    group_sizes: Mapping[int, int],
    group_kinds: Mapping[int, GroupKind],
    degree: int,
    *,
    decimal_members: int = 0,
    include_neighbor_list: bool = True,
) -> MemoryReport:
    """Modelled memory for one vertex's full Bingo sampling state.

    ``group_sizes`` and ``group_kinds`` are keyed by bit position.  The report
    breaks the total into the components Figure 11 plots separately (dense /
    one-element / sparse / regular group structures), plus the neighbour list,
    the decimal group and the inter-group alias table.
    """
    report = MemoryReport()
    if include_neighbor_list:
        report.add("neighbor_list", degree * (INDEX_BYTES + BIAS_BYTES))
    for position, size in group_sizes.items():
        kind = group_kinds.get(position, GroupKind.REGULAR)
        report.add(f"group:{kind.value}", group_memory_bytes(kind, size, degree))
    if decimal_members:
        report.add("group:decimal", decimal_members * (INDEX_BYTES + BIAS_BYTES))
    num_groups = sum(1 for size in group_sizes.values() if size > 0)
    if decimal_members:
        num_groups += 1
    report.add("inter_group_alias", num_groups * ALIAS_BUCKET_BYTES)
    return report


def csr_memory_bytes(num_vertices: int, num_arcs: int) -> int:
    """Modelled bytes of a CSR snapshot (offsets + targets + biases)."""
    return (num_vertices + 1) * 8 + num_arcs * (INDEX_BYTES + BIAS_BYTES)


def alias_engine_memory_bytes(degrees: Iterable[int]) -> int:
    """Modelled bytes of per-vertex alias tables (KnightKing-style baseline)."""
    total = 0
    for degree in degrees:
        total += degree * (ALIAS_BUCKET_BYTES + INDEX_BYTES)
    return total


def its_engine_memory_bytes(degrees: Iterable[int]) -> int:
    """Modelled bytes of per-vertex prefix-sum arrays (gSampler-style baseline)."""
    total = 0
    for degree in degrees:
        total += degree * BIAS_BYTES
    return total
