"""Multi-device random walking with walker transfer (Section 9.1).

Bingo scales across GPUs by 1-D partitioning the vertex set and *moving
walkers, not sampling structures*: when a walker steps onto a vertex owned by
another device, it is shipped to that device (fast peer-to-peer in the real
system).  :class:`MultiDeviceTracker` is the routing bookkeeping of that
policy — a vectorized owner-column tracker that counts per-device load and
cross-device transfers.  The Figure 12 scaling experiment runs whole walks
per shard (:class:`~repro.serve.router.ShardServePool`) and feeds the
finished walk matrices to :meth:`MultiDeviceTracker.record_walk_matrix`,
so ``transfer_rate`` is the hand-off rate the walker-moving policy would
incur on the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.graph.partition import OneDimPartition


@dataclass
class WalkerTransferStats:
    """Counters describing cross-device traffic for a set of walks."""

    steps: int = 0
    transfers: int = 0
    per_device_steps: dict[int, int] = field(default_factory=dict)

    def transfer_rate(self) -> float:
        """Fraction of steps that crossed a partition boundary."""
        return self.transfers / self.steps if self.steps else 0.0

    def load_imbalance(self) -> float:
        """Max over mean per-device step count (1.0 = perfectly balanced)."""
        if not self.per_device_steps:
            return 1.0
        loads = list(self.per_device_steps.values())
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0


class MultiDeviceTracker:
    """Vectorized walker-routing bookkeeping over an owner column.

    The tracker does not own samplers; the execution layer reports each
    transition (scalar :meth:`record_step`) or each whole frontier step
    (:meth:`record_frontier`) and the accounting stays engine-agnostic.  A
    transition executes on the device owning its *source* vertex; it is a
    transfer when the destination is owned elsewhere (the walker is handed
    off before the next step).
    """

    def __init__(self, owner: Sequence[int], num_devices: int) -> None:
        if num_devices < 1:
            raise ValueError("tracker needs at least one device")
        self.owner = np.ascontiguousarray(owner, dtype=np.int64)
        self.num_devices = int(num_devices)
        self.stats = WalkerTransferStats(
            per_device_steps={device: 0 for device in range(self.num_devices)}
        )

    @classmethod
    def for_partition(cls, partition: OneDimPartition) -> MultiDeviceTracker:
        """Build a tracker from a 1-D partition's owner column."""
        return cls(partition.owner_array(), partition.num_parts)

    # ------------------------------------------------------------------ #
    def device_of(self, vertex: int) -> int:
        """The device owning ``vertex`` (round-robin beyond the column)."""
        if vertex < len(self.owner):
            return int(self.owner[vertex])
        return int(vertex) % self.num_devices

    def _owners_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`device_of`: round-robin past the owner column."""
        limit = len(self.owner)
        if limit == 0:
            return vertices % self.num_devices
        owners = self.owner[np.minimum(vertices, limit - 1)]
        beyond = vertices >= limit
        if beyond.any():
            owners = np.where(beyond, vertices % self.num_devices, owners)
        return owners

    # ------------------------------------------------------------------ #
    def record_step(self, current_vertex: int, next_vertex: int) -> bool:
        """Record one walk transition; returns True when a transfer happened."""
        device = self.device_of(current_vertex)
        self.stats.steps += 1
        self.stats.per_device_steps[device] = (
            self.stats.per_device_steps.get(device, 0) + 1
        )
        transferred = self.device_of(next_vertex) != device
        if transferred:
            self.stats.transfers += 1
        return transferred

    def record_frontier(
        self, current_vertices: np.ndarray, next_vertices: np.ndarray
    ) -> int:
        """Record one whole frontier step in a few vectorized passes.

        Entries with a negative ``next`` vertex are retiring walkers (the
        ``-1`` padding convention of the walk matrix): they took no
        transition, so they contribute neither steps nor transfers — exactly
        what per-walker :meth:`record_step` calls would have recorded.
        Returns the number of transfers in this step.
        """
        moving = next_vertices >= 0
        if not moving.any():
            return 0
        sources = self._owners_of(current_vertices[moving])
        destinations = self._owners_of(next_vertices[moving])
        counts = np.bincount(sources, minlength=self.num_devices)
        transfers = int(np.count_nonzero(destinations != sources))
        self.stats.steps += int(counts.sum())
        per_device = self.stats.per_device_steps
        for device in np.flatnonzero(counts).tolist():
            per_device[device] = per_device.get(device, 0) + int(counts[device])
        self.stats.transfers += transfers
        return transfers

    def record_walk_matrix(self, matrix: np.ndarray) -> int:
        """Record every transition of a ``-1``-padded walk matrix.

        Column ``j`` to ``j + 1`` is one frontier step; padding after a
        walker retires counts as no transition.  Returns the transfers.
        """
        return sum(
            self.record_frontier(matrix[:, step], matrix[:, step + 1])
            for step in range(matrix.shape[1] - 1)
        )

    def record_walk(self, path: Sequence[int]) -> None:
        """Record every transition of a completed walk path."""
        for current_vertex, next_vertex in zip(path, path[1:]):
            self.record_step(current_vertex, next_vertex)
