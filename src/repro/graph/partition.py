"""1-D graph partitioning (Section 9.1).

Bingo scales to multiple GPUs with KnightKing-style 1-D partitioning: vertices
are assigned to devices, each device owns the out-edges (and the per-vertex
sampling structures) of its vertices, and walkers migrate between devices when
a step crosses a partition boundary.  :class:`OneDimPartition` /
:func:`partition_graph` give the vertex→device assignment, with range-based
(``contiguous``), degree-oblivious (``round_robin``) and load-greedy
(``degree_balanced``) strategies.

The shard pool in :mod:`repro.serve.router` routes each walk to the shard
owning its start vertex (every shard replica holds the whole graph and the
writer's whole fused tables); the Figure 12 scaling experiment
(:func:`repro.bench.experiments.scale_workers`) counts the walker hand-offs
a partition would incur.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph
from repro.utils.validation import check_positive_int


@dataclass
class OneDimPartition:
    """Assignment of vertices to ``num_parts`` devices.

    Attributes
    ----------
    num_parts:
        Number of partitions (simulated devices).
    owner:
        ``owner[v]`` is the partition that owns vertex ``v``.
    vertices:
        ``vertices[p]`` lists the vertices owned by partition ``p``.
    """

    num_parts: int
    owner: list[int]
    vertices: list[list[int]]
    _owner_array: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    def _check_parts(self) -> None:
        if self.num_parts < 1:
            raise ValueError("partition must have at least one part")

    def owner_array(self) -> np.ndarray:
        """The owner column as an ``int64`` array (cached)."""
        if self._owner_array is None or len(self._owner_array) != len(self.owner):
            self._owner_array = np.asarray(self.owner, dtype=np.int64)
        return self._owner_array

    def part_of(self, vertex: int) -> int:
        """Partition owning ``vertex``.

        Vertices beyond the partitioned prefix (created by update batches
        after the partition was computed) are provisionally owned round-robin
        (``vertex % num_parts``) until the next repartition, instead of
        crashing on an out-of-range lookup.
        """
        self._check_parts()
        if vertex < 0:
            raise ValueError(f"vertex id must be non-negative, got {vertex}")
        if vertex < len(self.owner):
            return self.owner[vertex]
        return vertex % self.num_parts

    def owner_for(self, num_vertices: int) -> np.ndarray:
        """Owner column extended to ``num_vertices`` (round-robin tail)."""
        self._check_parts()
        owner = self.owner_array()
        if num_vertices <= len(owner):
            return owner[:num_vertices]
        tail = np.arange(len(owner), num_vertices, dtype=np.int64) % self.num_parts
        return np.concatenate([owner, tail])

    def edge_cut(self, graph: DynamicGraph) -> int:
        """Number of arcs whose endpoints live on different partitions.

        Each such arc forces one walker transfer per traversal in the
        multi-device model.  Works on graphs that grew past the partitioned
        prefix (new vertices fall back to round-robin ownership) and on
        partitions with empty parts.
        """
        self._check_parts()
        owner = self.owner_for(graph.num_vertices)
        cut = 0
        for src in range(graph.num_vertices):
            dsts = graph.neighbor_array(src)
            if len(dsts):
                cut += int(np.count_nonzero(owner[dsts] != owner[src]))
        return cut

    def balance(self, graph: DynamicGraph) -> float:
        """Load imbalance: max part arc-count divided by the mean (1.0 = perfect).

        Empty partitions count toward the mean (they are idle devices); a
        graph without arcs is perfectly balanced by definition.
        """
        self._check_parts()
        owner = self.owner_for(graph.num_vertices)
        degrees = np.fromiter(
            (graph.degree(v) for v in range(graph.num_vertices)),
            dtype=np.int64,
            count=graph.num_vertices,
        )
        loads = np.bincount(owner, weights=degrees, minlength=self.num_parts)
        total = float(loads.sum())
        if total == 0.0:
            return 1.0
        mean = total / self.num_parts
        return float(loads.max()) / mean


def partition_graph(
    graph: DynamicGraph,
    num_parts: int,
    *,
    strategy: str = "contiguous",
) -> OneDimPartition:
    """Partition the vertex set into ``num_parts`` groups.

    Strategies
    ----------
    ``contiguous``
        Consecutive vertex ranges balanced by arc count (the KnightKing /
        Bingo 1-D layout).  Vertices without out-edges — including a
        trailing block of isolated vertices — are spread evenly across the
        ranges instead of piling onto the last partition.
    ``round_robin``
        Vertex ``v`` goes to partition ``v % num_parts``; a degree-oblivious
        baseline useful for comparing edge cuts.
    ``degree_balanced``
        Greedy longest-processing-time assignment: vertices are placed, in
        decreasing degree order, onto the currently lightest partition.
        Produces non-contiguous shards with near-perfect arc balance, which
        is what the shard pool wants.
    """
    check_positive_int(num_parts, "num_parts")
    n = graph.num_vertices
    owner = np.zeros(n, dtype=np.int64)

    if strategy == "round_robin":
        if n:
            owner = np.arange(n, dtype=np.int64) % num_parts
    elif strategy == "contiguous":
        if n:
            degrees = np.fromiter(
                (graph.degree(v) for v in range(n)), dtype=np.int64, count=n
            )
            # Hybrid load: the arc count dominates, but every vertex carries
            # one quantum so edgeless stretches still split into even ranges
            # (the old splitter dumped every trailing isolated vertex onto
            # the last part).
            load = degrees * np.int64(n) + 1
            cumulative_before = np.concatenate(([0], np.cumsum(load)[:-1]))
            owner = np.minimum(
                (cumulative_before * num_parts) // int(load.sum()),
                num_parts - 1,
            ).astype(np.int64)
    elif strategy == "degree_balanced":
        if n:
            degrees = np.fromiter(
                (graph.degree(v) for v in range(n)), dtype=np.int64, count=n
            )
            order = np.argsort(-degrees, kind="stable")
            # Heap of (arc_load, vertex_count, part): ties on arc load break
            # by vertex count, so isolated vertices also spread evenly.
            heap = [(0, 0, part) for part in range(num_parts)]
            for vertex in order.tolist():
                arc_load, count, part = heapq.heappop(heap)
                owner[vertex] = part
                heapq.heappush(
                    heap, (arc_load + int(degrees[vertex]), count + 1, part)
                )
    else:
        raise ValueError(f"unknown partitioning strategy {strategy!r}")

    vertices: list[list[int]] = [[] for _ in range(num_parts)]
    for vertex, part in enumerate(owner.tolist()):
        vertices[part].append(vertex)
    return OneDimPartition(
        num_parts=num_parts,
        owner=owner.tolist(),
        vertices=vertices,
        _owner_array=owner,
    )
