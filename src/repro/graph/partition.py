"""1-D graph partitioning and shared-memory shard stores (Section 9.1).

Bingo scales to multiple GPUs with KnightKing-style 1-D partitioning: vertices
are assigned to devices, each device owns the out-edges (and the per-vertex
sampling structures) of its vertices, and walkers migrate between devices when
a step crosses a partition boundary.  This module provides three layers of
that design:

* :class:`OneDimPartition` / :func:`partition_graph` — the vertex→device
  assignment, with range-based (``contiguous``), degree-oblivious
  (``round_robin``) and load-greedy (``degree_balanced``) strategies;
* :class:`SharedGraphShards` — the whole adjacency flattened into CSR
  columns living in :mod:`multiprocessing.shared_memory`, so worker
  processes attach zero-copy NumPy views instead of pickling neighbour
  lists;
* :class:`ShardSubgraph` — one worker's read-only view: the full topology
  (a shard runs whole walks, which reach any vertex) plus the set of
  vertices the shard *owns* and therefore builds sampling state for.

The shard pool in :mod:`repro.serve.router` consumes these; the Figure 12
scaling experiment (:func:`repro.bench.experiments.scale_workers`) counts
the walker hand-offs a partition would incur.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from collections.abc import Iterator, Sequence

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph, Edge
from repro.utils.segments import segment_positions
from repro.utils.validation import check_positive_int

_EMPTY_INT64 = np.empty(0, dtype=np.int64)


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


# --------------------------------------------------------------------------- #
# shared-memory shard store
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedShardHandle:
    """Picklable description of a shared columnar graph (names, not data).

    This is what crosses the process boundary: four shared-memory block
    names plus the array sizes.  The adjacency itself is never pickled.
    """

    indptr_name: str
    targets_name: str
    biases_name: str
    owner_name: str
    num_vertices: int
    num_arcs: int
    num_parts: int


def _allocate_block(array: np.ndarray) -> shared_memory.SharedMemory:
    block = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
    view[:] = array
    return block


def _attach_view(
    block: shared_memory.SharedMemory, length: int, dtype
) -> np.ndarray:
    return np.ndarray((length,), dtype=dtype, buffer=block.buf)


class SharedGraphShards:
    """A partitioned graph flattened into shared-memory CSR columns.

    The coordinator :meth:`create`\\ s the store (one copy of the adjacency
    into shared memory); each worker :meth:`attach`\\ es by handle and wraps
    the blocks in zero-copy NumPy views.  Per-shard
    :class:`ShardSubgraph` views expose the read-only graph API the engines'
    ``for_shard`` constructors consume.
    """

    def __init__(
        self,
        blocks: list[shared_memory.SharedMemory],
        indptr: np.ndarray,
        targets: np.ndarray,
        biases: np.ndarray,
        owner: np.ndarray,
        num_parts: int,
        *,
        owns_blocks: bool,
    ) -> None:
        self._blocks = blocks
        self.indptr = indptr
        self.targets = targets
        self.biases = biases
        self.owner = owner
        self.num_parts = num_parts
        self._owns_blocks = owns_blocks
        self._closed = False

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, graph: DynamicGraph, partition: OneDimPartition
    ) -> SharedGraphShards:
        """Export ``graph`` + ``partition`` into fresh shared-memory blocks."""
        n = graph.num_vertices
        indptr, targets, biases = graph.csr_columns()
        arcs = len(targets)
        owner = partition.owner_for(n)

        blocks = [
            _allocate_block(indptr),
            _allocate_block(targets),
            _allocate_block(biases),
            _allocate_block(owner),
        ]
        return cls(
            blocks,
            _attach_view(blocks[0], n + 1, np.int64),
            _attach_view(blocks[1], arcs, np.int64),
            _attach_view(blocks[2], arcs, np.float64),
            _attach_view(blocks[3], n, np.int64),
            partition.num_parts,
            owns_blocks=True,
        )

    def handle(self) -> SharedShardHandle:
        """The picklable handle workers use to :meth:`attach`."""
        return SharedShardHandle(
            indptr_name=self._blocks[0].name,
            targets_name=self._blocks[1].name,
            biases_name=self._blocks[2].name,
            owner_name=self._blocks[3].name,
            num_vertices=int(len(self.indptr) - 1),
            num_arcs=int(len(self.targets)),
            num_parts=self.num_parts,
        )

    @classmethod
    def attach(cls, handle: SharedShardHandle) -> SharedGraphShards:
        """Map an existing store into this process (zero-copy views)."""
        # Workers are spawned by multiprocessing and share the coordinator's
        # resource tracker (the fd travels in the spawn preparation data), so
        # attaching re-registers the same names as a no-op and only the
        # owning store's unlink deregisters them.
        blocks = [
            shared_memory.SharedMemory(name=handle.indptr_name),
            shared_memory.SharedMemory(name=handle.targets_name),
            shared_memory.SharedMemory(name=handle.biases_name),
            shared_memory.SharedMemory(name=handle.owner_name),
        ]
        return cls(
            blocks,
            _attach_view(blocks[0], handle.num_vertices + 1, np.int64),
            _attach_view(blocks[1], handle.num_arcs, np.int64),
            _attach_view(blocks[2], handle.num_arcs, np.float64),
            _attach_view(blocks[3], handle.num_vertices, np.int64),
            handle.num_parts,
            owns_blocks=False,
        )

    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return int(len(self.indptr) - 1)

    @property
    def num_arcs(self) -> int:
        return int(len(self.targets))

    def shard_view(self, shard: int) -> ShardSubgraph:
        """The read-only subgraph view for ``shard``."""
        if not (0 <= shard < self.num_parts):
            raise ValueError(f"shard {shard} out of range for {self.num_parts} parts")
        return ShardSubgraph(self.indptr, self.targets, self.biases, self.owner, shard)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop this process's mappings (and unlink when it owns the blocks)."""
        if self._closed:
            return
        self._closed = True
        # Release the array views before closing the underlying mmaps.
        self.indptr = self.targets = self.biases = self.owner = _EMPTY_INT64
        for block in self._blocks:
            try:
                block.close()
            except OSError:  # pragma: no cover - double close on interpreter exit
                pass
            if self._owns_blocks:
                try:
                    block.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class ShardSubgraph:
    """One shard's read-only view of a shared columnar graph.

    Exposes the :class:`~repro.graph.dynamic_graph.DynamicGraph` read API the
    engines need (full topology, so whole walks can reach any vertex and
    node2vec can test arbitrary edges) plus the ``owned`` vertex set the shard builds
    sampling state for.
    """

    __slots__ = ("indptr", "targets", "biases", "owner", "shard", "_owned")

    def __init__(
        self,
        indptr: np.ndarray,
        targets: np.ndarray,
        biases: np.ndarray,
        owner: np.ndarray,
        shard: int,
    ) -> None:
        self.indptr = indptr
        self.targets = targets
        self.biases = biases
        self.owner = owner
        self.shard = int(shard)
        self._owned: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return int(len(self.indptr) - 1)

    @property
    def num_arcs(self) -> int:
        return int(len(self.targets))

    @property
    def num_edges(self) -> int:
        return self.num_arcs

    @property
    def undirected(self) -> bool:
        return False

    def owned_vertices(self) -> np.ndarray:
        """Vertices this shard owns (builds sampling state for), ascending."""
        if self._owned is None:
            self._owned = np.flatnonzero(self.owner == self.shard).astype(np.int64)
        return self._owned

    def owns(self, vertex: int) -> bool:
        return 0 <= vertex < self.num_vertices and int(self.owner[vertex]) == self.shard

    # ------------------------------------------------------------------ #
    def _in_range(self, vertex: int) -> bool:
        return 0 <= vertex < self.num_vertices

    def degree(self, vertex: int) -> int:
        if not self._in_range(vertex):
            return 0
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def neighbor_array(self, vertex: int) -> np.ndarray:
        return self.targets[self.indptr[vertex] : self.indptr[vertex + 1]]

    def bias_array(self, vertex: int) -> np.ndarray:
        return self.biases[self.indptr[vertex] : self.indptr[vertex + 1]]

    def csr_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole topology as ``(indptr, targets, biases)`` (shared views)."""
        return self.indptr, self.targets, self.biases

    def gather_rows(
        self, vertices: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``vertices``' rows back to back: ``(lengths, targets, biases)``."""
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.indptr[vertices]
        lengths = self.indptr[vertices + 1] - starts
        edges = segment_positions(starts, lengths)
        return lengths, self.targets[edges], self.biases[edges]

    def neighbors(self, vertex: int) -> Sequence[int]:
        return self.neighbor_array(vertex).tolist()

    def neighbor_biases(self, vertex: int) -> Sequence[float]:
        return self.bias_array(vertex).tolist()

    def has_edge(self, src: int, dst: int) -> bool:
        if not self._in_range(src) or not self._in_range(dst):
            return False
        return bool(np.any(self.neighbor_array(src) == dst))

    def has_arcs(self, srcs: Sequence[int], dsts: Sequence[int]) -> np.ndarray:
        """:meth:`has_edge` over aligned ``(src, dst)`` pairs, as a bool array.

        Pairs with an id outside ``[0, num_vertices)`` are absent.
        """
        pairs = zip(np.asarray(srcs).tolist(), np.asarray(dsts).tolist())
        return np.fromiter(
            (self.has_edge(src, dst) for src, dst in pairs), dtype=bool, count=len(srcs)
        )

    def out_edges(self, vertex: int) -> Iterator[Edge]:
        for dst, bias in zip(self.neighbors(vertex), self.neighbor_biases(vertex)):
            yield Edge(vertex, dst, bias)

    def edges(self) -> Iterator[Edge]:
        for vertex in range(self.num_vertices):
            yield from self.out_edges(vertex)

    def total_bias(self, vertex: int) -> float:
        return float(self.bias_array(vertex).sum())

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(np.max(np.diff(self.indptr)))

    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_arcs / self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSubgraph(shard={self.shard}, vertices={self.num_vertices}, "
            f"owned={len(self.owned_vertices())}, arcs={self.num_arcs})"
        )
