"""A dynamic, weighted, directed adjacency structure on columnar storage.

The paper builds Bingo on Hornet-style dynamic arrays: each vertex owns a
growable neighbour list, edge deletion swaps the victim with the tail so the
list stays compact, and a per-vertex index maps destination → position for
O(1) lookup.  This module reproduces those semantics on the host with a
*columnar* NumPy layout — per-vertex capacity-doubling ``int64`` destination
and ``float64`` bias arrays — so bulk ingestion and the vectorized walk
kernels operate on contiguous memory instead of Python lists.

Access tiers:

* the scalar API (:meth:`DynamicGraph.add_edge`,
  :meth:`DynamicGraph.remove_edge`, :meth:`DynamicGraph.neighbors`, ...),
  which streaming updates use;
* zero-copy array views (:meth:`DynamicGraph.neighbor_array` /
  :meth:`DynamicGraph.bias_array`) and whole-graph CSR columns;
* the batch path, the only way an update batch changes a graph:
  :meth:`DynamicGraph.batch_changes` collapses the batch to its Section 5.2
  net effect (:meth:`~repro.graph.update_batch.UpdateBatch.net_changes`)
  and validates both of its columns, then :meth:`DynamicGraph.remove_arcs`
  and :meth:`DynamicGraph.add_arcs` apply them
  (:meth:`DynamicGraph.apply_batch` runs all three).  Every engine and
  every shard replica applies its batches this way.

Undirected graphs are represented as two directed arcs sharing one logical
edge, which matches how the evaluation datasets are ingested; the batch
path mirrors each update into both arcs, so an undirected batch is the
directed batch of its mirrored arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.errors import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    VertexNotFoundError,
)
from repro.graph.update_batch import GraphUpdate, NetChanges, UpdateBatch
from repro.utils.validation import check_bias, check_non_negative_int

Number = float

#: First non-zero capacity of a vertex's neighbour arrays.
_MIN_CAPACITY = 4

#: Below this many edges a bulk membership probe walks the position index
#: (O(b) dict lookups); at or above it, one vectorized ``np.isin`` wins.
_ISIN_THRESHOLD = 16

_EMPTY_DSTS = np.empty(0, dtype=np.int64)
_EMPTY_BIASES = np.empty(0, dtype=np.float64)


def _first_duplicate(values: list) -> Any:
    """The first value appearing twice in ``values`` (caller guarantees one)."""
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)
    return values[-1]  # pragma: no cover - unreachable under the guarantee


def _mirrored(batch: UpdateBatch) -> UpdateBatch:
    """Each update as both of its arcs, ``src -> dst`` first; a self-loop once."""
    kept = np.column_stack((np.ones(len(batch), dtype=bool), batch.src != batch.dst)).ravel()
    rows = np.repeat(np.arange(len(batch)), 2)[kept]
    return UpdateBatch(
        np.column_stack((batch.src, batch.dst)).ravel()[kept],
        np.column_stack((batch.dst, batch.src)).ravel()[kept],
        batch.bias[rows],
        batch.insert_mask[rows],
        batch.timestamp[rows],
    )


@dataclass(frozen=True)
class Edge:
    """A single directed edge with its sampling bias."""

    src: int
    dst: int
    bias: Number

    def reversed(self) -> Edge:
        """The same edge pointing the opposite way (used for undirected input)."""
        return Edge(self.dst, self.src, self.bias)


class _VertexAdjacency:
    """Per-vertex columnar neighbour store with O(1) delete via swap-with-last.

    ``dsts``/``biases`` are capacity arrays; only the first ``size`` entries
    are live.  ``position`` maps destination → live index.
    """

    __slots__ = ("dsts", "biases", "size", "position")

    def __init__(self) -> None:
        self.dsts: np.ndarray = _EMPTY_DSTS
        self.biases: np.ndarray = _EMPTY_BIASES
        self.size: int = 0
        # destination vertex -> index inside the live prefix of `dsts`/`biases`
        self.position: dict[int, int] = {}

    def __len__(self) -> int:
        return self.size

    # -------------------------------------------------------------- #
    def _grow(self, needed: int) -> None:
        """Capacity-double (Hornet-style) until ``needed`` entries fit."""
        capacity = len(self.dsts)
        if needed <= capacity:
            return
        new_capacity = max(_MIN_CAPACITY, capacity)
        while new_capacity < needed:
            new_capacity *= 2
        dsts = np.empty(new_capacity, dtype=np.int64)
        biases = np.empty(new_capacity, dtype=np.float64)
        dsts[: self.size] = self.dsts[: self.size]
        biases[: self.size] = self.biases[: self.size]
        self.dsts = dsts
        self.biases = biases

    def dst_view(self) -> np.ndarray:
        """Zero-copy view of the live destinations."""
        return self.dsts[: self.size]

    def bias_view(self) -> np.ndarray:
        """Zero-copy view of the live biases."""
        return self.biases[: self.size]

    # -------------------------------------------------------------- #
    def add(self, dst: int, bias: Number) -> int:
        index = self.size
        if index == len(self.dsts):
            self._grow(index + 1)
        self.dsts[index] = dst
        self.biases[index] = bias
        self.position[dst] = index
        self.size = index + 1
        return index

    def add_many(self, dsts: np.ndarray, biases: np.ndarray) -> None:
        """Append a whole slice of new destinations in order."""
        count = len(dsts)
        if count == 0:
            return
        start = self.size
        self._grow(start + count)
        self.dsts[start : start + count] = dsts
        self.biases[start : start + count] = biases
        self.position.update(zip(dsts.tolist(), range(start, start + count)))
        self.size = start + count

    def remove(self, dst: int) -> Number:
        """Remove ``dst`` and return its bias; the tail moves into its slot."""
        index = self.position.pop(dst)
        biases = self.biases
        bias = biases.item(index)
        last = self.size - 1
        if index != last:
            dsts = self.dsts
            moved = dsts.item(last)
            dsts[index] = moved
            biases[index] = biases.item(last)
            self.position[moved] = index
        self.size = last
        return bias

    def set_bias(self, dst: int, bias: Number) -> Number:
        index = self.position[dst]
        old = float(self.biases[index])
        self.biases[index] = bias
        return old

    def contains_many(self, dsts: np.ndarray) -> np.ndarray:
        """Vectorized membership test: which of ``dsts`` are live neighbours."""
        if self.size == 0 or len(dsts) == 0:
            return np.zeros(len(dsts), dtype=bool)
        if len(dsts) < _ISIN_THRESHOLD:
            position = self.position
            return np.fromiter(
                (dst in position for dst in dsts.tolist()),
                dtype=bool,
                count=len(dsts),
            )
        return np.isin(dsts, self.dst_view())

    def copy(self) -> _VertexAdjacency:
        clone = _VertexAdjacency()
        if self.size:
            clone.dsts = self.dsts[: self.size].copy()
            clone.biases = self.biases[: self.size].copy()
            clone.size = self.size
            clone.position = dict(self.position)
        return clone


class DynamicGraph:
    """A mutable weighted directed graph with integer vertex identifiers.

    Vertices are numbered ``0 .. num_vertices - 1``.  The structure supports:

    * O(1) amortised edge insertion (scalar or bulk),
    * O(1) edge deletion (swap-with-last inside the neighbour array),
    * O(1) bias lookup / update,
    * zero-copy NumPy views of each vertex's neighbour/bias columns,
    * iteration over out-neighbours in array order (the order Bingo's
      intra-group structures reference by *neighbour index*).

    Parameters
    ----------
    num_vertices:
        Initial number of vertices.  Further vertices can be added with
        :meth:`add_vertex` / :meth:`add_vertices`.
    undirected:
        When ``True`` each :meth:`add_edge` inserts both arcs and each
        :meth:`remove_edge` removes both.
    """

    def __init__(self, num_vertices: int = 0, *, undirected: bool = False) -> None:
        check_non_negative_int(num_vertices, "num_vertices")
        self._adjacency: list[_VertexAdjacency] = [
            _VertexAdjacency() for _ in range(num_vertices)
        ]
        self._undirected = bool(undirected)
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, Number]],
        *,
        num_vertices: int | None = None,
        undirected: bool = False,
    ) -> DynamicGraph:
        """Build a graph from an iterable of ``(src, dst, bias)`` triples."""
        edge_list = [(int(s), int(d), b) for s, d, b in edges]
        if num_vertices is None:
            highest = -1
            for src, dst, _ in edge_list:
                highest = max(highest, src, dst)
            num_vertices = highest + 1
        graph = cls(num_vertices, undirected=undirected)
        for src, dst, bias in edge_list:
            graph.add_edge(src, dst, bias)
        return graph

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        targets: np.ndarray,
        biases: np.ndarray,
        *,
        undirected: bool = False,
    ) -> DynamicGraph:
        """The graph whose :meth:`csr_columns` are ``(indptr, targets, biases)``.

        The columns are taken as stored arcs, rows in neighbour-array
        order: an undirected graph's columns already hold both arcs of
        every edge, so nothing is mirrored.  No arc is validated.
        """
        graph = cls(len(indptr) - 1, undirected=undirected)
        targets = np.asarray(targets, dtype=np.int64)
        biases = np.asarray(biases, dtype=np.float64)
        bounds = np.asarray(indptr).tolist()
        for adjacency, start, stop in zip(graph._adjacency, bounds, bounds[1:]):
            adjacency.add_many(targets[start:stop], biases[start:stop])
        if undirected:
            rows = np.repeat(np.arange(len(bounds) - 1), np.diff(indptr))
            loops = int(np.count_nonzero(rows == targets))
            graph._num_edges = (len(targets) + loops) // 2
        else:
            graph._num_edges = len(targets)
        return graph

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def undirected(self) -> bool:
        """Whether edges are mirrored automatically."""
        return self._undirected

    @property
    def num_vertices(self) -> int:
        """Number of vertices currently in the graph."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of logical edges (an undirected edge counts once)."""
        return self._num_edges

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs stored internally."""
        return sum(adj.size for adj in self._adjacency)

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < len(self._adjacency)

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < len(self._adjacency)):
            raise VertexNotFoundError(vertex)

    # ------------------------------------------------------------------ #
    # vertex operations
    # ------------------------------------------------------------------ #
    def add_vertex(self) -> int:
        """Append a new isolated vertex and return its identifier."""
        self._adjacency.append(_VertexAdjacency())
        return len(self._adjacency) - 1

    def add_vertices(self, count: int) -> list[int]:
        """Append ``count`` new isolated vertices and return their identifiers."""
        check_non_negative_int(count, "count")
        start = len(self._adjacency)
        self._adjacency.extend(_VertexAdjacency() for _ in range(count))
        return list(range(start, start + count))

    def ensure_vertex(self, vertex: int) -> None:
        """Grow the vertex set (if needed) so that ``vertex`` exists."""
        check_non_negative_int(vertex, "vertex")
        while vertex >= len(self._adjacency):
            self._adjacency.append(_VertexAdjacency())

    def ensure_vertices(self, highest: int) -> None:
        """Grow the vertex set so every id up to ``highest`` exists (bulk form)."""
        check_non_negative_int(highest, "highest")
        missing = highest + 1 - len(self._adjacency)
        if missing > 0:
            self._adjacency.extend(_VertexAdjacency() for _ in range(missing))

    def isolate_vertex(self, vertex: int) -> list[Edge]:
        """Remove every edge incident to ``vertex`` and return the removed edges.

        This implements *vertex deletion* in terms of edge deletions, as the
        paper notes (Section 4.2): the vertex identifier itself remains valid
        but becomes isolated.
        """
        self._check_vertex(vertex)
        removed: list[Edge] = []
        for dst in list(self._adjacency[vertex].position):
            bias = self.edge_bias(vertex, dst)
            self.remove_edge(vertex, dst)
            removed.append(Edge(vertex, dst, bias))
        if not self._undirected:
            # Remove incoming arcs as well by scanning sources; directed
            # deletion of in-edges is inherently O(V) without an in-index.
            for src in range(len(self._adjacency)):
                if src == vertex:
                    continue
                if self.has_edge(src, vertex):
                    bias = self.edge_bias(src, vertex)
                    self.remove_edge(src, vertex)
                    removed.append(Edge(src, vertex, bias))
        return removed

    # ------------------------------------------------------------------ #
    # edge operations
    # ------------------------------------------------------------------ #
    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the arc ``src -> dst`` exists."""
        self._check_vertex(src)
        self._check_vertex(dst)
        return dst in self._adjacency[src].position

    def has_edges(self, src: int, dsts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge` for a slice of destinations of ``src``.

        Returns a boolean array aligned with ``dsts``; destinations outside
        the current vertex range are simply reported absent (bulk callers
        probe edges toward vertices the batch is about to create).
        """
        self._check_vertex(src)
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        return self._adjacency[src].contains_many(dsts)

    def has_arcs(self, srcs: Sequence[int], dsts: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`has_edge` over aligned ``(src, dst)`` pairs.

        Returns a boolean array aligned with the inputs.  Unlike
        :meth:`has_edge`, which raises on an id outside the vertex range,
        a pair with a negative id or one at or past :attr:`num_vertices`
        is simply reported absent.
        """
        adjacency = self._adjacency
        limit = len(adjacency)
        pairs = zip(np.asarray(srcs).tolist(), np.asarray(dsts).tolist())
        return np.fromiter(
            (0 <= src < limit and dst in adjacency[src].position for src, dst in pairs),
            dtype=bool,
            count=len(srcs),
        )

    def add_edge(self, src: int, dst: int, bias: Number = 1.0) -> None:
        """Insert an edge with the given bias.

        Raises
        ------
        DuplicateEdgeError
            If the edge already exists.  Use :meth:`update_bias` to change an
            existing edge's bias.
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        check_bias(bias)
        if dst in self._adjacency[src].position:
            raise DuplicateEdgeError(src, dst)
        self._adjacency[src].add(dst, bias)
        if self._undirected and src != dst:
            if src in self._adjacency[dst].position:
                raise DuplicateEdgeError(dst, src)
            self._adjacency[dst].add(src, bias)
        self._num_edges += 1

    def remove_edge(self, src: int, dst: int) -> Number:
        """Delete an edge and return its bias.

        Raises
        ------
        EdgeNotFoundError
            If the edge does not exist.
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        if dst not in self._adjacency[src].position:
            raise EdgeNotFoundError(src, dst)
        bias = self._adjacency[src].remove(dst)
        if self._undirected and src != dst:
            self._adjacency[dst].remove(src)
        self._num_edges -= 1
        return bias

    # ------------------------------------------------------------------ #
    # per-vertex bulk edge operations
    # ------------------------------------------------------------------ #
    # Kept only because perfbench calls and patches them by name (ROADMAP item 8).
    def add_edges_bulk(
        self,
        src: int,
        dsts: np.ndarray,
        biases: np.ndarray,
    ) -> None:
        """Insert a whole slice of out-edges of ``src`` in one pass.

        Equivalent to calling :meth:`add_edge` for each ``(src, dsts[i],
        biases[i])`` in order — including the resulting neighbour-array order
        — but with vectorized validation: one membership check against the
        live neighbour column instead of one dictionary probe per edge.

        Raises the same errors as the scalar path: ``VertexNotFoundError``
        for out-of-range endpoints, ``InvalidBiasError`` for non-positive or
        non-finite biases, ``DuplicateEdgeError`` when any destination is
        already a neighbour (or appears twice in the slice).
        """
        self._check_vertex(src)
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        biases = np.ascontiguousarray(biases, dtype=np.float64)
        count = len(dsts)
        if count == 0:
            return
        if len(biases) != count:
            raise ValueError("dsts and biases must have matching lengths")
        if count == 1:
            # Bulk slices of one edge are common; skip the vectorized checks.
            self.add_edge(src, int(dsts[0]), float(biases[0]))
            return
        limit = len(self._adjacency)
        adjacency = self._adjacency[src]
        if count < _ISIN_THRESHOLD:
            # Small slices: direct index probes beat the vectorized checks.
            dst_list = dsts.tolist()
            position = adjacency.position
            for dst in dst_list:
                if not 0 <= dst < limit:
                    raise VertexNotFoundError(dst)
                if dst in position:
                    raise DuplicateEdgeError(src, dst)
            if len(set(dst_list)) != count:
                raise DuplicateEdgeError(src, _first_duplicate(dst_list))
            for bias in biases.tolist():
                check_bias(bias)
        else:
            if int(dsts.max()) >= limit or int(dsts.min()) < 0:
                bad = dsts[(dsts >= limit) | (dsts < 0)][0]
                raise VertexNotFoundError(int(bad))
            finite = np.isfinite(biases)
            if not finite.all() or (biases[finite] <= 0).any():
                bad_bias = biases[~(finite & (biases > 0))][0]
                check_bias(float(bad_bias))  # raises InvalidBiasError
            present = adjacency.contains_many(dsts)
            if present.any():
                raise DuplicateEdgeError(src, int(dsts[present][0]))
            unique, counts = np.unique(dsts, return_counts=True)
            if (counts > 1).any():
                raise DuplicateEdgeError(src, int(unique[counts > 1][0]))
        adjacency.add_many(dsts, biases)
        if self._undirected:
            for dst, bias in zip(dsts.tolist(), biases.tolist()):
                if dst == src:
                    continue
                mirror = self._adjacency[dst]
                if src in mirror.position:
                    raise DuplicateEdgeError(dst, src)
                mirror.add(src, bias)
        self._num_edges += count

    def remove_edges_bulk(self, src: int, dsts: np.ndarray) -> np.ndarray:
        """Delete a whole slice of out-edges of ``src`` and return their biases.

        Deletions are applied with the same swap-with-last workflow — in
        slice order — as repeated :meth:`remove_edge` calls, so the surviving
        neighbour-array order is identical to the scalar path.  Membership of
        the entire slice is validated up front in one vectorized check.
        """
        self._check_vertex(src)
        dsts = np.ascontiguousarray(dsts, dtype=np.int64)
        count = len(dsts)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        adjacency = self._adjacency[src]
        dst_list = dsts.tolist()
        if count > 1:
            if count < _ISIN_THRESHOLD:
                position = adjacency.position
                for dst in dst_list:
                    if dst not in position:
                        raise EdgeNotFoundError(src, dst)
                if len(set(dst_list)) != count:
                    # The second removal of a duplicate would miss.
                    raise EdgeNotFoundError(src, _first_duplicate(dst_list))
            else:
                present = adjacency.contains_many(dsts)
                if not present.all():
                    raise EdgeNotFoundError(src, int(dsts[~present][0]))
                unique, counts = np.unique(dsts, return_counts=True)
                if (counts > 1).any():
                    raise EdgeNotFoundError(src, int(unique[counts > 1][0]))
        elif dst_list[0] not in adjacency.position:
            raise EdgeNotFoundError(src, dst_list[0])
        removed = np.empty(count, dtype=np.float64)
        undirected = self._undirected
        for slot, dst in enumerate(dst_list):
            bias = adjacency.remove(dst)
            removed[slot] = bias
            if undirected and dst != src:
                self._adjacency[dst].remove(src)
        self._num_edges -= count
        return removed

    # ------------------------------------------------------------------ #
    # batched updates: the one path a batch takes into the graph
    # ------------------------------------------------------------------ #
    def apply_batch(self, batch: UpdateBatch | Sequence[GraphUpdate]) -> NetChanges:
        """Apply a whole batch's net effect and return it.

        :meth:`batch_changes`, then :meth:`remove_arcs` and
        :meth:`add_arcs`: a refused batch changes nothing.
        """
        changes = self.batch_changes(batch)
        self.remove_arcs(changes)
        self.add_arcs(changes)
        return changes

    def batch_changes(self, batch: UpdateBatch | Sequence[GraphUpdate]) -> NetChanges:
        """``batch``'s net effect on this graph, validated; nothing changes.

        Section 5.2's normalization (:meth:`UpdateBatch.net_changes`): per
        arc the last operation wins, insert-then-delete cancels, and
        delete-then-insert updates the bias.  An undirected graph first
        mirrors each update into both of its arcs (a self-loop once), so
        every row sees its operations in timestamp order and both arcs of
        an edge share one fate.  Each column is checked once: a deleted
        arc must exist (:class:`~repro.errors.EdgeNotFoundError`), an
        inserted one must be absent or deleted by the same batch
        (:class:`~repro.errors.DuplicateEdgeError`), every inserted bias
        must be valid, and no id may be negative.  Apply the result with
        :meth:`remove_arcs`, then :meth:`add_arcs`.
        """
        batch = UpdateBatch.coerce(batch)
        if len(batch):
            lowest = min(int(batch.src.min()), int(batch.dst.min()))
            if lowest < 0:
                raise VertexNotFoundError(lowest)
        if self._undirected:
            batch = _mirrored(batch)
        changes = batch.net_changes(self.has_arcs)
        present = self.has_arcs(changes.delete_srcs, changes.delete_dsts)
        if not present.all():
            missing = np.flatnonzero(~present)[0]
            raise EdgeNotFoundError(
                int(changes.delete_srcs[missing]), int(changes.delete_dsts[missing])
            )
        biases = changes.insert_biases
        valid = np.isfinite(biases) & (biases > 0)
        if not valid.all():
            check_bias(float(biases[~valid][0]))  # raises InvalidBiasError
        present = self.has_arcs(changes.insert_srcs, changes.insert_dsts)
        if present.any():
            replaced = set(zip(changes.delete_srcs.tolist(), changes.delete_dsts.tolist()))
            for arc in zip(
                changes.insert_srcs[present].tolist(), changes.insert_dsts[present].tolist()
            ):
                if arc not in replaced:
                    raise DuplicateEdgeError(*arc)
        return changes

    def remove_arcs(self, changes: NetChanges) -> None:
        """Delete a batch's net deletions, in column order.

        ``changes`` comes from :meth:`batch_changes`, which validated it.
        Each source's surviving neighbour order is the one repeated
        :meth:`remove_edge` calls leave; on an undirected graph the column
        holds both arcs of every edge.
        """
        adjacency = self._adjacency
        for src, dst in zip(changes.delete_srcs.tolist(), changes.delete_dsts.tolist()):
            adjacency[src].remove(dst)
        self._num_edges -= self._logical_edges(changes.delete_srcs, changes.delete_dsts)

    def add_arcs(self, changes: NetChanges) -> None:
        """Grow the vertex set to the batch's ids, then insert its net
        insertions in column order, with the neighbour order repeated
        :meth:`add_edge` calls leave.

        ``changes`` comes from :meth:`batch_changes` and follows
        :meth:`remove_arcs` of the same changes.
        """
        if changes.highest >= 0:
            self.ensure_vertices(changes.highest)
        adjacency = self._adjacency
        for src, dst, bias in zip(
            changes.insert_srcs.tolist(),
            changes.insert_dsts.tolist(),
            changes.insert_biases.tolist(),
        ):
            adjacency[src].add(dst, bias)
        self._num_edges += self._logical_edges(changes.insert_srcs, changes.insert_dsts)

    def _logical_edges(self, srcs: np.ndarray, dsts: np.ndarray) -> int:
        """How many edges a column of arcs is: on an undirected graph it
        holds both arcs of each edge but a self-loop once."""
        if not self._undirected:
            return len(srcs)
        return (len(srcs) + int(np.count_nonzero(srcs == dsts))) // 2

    def update_bias(self, src: int, dst: int, bias: Number) -> Number:
        """Change the bias of an existing edge, returning the previous value."""
        self._check_vertex(src)
        self._check_vertex(dst)
        check_bias(bias)
        if dst not in self._adjacency[src].position:
            raise EdgeNotFoundError(src, dst)
        old = self._adjacency[src].set_bias(dst, bias)
        if self._undirected and src != dst:
            self._adjacency[dst].set_bias(src, bias)
        return old

    def edge_bias(self, src: int, dst: int) -> Number:
        """The bias of an existing edge."""
        self._check_vertex(src)
        self._check_vertex(dst)
        adjacency = self._adjacency[src]
        if dst not in adjacency.position:
            raise EdgeNotFoundError(src, dst)
        return float(adjacency.biases[adjacency.position[dst]])

    # ------------------------------------------------------------------ #
    # neighbour access
    # ------------------------------------------------------------------ #
    def degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        self._check_vertex(vertex)
        return self._adjacency[vertex].size

    def neighbors(self, vertex: int) -> Sequence[int]:
        """Out-neighbours of ``vertex`` in neighbour-array order (a copy)."""
        self._check_vertex(vertex)
        return self._adjacency[vertex].dst_view().tolist()

    def neighbor_biases(self, vertex: int) -> Sequence[Number]:
        """Biases aligned with :meth:`neighbors` (a copy)."""
        self._check_vertex(vertex)
        return self._adjacency[vertex].bias_view().tolist()

    def neighbor_array(self, vertex: int) -> np.ndarray:
        """Zero-copy ``int64`` view of the live destination column.

        The view aliases the graph's storage: it is invalidated by any
        mutation of ``vertex``'s out-edges (a capacity growth reallocates,
        a delete rewrites the tail in place).  Callers that need a stable
        snapshot must copy.
        """
        self._check_vertex(vertex)
        return self._adjacency[vertex].dst_view()

    def bias_array(self, vertex: int) -> np.ndarray:
        """Zero-copy ``float64`` view of the live bias column.

        Same aliasing caveat as :meth:`neighbor_array`.
        """
        self._check_vertex(vertex)
        return self._adjacency[vertex].bias_view()

    def neighbor_at(self, vertex: int, index: int) -> tuple[int, Number]:
        """The ``(destination, bias)`` stored at neighbour-array position ``index``."""
        self._check_vertex(vertex)
        adjacency = self._adjacency[vertex]
        if not (0 <= index < adjacency.size):
            raise IndexError(f"neighbor index {index} out of range for vertex {vertex}")
        return int(adjacency.dsts[index]), float(adjacency.biases[index])

    def neighbor_index(self, src: int, dst: int) -> int:
        """Position of ``dst`` inside ``src``'s neighbour array."""
        self._check_vertex(src)
        self._check_vertex(dst)
        adjacency = self._adjacency[src]
        if dst not in adjacency.position:
            raise EdgeNotFoundError(src, dst)
        return adjacency.position[dst]

    def csr_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole adjacency as CSR columns ``(indptr, targets, biases)``.

        Row ``v`` is ``[indptr[v], indptr[v + 1])`` in neighbour-array
        order, the order :meth:`edges` yields; the columns are copies.
        """
        sizes, targets, biases = self.gather_rows(range(len(self._adjacency)))
        indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return indptr, targets, biases

    def gather_rows(
        self, vertices: Iterable[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``vertices``' rows back to back: ``(lengths, targets, biases)``.

        Each row in neighbour-array order; the columns are copies.
        """
        adjacency = self._adjacency
        rows = [adjacency[vertex] for vertex in np.asarray(vertices).tolist()]
        lengths = np.fromiter((adj.size for adj in rows), dtype=np.int64, count=len(rows))
        live = [adj for adj in rows if adj.size]
        if not live:
            return lengths, _EMPTY_DSTS.copy(), _EMPTY_BIASES.copy()
        targets = np.concatenate([adj.dsts[: adj.size] for adj in live])
        biases = np.concatenate([adj.biases[: adj.size] for adj in live])
        return lengths, targets, biases

    def out_edges(self, vertex: int) -> Iterator[Edge]:
        """Iterate the out-edges of ``vertex``."""
        self._check_vertex(vertex)
        adjacency = self._adjacency[vertex]
        for dst, bias in zip(
            adjacency.dst_view().tolist(), adjacency.bias_view().tolist()
        ):
            yield Edge(vertex, dst, bias)

    def edges(self) -> Iterator[Edge]:
        """Iterate every stored arc (both directions for undirected graphs)."""
        for src in range(len(self._adjacency)):
            yield from self.out_edges(src)

    def total_bias(self, vertex: int) -> Number:
        """Sum of biases of the out-edges of ``vertex``."""
        self._check_vertex(vertex)
        return float(self._adjacency[vertex].bias_view().sum())

    def max_degree(self) -> int:
        """Largest out-degree in the graph (0 for an empty graph)."""
        if not self._adjacency:
            return 0
        return max(adj.size for adj in self._adjacency)

    def average_degree(self) -> float:
        """Mean out-degree (counting arcs)."""
        if not self._adjacency:
            return 0.0
        return self.num_arcs / len(self._adjacency)

    # ------------------------------------------------------------------ #
    # snapshots and copies
    # ------------------------------------------------------------------ #
    def copy(self) -> DynamicGraph:
        """A deep copy of the graph (column arrays are copied compactly)."""
        clone = DynamicGraph(0, undirected=False)
        clone._adjacency = [adj.copy() for adj in self._adjacency]
        clone._undirected = self._undirected
        clone._num_edges = self._num_edges
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "undirected" if self._undirected else "directed"
        return (
            f"DynamicGraph({kind}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )
