"""Columnar update batches: the unit of work of batched ingestion.

The paper's Section 5.2 workflow treats a batch of edge updates as one
kernel launch: reorder the requests so updates touching the same vertex sit
together, collapse insert/delete pairs on the same edge, then apply each
vertex's net slice in one pass.  This module provides the host-side data
structure for that workflow:

* :class:`UpdateKind` / :class:`GraphUpdate` — the scalar update record
  (re-exported by :mod:`repro.graph.update_stream` for compatibility);
* :class:`UpdateBatch` — the same information as four NumPy columns
  (``src`` / ``dst`` / ``bias`` / ``insert_mask``), with ``argsort``-based
  per-vertex grouping, vectorized duplicate detection, and net-effect
  normalization that reproduces the timestamp-ordered semantics of the
  scalar path exactly (including the order in which net insertions and
  deletions are emitted, so batched and per-edge ingestion build
  byte-identical sampling state).

An :class:`UpdateBatch` still behaves like a sequence of
:class:`GraphUpdate` (``len`` / indexing / iteration), so every legacy
call-site — streaming ingestion, tests, examples — keeps working unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

_EMPTY_INT64 = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT64 = np.empty(0, dtype=np.float64)


class UpdateKind(str, enum.Enum):
    """The two edge-level events a dynamic graph experiences."""

    INSERT = "insert"
    DELETE = "delete"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GraphUpdate:
    """A single edge insertion or deletion with a logical timestamp."""

    kind: UpdateKind
    src: int
    dst: int
    bias: float = 1.0
    timestamp: int = 0

    def as_edge(self):
        """The edge this update refers to."""
        from repro.graph.dynamic_graph import Edge

        return Edge(self.src, self.dst, self.bias)


class VertexUpdateSlice:
    """One vertex's share of a batch, in timestamp order (column views).

    ``has_duplicates`` records whether any destination appears more than
    once in this slice — only then can insert/delete cancellation or a bias
    update occur.  A plain ``__slots__`` class (not a dataclass): one
    instance is built per touched vertex per batch, on the ingestion hot
    path.
    """

    __slots__ = ("vertex", "dsts", "biases", "insert_mask", "has_duplicates")

    def __init__(
        self,
        vertex: int,
        dsts: np.ndarray,
        biases: np.ndarray,
        insert_mask: np.ndarray,
        has_duplicates: bool,
    ) -> None:
        self.vertex = vertex
        self.dsts = dsts
        self.biases = biases
        self.insert_mask = insert_mask
        self.has_duplicates = has_duplicates

    def __len__(self) -> int:
        return len(self.dsts)

    def kind_runs(self) -> list[tuple[bool, int, int]]:
        """Maximal runs of equal update kind as ``(is_insert, start, stop)``.

        Replaying the slice run-by-run preserves the exact timestamp order
        of the scalar path while letting each run use a bulk mutator.
        """
        mask = self.insert_mask
        count = len(mask)
        if count == 0:
            return []
        first = bool(mask[0])
        if count == 1:
            return [(first, 0, 1)]
        boundaries = np.flatnonzero(mask[1:] != mask[:-1])
        if len(boundaries) == 0:
            return [(first, 0, count)]
        runs: list[tuple[bool, int, int]] = []
        kind = first
        start = 0
        for stop in (boundaries + 1).tolist():
            runs.append((kind, start, stop))
            kind = not kind
            start = stop
        runs.append((kind, start, count))
        return runs

    def normalize(
        self, membership: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Collapse the slice into net deletions and insertions.

        Reproduces the per-edge replay ``normalize_vertex_updates`` of the
        test tree's ``scalar_batch_oracle`` exactly — same net effect, same
        emission order (first-occurrence order of the surviving
        destinations), same cancellation count — so the columnar and
        per-edge ingestion paths build identical state.

        ``membership`` maps an ``int64`` destination array to a boolean
        array saying which destinations are currently out-neighbours; it is
        only consulted for delete-then-reinsert destinations, and never on
        the duplicate-free fast path.

        Returns ``(deletions, insert_dsts, insert_biases, cancelled)``.
        """
        if not self.has_duplicates:
            # Fast path: every destination appears once, so the net effect
            # is the slice itself split by kind (emission order preserved).
            # Single-kind slices (the overwhelmingly common case) reuse the
            # column views without any masking allocation.
            mask = self.insert_mask
            if mask.all():
                return _EMPTY_INT64, self.dsts, self.biases, 0
            if not mask.any():
                return self.dsts, _EMPTY_INT64, _EMPTY_FLOAT64, 0
            return self.dsts[~mask], self.dsts[mask], self.biases[mask], 0

        # Replay the per-destination state machine of the scalar path.
        net: dict = {}  # dst -> ("insert" | "update" | "delete", bias | None)
        cancelled = 0
        for dst, bias, is_insert in zip(
            self.dsts.tolist(), self.biases.tolist(), self.insert_mask.tolist()
        ):
            previous = net.get(dst)
            if is_insert:
                if previous is not None and previous[0] == "delete":
                    # delete then insert: the edge survives with the new bias.
                    net[dst] = ("update", bias)
                else:
                    net[dst] = ("insert", bias)
            else:
                if previous is not None and previous[0] == "insert":
                    # insert then delete within the batch: both vanish.
                    del net[dst]
                    cancelled += 1
                else:
                    net[dst] = ("delete", None)

        update_dsts = [dst for dst, (action, _) in net.items() if action == "update"]
        existing = set()
        if update_dsts:
            present = membership(np.asarray(update_dsts, dtype=np.int64))
            existing = {
                dst for dst, hit in zip(update_dsts, present.tolist()) if hit
            }
        insert_dsts: list[int] = []
        insert_biases: list[float] = []
        deletions: list[int] = []
        for dst, (action, bias) in net.items():
            if action == "insert":
                insert_dsts.append(dst)
                insert_biases.append(bias)
            elif action == "delete":
                deletions.append(dst)
            else:  # "update": delete the old edge, insert the new bias
                if dst in existing:
                    deletions.append(dst)
                insert_dsts.append(dst)
                insert_biases.append(bias)
        return (
            np.asarray(deletions, dtype=np.int64),
            np.asarray(insert_dsts, dtype=np.int64),
            np.asarray(insert_biases, dtype=np.float64),
            cancelled,
        )


class UpdateBatch(Sequence[GraphUpdate]):
    """A batch of edge updates stored as NumPy columns.

    Parameters are parallel arrays; rows are in timestamp order.  The class
    satisfies the ``Sequence[GraphUpdate]`` protocol so it can stand in for
    the ``List[GraphUpdate]`` batches older code produced.
    """

    __slots__ = (
        "src",
        "dst",
        "bias",
        "insert_mask",
        "timestamp",
        "_groups",
        "_groups_have_dup_info",
    )

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        bias: np.ndarray,
        insert_mask: np.ndarray,
        timestamp: np.ndarray | None = None,
    ) -> None:
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.bias = np.ascontiguousarray(bias, dtype=np.float64)
        self.insert_mask = np.ascontiguousarray(insert_mask, dtype=bool)
        if timestamp is None:
            timestamp = np.arange(len(self.src), dtype=np.int64)
        self.timestamp = np.ascontiguousarray(timestamp, dtype=np.int64)
        lengths = {
            len(self.src),
            len(self.dst),
            len(self.bias),
            len(self.insert_mask),
            len(self.timestamp),
        }
        if len(lengths) != 1:
            raise ValueError("update-batch columns must have matching lengths")
        self._groups: list[VertexUpdateSlice] | None = None
        self._groups_have_dup_info = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_updates(cls, updates: Iterable[GraphUpdate]) -> UpdateBatch:
        """Build columns from scalar update records (one pass)."""
        materialized = updates if isinstance(updates, (list, tuple)) else list(updates)
        count = len(materialized)
        src = np.empty(count, dtype=np.int64)
        dst = np.empty(count, dtype=np.int64)
        bias = np.empty(count, dtype=np.float64)
        insert_mask = np.empty(count, dtype=bool)
        timestamp = np.empty(count, dtype=np.int64)
        for row, update in enumerate(materialized):
            src[row] = update.src
            dst[row] = update.dst
            bias[row] = update.bias
            insert_mask[row] = update.kind is UpdateKind.INSERT
            timestamp[row] = update.timestamp
        return cls(src, dst, bias, insert_mask, timestamp)

    @classmethod
    def coerce(cls, updates) -> UpdateBatch:
        """Return ``updates`` as an :class:`UpdateBatch` (no-op when it is one)."""
        if isinstance(updates, cls):
            return updates
        return cls.from_updates(updates)

    # ------------------------------------------------------------------ #
    # Sequence[GraphUpdate] compatibility
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        kind = UpdateKind.INSERT if self.insert_mask[index] else UpdateKind.DELETE
        return GraphUpdate(
            kind,
            int(self.src[index]),
            int(self.dst[index]),
            float(self.bias[index]),
            int(self.timestamp[index]),
        )

    def __iter__(self) -> Iterator[GraphUpdate]:
        srcs = self.src.tolist()
        dsts = self.dst.tolist()
        biases = self.bias.tolist()
        inserts = self.insert_mask.tolist()
        stamps = self.timestamp.tolist()
        for src, dst, bias, is_insert, stamp in zip(srcs, dsts, biases, inserts, stamps):
            kind = UpdateKind.INSERT if is_insert else UpdateKind.DELETE
            yield GraphUpdate(kind, src, dst, bias, stamp)

    # ------------------------------------------------------------------ #
    # columnar introspection
    # ------------------------------------------------------------------ #
    @property
    def num_insertions(self) -> int:
        """Number of insert rows (before any cancellation)."""
        return int(self.insert_mask.sum())

    @property
    def num_deletions(self) -> int:
        """Number of delete rows (before any cancellation)."""
        return len(self) - self.num_insertions

    def max_vertex(self) -> int:
        """Highest vertex id referenced by the batch (-1 when empty)."""
        if len(self) == 0:
            return -1
        return int(max(self.src.max(), self.dst.max()))

    # ------------------------------------------------------------------ #
    # grouping (request reordering, Section 5.2 step 1)
    # ------------------------------------------------------------------ #
    def group_by_source(self, *, detect_duplicates: bool = True) -> list[VertexUpdateSlice]:
        """Per-vertex update slices in timestamp order.

        One stable ``argsort`` on the source column reorders the whole batch
        so each vertex's updates are contiguous (relative order preserved);
        one vectorized pass over the ``(src, dst)`` keys flags the vertices
        whose slice repeats a destination — only those can need insert/delete
        cancellation, so every other vertex takes the allocation-free
        normalization fast path.

        Slices are emitted in *first-appearance* order (the order the scalar
        path's request-reordering dict would produce), so engines that spawn
        per-vertex RNG streams on first contact create them in the identical
        sequence on either ingestion path.

        ``detect_duplicates=False`` skips the repeated-destination scan and
        marks every slice duplicate-free — only valid for consumers that
        replay slices verbatim (no normalization), like the rebuild-on-batch
        baseline engines.
        """
        if self._groups is not None and (
            self._groups_have_dup_info or not detect_duplicates
        ):
            return self._groups
        count = len(self)
        if count == 0:
            self._groups = []
            self._groups_have_dup_info = True
            return self._groups
        order = np.argsort(self.src, kind="stable")
        src_sorted = self.src[order]
        dst_sorted = self.dst[order]
        bias_sorted = self.bias[order]
        insert_sorted = self.insert_mask[order]
        boundaries = np.flatnonzero(src_sorted[1:] != src_sorted[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [count]))
        # Stable sort keeps each group's first row at its original batch
        # position; emitting groups by that position reproduces first-touch
        # order.
        emit = np.argsort(order[starts], kind="stable")
        starts = starts[emit]
        stops = stops[emit]

        # Vectorized duplicate detection: a (src, dst) pair occurring twice
        # means that vertex's slice needs the full normalization replay.
        dup_sources: set = set()
        if detect_duplicates:
            width = int(dst_sorted.max()) + 1 if count else 1
            keys = src_sorted * width + dst_sorted
            sorted_keys = np.sort(keys)
            if bool((sorted_keys[1:] == sorted_keys[:-1]).any()):
                unique_keys, key_counts = np.unique(keys, return_counts=True)
                dup_sources = set((unique_keys[key_counts > 1] // width).tolist())

        groups: list[VertexUpdateSlice] = []
        for start, stop in zip(starts.tolist(), stops.tolist()):
            vertex = int(src_sorted[start])
            groups.append(
                VertexUpdateSlice(
                    vertex=vertex,
                    dsts=dst_sorted[start:stop],
                    biases=bias_sorted[start:stop],
                    insert_mask=insert_sorted[start:stop],
                    has_duplicates=vertex in dup_sources,
                )
            )
        self._groups = groups
        self._groups_have_dup_info = detect_duplicates
        return groups

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UpdateBatch(updates={len(self)}, insertions={self.num_insertions}, "
            f"deletions={self.num_deletions})"
        )
