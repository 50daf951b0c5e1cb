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
  per-vertex grouping and whole-batch net-effect normalization
  (:meth:`UpdateBatch.net_changes`): the one meaning a batch has on every
  engine.  Per arc the last operation wins, insert-then-delete cancels,
  delete-then-insert updates the bias, and surviving deletions apply
  before insertions; each vertex's net changes are emitted in the order
  the per-vertex oracle emits them, so both build the same graph rows.
  :meth:`repro.graph.dynamic_graph.DynamicGraph.apply_batch` applies it.

An :class:`UpdateBatch` still behaves like a sequence of
:class:`GraphUpdate` (``len`` / indexing / iteration), so every legacy
call-site — streaming ingestion, tests, examples — keeps working unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import NamedTuple

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

    A plain ``__slots__`` class (not a dataclass): one instance per
    touched vertex, built by :meth:`UpdateBatch.group_by_source`.
    """

    __slots__ = ("vertex", "dsts", "biases", "insert_mask")

    def __init__(
        self,
        vertex: int,
        dsts: np.ndarray,
        biases: np.ndarray,
        insert_mask: np.ndarray,
    ) -> None:
        self.vertex = vertex
        self.dsts = dsts
        self.biases = biases
        self.insert_mask = insert_mask

    def __len__(self) -> int:
        return len(self.dsts)


def _replay_net_effect(
    srcs: list[int],
    dsts: list[int],
    biases: list[float],
    inserts: list[bool],
    rows: list[int],
    membership: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int, float]], int]:
    """The scalar path's per-arc state machine over rows in timestamp order.

    Returns ``(deletions, insertions, cancelled)``: ``(row, src, dst)``
    arcs to remove, ``(row, src, dst, bias)`` arcs to add, and the number
    of insert/delete pairs that annihilated.  ``rows`` names each input
    row; an arc's ``row`` is the row that last entered it into the net
    effect, so ordering by it is the emission order of
    ``normalize_vertex_updates`` (first-occurrence order of the surviving
    arcs), which both lists already follow.  ``membership(srcs, dsts)``
    says which arcs exist now; it is consulted only for
    delete-then-reinsert arcs, whose old edge is deleted only when it
    exists.
    """
    # (src, dst) -> [row, "insert" | "update" | "delete", bias | None]
    net: dict = {}
    cancelled = 0
    for row, key, bias, is_insert in zip(rows, zip(srcs, dsts), biases, inserts):
        previous = net.get(key)
        if is_insert:
            if previous is None:
                net[key] = [row, "insert", bias]
            else:
                # delete then insert: the edge survives with the new bias.
                previous[1] = "update" if previous[1] == "delete" else "insert"
                previous[2] = bias
        elif previous is None:
            net[key] = [row, "delete", None]
        elif previous[1] == "insert":
            # insert then delete within the batch: both vanish.
            del net[key]
            cancelled += 1
        else:
            previous[1] = "delete"

    updated = [key for key, (_, action, _) in net.items() if action == "update"]
    existing = set()
    if updated:
        sources, targets = zip(*updated)
        present = membership(
            np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)
        )
        existing = {key for key, hit in zip(updated, present.tolist()) if hit}
    deletions: list[tuple[int, int, int]] = []
    insertions: list[tuple[int, int, int, float]] = []
    for key, (row, action, bias) in net.items():
        if action != "insert" and (action == "delete" or key in existing):
            deletions.append((row, *key))
        if action != "delete":
            # "update": delete the old edge, insert the new bias.
            insertions.append((row, *key, bias))
    return deletions, insertions, cancelled


class NetChanges(NamedTuple):
    """A batch's net effect as arc columns (:meth:`UpdateBatch.net_changes`)."""

    #: Every source the batch touches, in first-appearance order.
    touched: np.ndarray
    #: Insert/delete pairs on the same arc that annihilated.
    cancelled: int
    delete_srcs: np.ndarray
    delete_dsts: np.ndarray
    insert_srcs: np.ndarray
    insert_dsts: np.ndarray
    insert_biases: np.ndarray
    #: The highest vertex id any row of the batch names (-1 when empty):
    #: applying the batch grows the vertex set to it.
    highest: int = -1


class _SourceRuns(NamedTuple):
    """A batch's columns stably sorted by source, and each source's run."""

    src: np.ndarray
    dst: np.ndarray
    bias: np.ndarray
    insert_mask: np.ndarray
    #: Run bounds into the sorted columns, in first-appearance order.
    starts: np.ndarray
    stops: np.ndarray


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
    def group_by_source(self) -> list[VertexUpdateSlice]:
        """Per-vertex update slices in timestamp order.

        One stable ``argsort`` on the source column reorders the whole batch
        so each vertex's updates are contiguous (relative order preserved).
        Slices are emitted in *first-appearance* order, the order the scalar
        path's request-reordering dict would produce.

        Kept only because perfbench patches it by name (ROADMAP item 8).
        """
        if self._groups is not None:
            return self._groups
        if len(self) == 0:
            self._groups = []
            return self._groups
        runs = self._source_runs()
        self._groups = [
            VertexUpdateSlice(
                int(runs.src[start]),
                runs.dst[start:stop],
                runs.bias[start:stop],
                runs.insert_mask[start:stop],
            )
            for start, stop in zip(runs.starts.tolist(), runs.stops.tolist())
        ]
        return self._groups

    def net_changes(
        self, membership: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> NetChanges:
        """The batch collapsed to its net arc deletions and insertions.

        Section 5.2's normalization, reproducing the per-edge replay
        ``normalize_vertex_updates`` of the test tree's
        ``scalar_batch_oracle`` vertex by vertex: the same net effect, the
        same cancellation count, and within each source the same emission
        order (first-occurrence order of the surviving arcs), so batched and
        per-edge ingestion build the same graph rows.  Across sources the
        order is unspecified.  A row whose arc no other row names is its own
        net effect; only the rows of repeated arcs replay the state machine.
        ``membership(srcs, dsts)`` says which arcs exist now; it is consulted
        only for delete-then-reinsert arcs.
        """
        if len(self) == 0:
            return NetChanges(
                _EMPTY_INT64,
                0,
                _EMPTY_INT64,
                _EMPTY_INT64,
                _EMPTY_INT64,
                _EMPTY_INT64,
                _EMPTY_FLOAT64,
            )
        runs = self._source_runs()
        # Rows whose (src, dst) arc another row of the batch also names.
        keys = runs.src * (int(runs.dst.max()) + 1) + runs.dst
        by_key = np.argsort(keys, kind="stable")
        same = keys[by_key[1:]] == keys[by_key[:-1]]
        replayed = np.zeros(len(self), dtype=bool)
        replayed[by_key[1:][same]] = True
        replayed[by_key[:-1][same]] = True
        deleted = np.flatnonzero(~replayed & ~runs.insert_mask)
        inserted = np.flatnonzero(~replayed & runs.insert_mask)
        deletions, insertions, cancelled = _replay_net_effect(
            runs.src[replayed].tolist(),
            runs.dst[replayed].tolist(),
            runs.bias[replayed].tolist(),
            runs.insert_mask[replayed].tolist(),
            np.flatnonzero(replayed).tolist(),
            membership,
        )
        # Each surviving arc sits at the sorted row that entered it into
        # the net effect: ordering by that row restores every source's
        # emission order.
        replayed_deletions = np.asarray(deletions, dtype=np.int64).reshape(-1, 3)
        replayed_insertions = np.asarray(
            [(row, src, dst) for row, src, dst, _ in insertions], dtype=np.int64
        ).reshape(-1, 3)
        delete_order = np.argsort(np.concatenate((deleted, replayed_deletions[:, 0])))
        insert_order = np.argsort(np.concatenate((inserted, replayed_insertions[:, 0])))
        insert_biases = np.concatenate(
            (runs.bias[inserted], np.asarray([bias for *_, bias in insertions], dtype=np.float64))
        )
        return NetChanges(
            runs.src[runs.starts],
            cancelled,
            np.concatenate((runs.src[deleted], replayed_deletions[:, 1]))[delete_order],
            np.concatenate((runs.dst[deleted], replayed_deletions[:, 2]))[delete_order],
            np.concatenate((runs.src[inserted], replayed_insertions[:, 1]))[insert_order],
            np.concatenate((runs.dst[inserted], replayed_insertions[:, 2]))[insert_order],
            insert_biases[insert_order],
            self.max_vertex(),
        )

    def _source_runs(self) -> _SourceRuns:
        """The columns stably sorted by source, and each source's run.

        One stable ``argsort`` on the source column makes each vertex's
        updates contiguous (relative order preserved).  Runs are listed in
        first-appearance order: the stable sort keeps each run's first row
        at its original batch position.
        """
        order = np.argsort(self.src, kind="stable")
        src_sorted = self.src[order]
        boundaries = np.flatnonzero(src_sorted[1:] != src_sorted[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(self)]))
        emit = np.argsort(order[starts], kind="stable")
        return _SourceRuns(
            src_sorted,
            self.dst[order],
            self.bias[order],
            self.insert_mask[order],
            starts[emit],
            stops[emit],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UpdateBatch(updates={len(self)}, insertions={self.num_insertions}, "
            f"deletions={self.num_deletions})"
        )
