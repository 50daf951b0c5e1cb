"""Per-vertex sliced storage for the fused frontier tables.

The fused frontier kernels gather from *global* concatenated arrays —
one slice per vertex — so a frontier of N walkers advances in a fixed
number of NumPy operations.  :class:`SlicedTableStore` keeps such a
concatenation as a segment heap with a per-vertex directory, the same
amortized-doubling discipline ``DynamicGraph`` uses for its adjacency
columns:

* Each vertex owns one segment ``[seg_offset[v], seg_offset[v] +
  seg_length[v])`` shared by every column in the store's schema.
* Re-deriving a vertex whose slice did not grow patches the segment in
  place; a grown slice is appended at the tail (capacity-doubled) and
  the old segment becomes waste.
* When waste exceeds the live payload the store compacts in place — one
  vectorized gather that re-packs every live segment — so the amortized
  cost of a flip stays proportional to the vertices the batch touched,
  never to the graph.

:class:`FusedTables` is the one owner of an engine's stores.  An engine
supplies its store schemas and one function, vertex → that vertex's
slices; the owner does the cold build, the dirty-set repair, compaction,
and the cross-process state and patch codec.  Every value inside a slice
is local to the vertex's own segments, so each store patches and
compacts independently of the others.  :meth:`FusedTables.warm` reports
what a repair cost as a :class:`FrontierDelta` — the unit the
epoch-delta publication path ships instead of a rebuilt world.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping

import numpy as np

from repro.errors import ReproError

#: Waste below this many segment entries never triggers compaction (tiny
#: stores churn freely without paying repacks that save nothing).
_COMPACTION_SLACK = 1024

#: Smallest data-column capacity allocated once a store holds anything.
_MIN_CAPACITY = 16

#: One vertex's slices: store name -> column name -> values.
SliceParts = Mapping[str, Mapping[str, np.ndarray]]


@dataclass(frozen=True)
class FrontierDelta:
    """What one frontier-table repair touched.

    This is the publication unit of the epoch-delta serve path: after a
    batch is applied, warming re-derives ``vertices`` slices (the union
    of the dirty-sets of the applied and caught-up batches) instead of
    re-concatenating the world.  Compaction re-packs the stores in place
    and stays part of the delta; only the cold first build (a fresh or
    reset engine) costs O(V) and is marked ``full_rebuild``, so the serve
    stats can account it separately.
    """

    #: Number of vertex slices re-derived by this repair.
    vertices: int
    #: True when the repair was a cold build of every slice.
    full_rebuild: bool
    #: The ids of the repaired slices (``None`` for full rebuilds, whose
    #: "touched set" is the world).  The shard router serializes exactly
    #: these slices into the cross-process flip payload.
    vertex_ids: tuple[int, ...] | None = None


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions of the segments ``[start, start + length)``, back to back."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total, dtype=np.int64)


class SlicedTableStore:
    """Capacity-doubled global arrays with one segment per vertex.

    Parameters
    ----------
    schema:
        Mapping of column name to NumPy dtype.  All columns share the
        per-vertex segment layout, so one ``set_slice`` call replaces a
        vertex's entries across every column at once.
    """

    def __init__(self, schema: Mapping[str, np.dtype]) -> None:
        if not schema:
            raise ReproError("a sliced table store needs at least one column")
        self.schema = {name: np.dtype(dtype) for name, dtype in schema.items()}
        self._columns: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in self.schema.items()
        }
        self.seg_offset = np.zeros(0, dtype=np.int64)
        self.seg_length = np.zeros(0, dtype=np.int64)
        #: Tail high-water mark of the data columns (entries ever placed).
        self.used = 0
        #: Entries currently reachable through the directory.
        self.live = 0

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self.seg_offset)

    @property
    def waste(self) -> int:
        """Dead entries below the high-water mark (orphaned / shrunk slices)."""
        return self.used - self.live

    @property
    def capacity(self) -> int:
        return len(next(iter(self._columns.values())))

    def column(self, name: str) -> np.ndarray:
        """The full backing array of ``name`` (valid below ``used``)."""
        return self._columns[name]

    def reset(self, num_vertices: int) -> None:
        """Drop every segment and size the directory for ``num_vertices``."""
        self.seg_offset = np.zeros(num_vertices, dtype=np.int64)
        self.seg_length = np.zeros(num_vertices, dtype=np.int64)
        self.used = 0
        self.live = 0

    def ensure_vertices(self, num_vertices: int) -> None:
        """Grow the directory so ids below ``num_vertices`` are addressable.

        New vertices start with empty segments (length 0), which the
        frontier kernels already treat as "no out-edges".
        """
        current = len(self.seg_offset)
        if num_vertices <= current:
            return
        grown_offset = np.zeros(num_vertices, dtype=np.int64)
        grown_length = np.zeros(num_vertices, dtype=np.int64)
        grown_offset[:current] = self.seg_offset
        grown_length[:current] = self.seg_length
        self.seg_offset = grown_offset
        self.seg_length = grown_length

    # ------------------------------------------------------------------ #
    # slice mutation
    # ------------------------------------------------------------------ #
    def set_slice(self, vertex: int, parts: Mapping[str, np.ndarray]) -> int:
        """Replace ``vertex``'s segment across every column; returns its offset.

        Slices that did not grow are patched in place (the shrink gap
        becomes waste); grown slices are appended at the capacity-doubled
        tail and the old segment is orphaned.  Either way the directory
        points at consistent data when this returns.
        """
        if set(parts) != set(self.schema):
            raise ReproError(
                "slice parts must cover exactly the store schema: expected "
                f"{sorted(self.schema)}, got {sorted(parts)}"
            )
        length = len(next(iter(parts.values())))
        for name, values in parts.items():
            if len(values) != length:
                raise ReproError(
                    f"slice column {name!r} has {len(values)} entries, "
                    f"expected {length}"
                )
        if length == 0:
            self.clear_slice(vertex)
            return 0
        old_length = int(self.seg_length[vertex])
        if 0 < length <= old_length:
            offset = int(self.seg_offset[vertex])
        else:
            # Orphan the old segment (if any) and append at the tail.
            offset = self.used
            self._ensure_capacity(offset + length)
            self.used = offset + length
        for name, values in parts.items():
            self._columns[name][offset : offset + length] = values
        self.seg_offset[vertex] = offset
        self.seg_length[vertex] = length
        self.live += length - old_length
        return offset

    def clear_slice(self, vertex: int) -> None:
        """Drop ``vertex``'s segment (its entries become waste)."""
        self.live -= int(self.seg_length[vertex])
        self.seg_offset[vertex] = 0
        self.seg_length[vertex] = 0

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self.capacity
        if needed <= capacity:
            return
        grown = max(2 * capacity, needed, _MIN_CAPACITY)
        for name, column in self._columns.items():
            replacement = np.empty(grown, dtype=column.dtype)
            replacement[: self.used] = column[: self.used]
            self._columns[name] = replacement

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def needs_compaction(self) -> bool:
        """Whether dead entries outweigh the live payload.

        The threshold keeps total work amortized: a compaction pass costs
        O(live), and reaching the threshold again requires at least
        O(live) further slice churn.
        """
        return self.waste > max(self.live, _COMPACTION_SLACK)

    def compact(self) -> None:
        """Re-pack every live segment contiguously (one vectorized gather)."""
        live_vertices = np.nonzero(self.seg_length > 0)[0]
        # Stable layout: keep the segments in their current storage order.
        live_vertices = live_vertices[np.argsort(self.seg_offset[live_vertices], kind="stable")]
        lengths = self.seg_length[live_vertices]
        # Fancy indexing gathers into a fresh array first, so overlapping
        # moves are safe.
        gather = _segment_positions(self.seg_offset[live_vertices], lengths)
        total = len(gather)
        for column in self._columns.values():
            column[:total] = column[gather]
        self.seg_offset[live_vertices] = np.cumsum(lengths) - lengths
        self.used = total
        self.live = total

    # ------------------------------------------------------------------ #
    # cross-process state (full snapshots and O(touched) slice patches)
    # ------------------------------------------------------------------ #
    def export_state(self, prefix: str) -> dict[str, np.ndarray]:
        """The full state as plain arrays (directory + live columns).

        Only the prefix below the high-water mark ships; segment offsets
        reference positions within that prefix, so they stay valid
        verbatim on the adopting side.
        """
        state = {
            prefix + "seg_offset": self.seg_offset.copy(),
            prefix + "seg_length": self.seg_length.copy(),
            prefix + "counters": np.array([self.used, self.live], dtype=np.int64),
        }
        for name, column in self._columns.items():
            state[prefix + name] = column[: self.used].copy()
        return state

    def adopt_state(self, state: Mapping[str, np.ndarray], prefix: str) -> None:
        """Replace the contents with an :meth:`export_state` snapshot."""
        used, live = (int(value) for value in state[prefix + "counters"])
        self.seg_offset = np.asarray(state[prefix + "seg_offset"], dtype=np.int64).copy()
        self.seg_length = np.asarray(state[prefix + "seg_length"], dtype=np.int64).copy()
        self.used = used
        self.live = live
        for name, dtype in self.schema.items():
            column = np.empty(used, dtype=dtype)
            column[:] = state[prefix + name][:used]
            self._columns[name] = column

    def export_slices(self, vertices: np.ndarray, prefix: str) -> dict[str, np.ndarray]:
        """``vertices``' segments: per-vertex ``lengths`` + columns back to back.

        A length of zero means "this vertex's slice was cleared" on the
        applying side.
        """
        lengths = self.seg_length[vertices]
        gather = _segment_positions(self.seg_offset[vertices], lengths)
        payload = {prefix + "lengths": lengths}
        for name, column in self._columns.items():
            payload[prefix + name] = column[gather]
        return payload

    def apply_slices(
        self, vertices: np.ndarray, payload: Mapping[str, np.ndarray], prefix: str
    ) -> None:
        """Write an :meth:`export_slices` patch over ``vertices``' segments."""
        columns = {name: payload[prefix + name] for name in self.schema}
        cursor = 0
        for vertex, length in zip(vertices.tolist(), payload[prefix + "lengths"].tolist()):
            self.set_slice(
                vertex,
                {name: values[cursor : cursor + length] for name, values in columns.items()},
            )
            cursor += length


class FusedTables:
    """The one owner of an engine's fused frontier tables.

    Parameters
    ----------
    schemas:
        Store name -> that store's column schema.  Column names must be
        unique across stores: :meth:`views` keys them by name.
    parts:
        Vertex -> its slice of every store, or ``None`` when the vertex
        has no out-edges.  Values must be local to the vertex's segments.
    num_vertices:
        The current vertex count of the engine's graph.

    :meth:`views` is what the kernels read: every column by name, plus
    each store's directory as ``<store>_offset`` / ``<store>_length``.
    """

    def __init__(
        self,
        schemas: Mapping[str, Mapping[str, np.dtype]],
        parts: Callable[[int], SliceParts | None],
        num_vertices: Callable[[], int],
    ) -> None:
        self.stores = {name: SlicedTableStore(schema) for name, schema in schemas.items()}
        self._parts = parts
        self._num_vertices = num_vertices
        self._dirty: set[int] = set()
        self._views: dict[str, np.ndarray] | None = None
        #: Cold builds performed (the only ``full_rebuild`` repairs).
        self.full_builds = 0

    def invalidate(self) -> None:
        """Drop the tables; the next access performs a cold build."""
        self._views = None
        self._dirty.clear()

    def mark_dirty(self, vertices: Iterable[int]) -> None:
        """Record ``vertices`` as needing slice repair on the next access.

        Before the first build there is nothing to repair incrementally:
        the next access performs the cold build anyway.
        """
        if self._views is not None:
            self._dirty.update(int(vertex) for vertex in vertices)

    def views(self) -> dict[str, np.ndarray]:
        """The kernels' arrays, repaired first when anything is dirty."""
        if self._views is None or self._dirty:
            self.warm()
        return self._views

    def warm(self) -> FrontierDelta:
        """Bring every slice up to date and report what that cost.

        Cold: build every vertex's slices.  Otherwise re-derive only the
        dirty vertices (a vertex without edges clears its slices), then
        compact the stores whose waste outweighs their live payload.
        """
        num_vertices = self._num_vertices()
        if self._views is None:
            self.full_builds += 1
            for store in self.stores.values():
                store.reset(num_vertices)
            for vertex in range(num_vertices):
                parts = self._parts(vertex)
                if parts is not None:
                    self._write(vertex, parts)
            self._refresh_views()
            return FrontierDelta(vertices=num_vertices, full_rebuild=True)
        dirty = tuple(sorted(self._dirty))
        self._dirty.clear()
        for store in self.stores.values():
            store.ensure_vertices(num_vertices)
        for vertex in dirty:
            self._write(vertex, self._parts(vertex))
        self.compact()
        self._refresh_views()
        return FrontierDelta(vertices=len(dirty), full_rebuild=False, vertex_ids=dirty)

    def compact(self) -> None:
        """Compact, in place, each store whose waste outweighs its payload."""
        for store in self.stores.values():
            if store.needs_compaction():
                store.compact()

    def _write(self, vertex: int, parts: SliceParts | None) -> None:
        for name, store in self.stores.items():
            if parts is None:
                store.clear_slice(vertex)
            else:
                store.set_slice(vertex, parts[name])

    def _refresh_views(self) -> None:
        # Re-derived after every repair: capacity growth replaces the
        # backing arrays.
        views: dict[str, np.ndarray] = {}
        for name, store in self.stores.items():
            views[name + "_offset"] = store.seg_offset
            views[name + "_length"] = store.seg_length
            for column in store.schema:
                views[column] = store.column(column)
        self._views = views

    # ------------------------------------------------------------------ #
    # cross-process state (the shard-router transport)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, np.ndarray]:
        """Every store's full state as plain arrays (the shard boot payload)."""
        self.views()
        state: dict[str, np.ndarray] = {}
        for name, store in self.stores.items():
            state.update(store.export_state(name + "_"))
        return state

    def adopt_state(self, state: Mapping[str, np.ndarray]) -> None:
        """Replace the tables with an :meth:`export_state` snapshot."""
        for name, store in self.stores.items():
            store.adopt_state(state, name + "_")
        self._dirty.clear()
        self._refresh_views()

    def export_patch(self, vertices: Iterable[int]) -> dict[str, np.ndarray]:
        """The touched vertices' slices of every store (O(touched) bytes)."""
        self.views()
        ids = np.asarray(sorted(int(v) for v in vertices), dtype=np.int64)
        payload = {
            "vertices": ids,
            "num_vertices": np.array([self._num_vertices()], dtype=np.int64),
        }
        for name, store in self.stores.items():
            payload.update(store.export_slices(ids, name + "_"))
        return payload

    def apply_patch(self, payload: Mapping[str, np.ndarray]) -> None:
        """Apply an :meth:`export_patch`; untouched slices stay untouched."""
        ids = payload["vertices"]
        num_vertices = int(payload["num_vertices"][0])
        for name, store in self.stores.items():
            store.ensure_vertices(num_vertices)
            store.apply_slices(ids, payload, name + "_")
        self.compact()
        self._dirty.clear()
        self._refresh_views()


# --------------------------------------------------------------------- #
# cross-process serialization (the shard-router flip payload)
# --------------------------------------------------------------------- #
def pack_arrays(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize named arrays into one self-describing byte blob.

    The NPZ container (``np.savez`` with pickling disabled) carries
    dtypes and shapes, so the receiving process reconstructs the arrays
    without any schema side-channel — this is what the router writes
    into shared memory instead of re-pickling engines.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **{name: np.ascontiguousarray(a) for name, a in arrays.items()})
    return buffer.getvalue()


def unpack_arrays(blob) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays` (accepts bytes or a buffer view)."""
    with np.load(io.BytesIO(bytes(blob)), allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


__all__ = [
    "FrontierDelta",
    "FusedTables",
    "SlicedTableStore",
    "pack_arrays",
    "unpack_arrays",
]
