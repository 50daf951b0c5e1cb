"""KnightKing-style baseline: per-vertex alias tables, rebuilt on change.

KnightKing (SOSP'19) is the CPU state of the art the paper compares against:
static biased sampling uses alias tables (O(1) sampling, O(d) construction)
and the dynamic component of second-order walks uses rejection on top.  It
has no dynamic-graph support, so the paper's evaluation "reload[s] or
reconstruct[s] the corresponding structure after each round of updates".

This engine reproduces those costs:

* streaming update → O(d) alias rebuild of the affected vertex;
* batched update → apply the edits to the graph, then rebuild the alias
  table of **every** vertex (the reload-from-scratch the paper performs for
  the baselines).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.memory_model import MemoryReport
from repro.engines.base import (
    PHASE_REBUILD,
    RandomWalkEngine,
    live_frontier,
    scatter_live,
)
from repro.engines.sliced_tables import (
    FrontierDelta,
    SlicedTableStore,
    adopt_store_state,
    apply_store_slices,
    export_store_slices,
    export_store_state,
    mark_frontier_dirty,
    warm_frontier_delta,
)
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.sampling.alias import AliasTable
from repro.utils.rng import RandomSource, spawn_rng


class KnightKingEngine(RandomWalkEngine):
    """Alias-table engine with rebuild-on-update semantics."""

    name = "knightking"
    supports_batch = True

    def __init__(self, *, rng: RandomSource = None, full_rebuild_on_batch: bool = True) -> None:
        super().__init__(rng=rng)
        #: When True (default) a batch triggers a whole-graph rebuild, the
        #: behaviour the paper uses for the static baselines.  Set to False to
        #: measure the hypothetical per-vertex-rebuild variant.
        self.full_rebuild_on_batch = full_rebuild_on_batch
        self._tables: dict[int, AliasTable] = {}
        # Concatenated per-vertex alias arrays for the fused frontier kernel,
        # kept as sliced segments so an update batch only re-derives its
        # touched vertices (the dirty-set) instead of the whole graph.
        self._frontier_cache: dict[str, np.ndarray] | None = None
        self._frontier_dirty: set[int] = set()
        self._frontier_store = SlicedTableStore(
            {"ids": np.int64, "prob": np.float64, "alias": np.int64}
        )
        #: Cold/compaction full concatenations performed (delta accounting).
        self.frontier_full_builds = 0

    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        self._rebuild_samplers()
        self._frontier_cache = None
        self._frontier_dirty.clear()

    def _rebuild_samplers(self) -> None:
        """Recreate every per-vertex alias table from the adjacency.

        Table *content* is a deterministic function of the adjacency (the
        per-table rng only drives scalar draws), so a whole-graph sampler
        reload leaves untouched vertices' frontier slices valid — the
        batch paths call this and mark only their touched vertices dirty.
        """
        graph = self._require_graph()
        self._tables = {}
        for vertex in self._build_vertex_ids():
            if graph.degree(vertex) == 0:
                continue
            self._tables[vertex] = self._build_vertex_table(vertex)

    def _build_vertex_table(self, vertex: int) -> AliasTable:
        graph = self._require_graph()
        table = AliasTable(rng=spawn_rng(self._rng, vertex))
        # Bulk-load straight from the zero-copy adjacency views.
        table.insert_many(graph.neighbor_array(vertex), graph.bias_array(vertex))
        table.rebuild()
        return table

    def _rebuild_vertex(self, vertex: int) -> None:
        graph = self._require_graph()
        mark_frontier_dirty(self, (vertex,))
        start = time.perf_counter()
        if graph.degree(vertex) == 0:
            self._tables.pop(vertex, None)
        else:
            self._tables[vertex] = self._build_vertex_table(vertex)
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    def _on_insert(self, src: int, dst: int, bias: float) -> None:
        # The alias method has no incremental path: rebuild the vertex, O(d).
        self._rebuild_vertex(src)

    def _on_delete(self, src: int, dst: int) -> None:
        self._rebuild_vertex(src)

    def apply_batch(self, updates: Sequence[GraphUpdate]) -> None:
        """Apply the edits columnar (bulk per-vertex kind-runs), then rebuild."""
        graph = self._require_graph()
        batch = UpdateBatch.coerce(updates)
        touched = self._apply_batch_to_graph(batch)
        mark_frontier_dirty(self, touched)
        start = time.perf_counter()
        if self.full_rebuild_on_batch:
            self._rebuild_samplers()
        else:
            # Sorted order keeps the per-vertex RNG-stream assignment (one
            # spawn_rng per rebuild) identical across ingestion paths.
            for vertex in sorted(touched):
                if graph.degree(vertex) == 0:
                    self._tables.pop(vertex, None)
                else:
                    self._tables[vertex] = self._build_vertex_table(vertex)
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)
        self.updates_applied += len(batch)

    def apply_batch_scalar(self, updates: Sequence[GraphUpdate]) -> None:
        """The legacy per-edge batch path (reference for equivalence tests)."""
        graph = self._require_graph()
        touched = set()
        for update in updates:
            graph.ensure_vertex(update.src)
            graph.ensure_vertex(update.dst)
            if update.kind is UpdateKind.INSERT:
                graph.add_edge(update.src, update.dst, update.bias)
            else:
                graph.remove_edge(update.src, update.dst)
            touched.add(update.src)
        mark_frontier_dirty(self, touched)
        start = time.perf_counter()
        if self.full_rebuild_on_batch:
            self._rebuild_samplers()
        else:
            for vertex in sorted(touched):
                if graph.degree(vertex) == 0:
                    self._tables.pop(vertex, None)
                else:
                    self._tables[vertex] = self._build_vertex_table(vertex)
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)
        self.updates_applied += len(updates)

    # ------------------------------------------------------------------ #
    def _sample(self, vertex: int) -> int | None:
        table = self._tables.get(vertex)
        if table is None or len(table) == 0:
            return None
        return table.sample()

    def _sample_batch(
        self, vertex: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        table = self._tables.get(vertex)
        if table is None or len(table) == 0:
            return np.full(count, -1, dtype=np.int64)
        return table.sample_batch(count, rng)

    def _vertex_slice_parts(self, table: AliasTable) -> dict[str, np.ndarray]:
        ids, prob, alias = table.numpy_tables()
        return {"ids": ids, "prob": prob, "alias": alias}

    def _frontier_tables(self) -> dict[str, np.ndarray]:
        """Per-vertex alias slices concatenated into one global table.

        A walker on vertex ``v`` draws a bucket inside the slice
        ``[seg_offset[v], seg_offset[v] + seg_length[v])`` and resolves the
        alias toss against the global prob/alias arrays, so the whole
        frontier advances with a fixed number of NumPy operations.  Built
        cold once; afterwards an update batch marks its touched vertices in
        ``_frontier_dirty`` and this repairs exactly those slices in the
        sliced store (compacting when the accumulated waste outweighs the
        live payload), so a flip costs O(touched), not O(V).
        """
        if self._frontier_cache is not None and not self._frontier_dirty:
            return self._frontier_cache
        graph = self._require_graph()
        store = self._frontier_store
        if self._frontier_cache is None:
            self.frontier_full_builds += 1
            self._frontier_dirty.clear()
            store.reset(graph.num_vertices)
            for vertex, table in self._tables.items():
                if len(table) == 0:
                    continue
                store.set_slice(vertex, self._vertex_slice_parts(table))
        else:
            store.ensure_vertices(graph.num_vertices)
            for vertex in sorted(self._frontier_dirty):
                table = self._tables.get(vertex)
                if table is None or len(table) == 0:
                    store.clear_slice(vertex)
                else:
                    store.set_slice(vertex, self._vertex_slice_parts(table))
            self._frontier_dirty.clear()
            if store.needs_compaction():
                store.compact()
        # Re-derive the view dict every repair: capacity growth and
        # compaction replace the backing arrays.
        self._refresh_frontier_views()
        return self._frontier_cache

    def _refresh_frontier_views(self) -> None:
        store = self._frontier_store
        self._frontier_cache = {
            "seg_offset": store.seg_offset,
            "seg_length": store.seg_length,
            "ids": store.column("ids"),
            "prob": store.column("prob"),
            "alias": store.column("alias"),
        }

    def warm_frontier_tables(self) -> FrontierDelta:
        """Repair the fused tables now; reports the slices it re-derived."""
        return warm_frontier_delta(self)

    # ------------------------------------------------------------------ #
    # cross-process frontier state (the shard-router transport)
    # ------------------------------------------------------------------ #
    def export_frontier_state(self) -> dict[str, np.ndarray]:
        """The alias store's full state as plain arrays (shard boot payload)."""
        self._frontier_tables()
        state = {
            "num_vertices": np.array(
                [self._require_graph().num_vertices], dtype=np.int64
            )
        }
        state.update(export_store_state(self._frontier_store))
        return state

    def adopt_frontier_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace the fused tables with a writer's exported snapshot."""
        adopt_store_state(self._frontier_store, state)
        self._frontier_dirty.clear()
        self._refresh_frontier_views()

    def export_frontier_patch(self, vertices) -> dict[str, np.ndarray]:
        """The touched vertices' alias slices (per-vertex, self-contained)."""
        self._frontier_tables()
        payload = export_store_slices(self._frontier_store, vertices)
        payload["num_vertices"] = np.array(
            [self._require_graph().num_vertices], dtype=np.int64
        )
        return payload

    def apply_frontier_patch(self, payload: dict[str, np.ndarray]) -> None:
        """Apply a writer's patch; untouched slices stay untouched."""
        for vertex in payload["vertices"]:
            self._tables.pop(int(vertex), None)
        apply_store_slices(
            self._frontier_store,
            payload,
            num_vertices=int(payload["num_vertices"][0]),
        )
        self._frontier_dirty.clear()
        self._refresh_frontier_views()

    def _sample_frontier(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        tables = self._frontier_tables()
        # Sinks and out-of-range vertices draw -1, matching the scalar path.
        live, query, degrees = live_frontier(tables["seg_length"], vertices)
        width = len(query)
        if width == 0:
            return np.full(len(vertices), -1, dtype=np.int64)
        offsets = tables["seg_offset"][query]
        uniforms = rng.random(2 * width)
        buckets = offsets + (uniforms[:width] * degrees).astype(np.int64)
        chosen = np.where(
            uniforms[width:] < tables["prob"][buckets],
            buckets,
            offsets + tables["alias"][buckets],
        )
        return scatter_live(tables["ids"][chosen], live, len(vertices))

    # ------------------------------------------------------------------ #
    def memory_report(self) -> MemoryReport:
        report = MemoryReport()
        graph = self._require_graph()
        report.add("graph", graph.num_arcs * (4 + 8) + graph.num_vertices * 8)
        total = 0
        for table in self._tables.values():
            total += table.memory_bytes()
        report.add("alias_tables", total)
        return report
