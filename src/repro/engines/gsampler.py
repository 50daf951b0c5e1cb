"""gSampler-style baseline: ITS (prefix-sum) sampling over matrix-like state.

gSampler (SOSP'23) exposes matrix-centric APIs whose biased sampling boils
down to per-vertex CDF arrays searched with binary search: O(log d) sampling,
O(d) (re)construction, plus extra working memory for the matrix
materialisations (the reason it is the most memory-hungry system in Table 3).
Like KnightKing it has no dynamic-graph path, so batches trigger a
reconstruction of the sampling state.
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
from repro.sampling.its import InverseTransformSampler
from repro.utils.rng import RandomSource, spawn_rng

#: Extra working-state factor modelling gSampler's matrix materialisations
#: (intermediate frontier/probability matrices kept alongside the CSR state).
_MATRIX_OVERHEAD_FACTOR = 2.0


class GSamplerEngine(RandomWalkEngine):
    """Prefix-sum (ITS) engine with rebuild-on-update semantics."""

    name = "gsampler"
    supports_batch = True

    def __init__(self, *, rng: RandomSource = None, full_rebuild_on_batch: bool = True) -> None:
        super().__init__(rng=rng)
        self.full_rebuild_on_batch = full_rebuild_on_batch
        self._samplers: dict[int, InverseTransformSampler] = {}
        # Global CDF concatenation for the fused frontier kernel, kept as
        # per-vertex sliced segments repaired through a dirty-set.  The
        # stored cumulative sums are *local* (per segment, no running
        # global prefix), so patching one vertex never shifts another's.
        self._frontier_cache: dict[str, np.ndarray] | None = None
        self._frontier_dirty: set[int] = set()
        self._frontier_store = SlicedTableStore(
            {"ids": np.int64, "cumulative": np.float64}
        )
        #: Cold/compaction full concatenations performed (delta accounting).
        self.frontier_full_builds = 0

    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        self._rebuild_samplers()
        self._frontier_cache = None
        self._frontier_dirty.clear()

    def _rebuild_samplers(self) -> None:
        """Recreate every per-vertex CDF from the adjacency.

        CDF *content* is a deterministic function of the adjacency (the
        per-sampler rng only drives scalar draws), so a whole-graph reload
        leaves untouched vertices' frontier slices valid — the batch paths
        call this and mark only their touched vertices dirty.
        """
        graph = self._require_graph()
        self._samplers = {}
        for vertex in self._build_vertex_ids():
            if graph.degree(vertex) == 0:
                continue
            self._samplers[vertex] = self._build_vertex_sampler(vertex)

    def _build_vertex_sampler(self, vertex: int) -> InverseTransformSampler:
        graph = self._require_graph()
        sampler = InverseTransformSampler(rng=spawn_rng(self._rng, vertex))
        # Bulk-load straight from the zero-copy adjacency views.
        sampler.insert_many(graph.neighbor_array(vertex), graph.bias_array(vertex))
        return sampler

    def _rebuild_vertex(self, vertex: int) -> None:
        graph = self._require_graph()
        mark_frontier_dirty(self, (vertex,))
        start = time.perf_counter()
        if graph.degree(vertex) == 0:
            self._samplers.pop(vertex, None)
        else:
            self._samplers[vertex] = self._build_vertex_sampler(vertex)
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    def _on_insert(self, src: int, dst: int, bias: float) -> None:
        sampler = self._samplers.get(src)
        if sampler is None:
            self._rebuild_vertex(src)
            return
        # ITS supports O(1) append-only insertion (extend the prefix sums).
        mark_frontier_dirty(self, (src,))
        sampler.insert(dst, bias)

    def _on_delete(self, src: int, dst: int) -> None:
        # Interior deletion invalidates the CDF: rebuild the vertex, O(d).
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
                    self._samplers.pop(vertex, None)
                else:
                    self._samplers[vertex] = self._build_vertex_sampler(vertex)
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
                    self._samplers.pop(vertex, None)
                else:
                    self._samplers[vertex] = self._build_vertex_sampler(vertex)
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)
        self.updates_applied += len(updates)

    # ------------------------------------------------------------------ #
    def _sample(self, vertex: int) -> int | None:
        sampler = self._samplers.get(vertex)
        if sampler is None or len(sampler) == 0:
            return None
        return sampler.sample()

    def _sample_batch(
        self, vertex: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        sampler = self._samplers.get(vertex)
        if sampler is None or len(sampler) == 0:
            return np.full(count, -1, dtype=np.int64)
        return sampler.sample_batch(count, rng)

    def _vertex_slice_parts(
        self, sampler: InverseTransformSampler
    ) -> dict[str, np.ndarray]:
        ids, cumulative = sampler.numpy_tables()
        return {"ids": ids, "cumulative": cumulative}

    def _frontier_tables(self) -> dict[str, np.ndarray]:
        """Per-vertex *local* CDF slices concatenated into global arrays.

        Each segment keeps its own prefix sums (no running global shift),
        so repairing one vertex's slice never perturbs another segment's
        values — the property that lets an update batch patch only its
        touched vertices.  The kernel resolves each walker with a bounded
        binary search inside its own segment, bitwise-identical to the
        scalar ``sample_batch`` search.  Built cold once; afterwards the
        dirty-set repairs exactly the touched slices (compacting the store
        when accumulated waste outweighs the live payload), so a flip
        costs O(touched), not O(V).
        """
        if self._frontier_cache is not None and not self._frontier_dirty:
            return self._frontier_cache
        graph = self._require_graph()
        store = self._frontier_store
        if self._frontier_cache is None:
            self.frontier_full_builds += 1
            self._frontier_dirty.clear()
            store.reset(graph.num_vertices)
            for vertex, sampler in self._samplers.items():
                if len(sampler) == 0:
                    continue
                store.set_slice(vertex, self._vertex_slice_parts(sampler))
        else:
            store.ensure_vertices(graph.num_vertices)
            for vertex in sorted(self._frontier_dirty):
                sampler = self._samplers.get(vertex)
                if sampler is None or len(sampler) == 0:
                    store.clear_slice(vertex)
                else:
                    store.set_slice(vertex, self._vertex_slice_parts(sampler))
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
            "cumulative": store.column("cumulative"),
            "ids": store.column("ids"),
        }

    def warm_frontier_tables(self) -> FrontierDelta:
        """Repair the fused tables now; reports the slices it re-derived."""
        return warm_frontier_delta(self)

    # ------------------------------------------------------------------ #
    # cross-process frontier state (the shard-router transport)
    # ------------------------------------------------------------------ #
    def export_frontier_state(self) -> dict[str, np.ndarray]:
        """The CDF store's full state as plain arrays (shard boot payload)."""
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
        """The touched vertices' CDF slices (local prefix sums, patch-safe)."""
        self._frontier_tables()
        payload = export_store_slices(self._frontier_store, vertices)
        payload["num_vertices"] = np.array(
            [self._require_graph().num_vertices], dtype=np.int64
        )
        return payload

    def apply_frontier_patch(self, payload: dict[str, np.ndarray]) -> None:
        """Apply a writer's patch; untouched slices stay untouched."""
        for vertex in payload["vertices"]:
            self._samplers.pop(int(vertex), None)
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
        live, query, lengths = live_frontier(tables["seg_length"], vertices)
        if len(query) == 0:
            return np.full(len(vertices), -1, dtype=np.int64)
        cumulative = tables["cumulative"]
        low = tables["seg_offset"][query]
        last = low + lengths - 1
        # Segment totals live at each segment's last cumulative entry.
        draws = rng.random(len(query)) * cumulative[last]
        # Bounded per-segment binary search: the first position in
        # [low, last] whose cumulative exceeds the draw, clamping to the
        # segment end against float boundary drift — the vectorized form
        # of the scalar path's right-bisect over the local prefix sums.
        lo = low.copy()
        hi = last.copy()
        active = lo < hi
        while active.any():
            mid = (lo + hi) >> 1
            go_right = active & (cumulative[mid] <= draws)
            lo = np.where(go_right, mid + 1, lo)
            hi = np.where(active & ~go_right, mid, hi)
            active = lo < hi
        return scatter_live(tables["ids"][lo], live, len(vertices))

    # ------------------------------------------------------------------ #
    def memory_report(self) -> MemoryReport:
        report = MemoryReport()
        graph = self._require_graph()
        report.add("graph", graph.num_arcs * (4 + 8) + graph.num_vertices * 8)
        cdf_bytes = sum(sampler.memory_bytes() for sampler in self._samplers.values())
        report.add("cdf_arrays", cdf_bytes)
        report.add("matrix_working_state", int(cdf_bytes * _MATRIX_OVERHEAD_FACTOR))
        return report
