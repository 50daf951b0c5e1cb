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
from repro.engines import compiled
from repro.engines.base import (
    PHASE_REBUILD,
    FusedFrontierEngine,
    live_frontier,
    scatter_live,
)
from repro.engines.sliced_tables import SliceParts
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate
from repro.sampling.its import InverseTransformSampler
from repro.utils.rng import spawn_rng

#: Extra working-state factor modelling gSampler's matrix materialisations
#: (intermediate frontier/probability matrices kept alongside the CSR state).
_MATRIX_OVERHEAD_FACTOR = 2.0


class GSamplerEngine(FusedFrontierEngine):
    """Prefix-sum (ITS) engine with rebuild-on-update semantics.

    The fused frontier kernel reads one store of per-vertex CDF slices.
    Each segment keeps its own *local* prefix sums (no running global
    shift), so repairing one vertex's slice never perturbs another's.
    """

    name = "gsampler"
    supports_batch = True
    frontier_schemas = {"cdf": {"ids": np.int64, "cumulative": np.float64}}
    kernel_kind = compiled.KIND_GSAMPLER
    kernel_fields = ("cdf_offset", "cdf_length", "cumulative", "ids")

    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        self._rebuild_samplers()
        self.frontier_tables.invalidate()

    def _rebuild_samplers(self) -> None:
        """Recreate every per-vertex CDF from the adjacency.

        CDF *content* is a deterministic function of the adjacency (the
        per-sampler rng only drives scalar draws), so a whole-graph reload
        leaves untouched vertices' frontier slices valid — the batch paths
        call this and mark only their touched vertices dirty.
        """
        graph = self._require_graph()
        self._samplers = {}
        for vertex in range(graph.num_vertices):
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
        self.frontier_tables.mark_dirty((vertex,))
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
        self.frontier_tables.mark_dirty((src,))
        sampler.insert(dst, bias)

    def _on_delete(self, src: int, dst: int) -> None:
        # Interior deletion invalidates the CDF: rebuild the vertex, O(d).
        self._rebuild_vertex(src)

    def apply_batch(self, updates: Sequence[GraphUpdate]) -> None:
        """Apply the edits columnar (bulk per-vertex kind-runs), then rebuild."""
        batch = UpdateBatch.coerce(updates)
        self.frontier_tables.mark_dirty(self._apply_batch_to_graph(batch))
        start = time.perf_counter()
        self._rebuild_samplers()
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)
        self.updates_applied += len(batch)

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

    def _frontier_parts(self, vertex: int) -> SliceParts | None:
        sampler = self._samplers.get(vertex)
        if sampler is None or len(sampler) == 0:
            return None
        ids, cumulative = sampler.numpy_tables()
        return {"cdf": {"ids": ids, "cumulative": cumulative}}

    def _sample_frontier_numpy(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        tables = self.frontier_tables.views()
        # Sinks and out-of-range vertices draw -1, matching the scalar path.
        live, query, lengths = live_frontier(tables["cdf_length"], vertices)
        if len(query) == 0:
            return np.full(len(vertices), -1, dtype=np.int64)
        cumulative = tables["cumulative"]
        low = tables["cdf_offset"][query]
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
