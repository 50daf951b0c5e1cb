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
from repro.sampling.alias import AliasTable
from repro.utils.rng import spawn_rng


class KnightKingEngine(FusedFrontierEngine):
    """Alias-table engine with rebuild-on-update semantics.

    The fused frontier kernel reads one store of per-vertex alias slices:
    a walker on ``v`` draws a bucket inside ``v``'s segment and resolves
    the alias toss against the segment-local ``alias`` entries.
    """

    name = "knightking"
    frontier_schemas = {
        "table": {"ids": np.int64, "prob": np.float64, "alias": np.int64}
    }
    kernel_kind = compiled.KIND_KNIGHTKING
    kernel_fields = ("table_offset", "table_length", "prob", "alias", "ids")

    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        self._rebuild_samplers()
        self.frontier_tables.invalidate()

    def _rebuild_samplers(self) -> None:
        """Recreate every per-vertex alias table from the adjacency.

        Table *content* is a deterministic function of the adjacency (the
        per-table rng only drives scalar draws), so a whole-graph sampler
        reload leaves untouched vertices' frontier slices valid — the
        batch paths call this and mark only their touched vertices dirty.
        """
        graph = self._require_graph()
        self._samplers = {}
        for vertex in range(graph.num_vertices):
            if graph.degree(vertex) == 0:
                continue
            self._samplers[vertex] = self._build_vertex_table(vertex)

    def _build_vertex_table(self, vertex: int) -> AliasTable:
        graph = self._require_graph()
        table = AliasTable(rng=spawn_rng(self._rng, vertex))
        # Bulk-load straight from the zero-copy adjacency views.
        table.insert_many(graph.neighbor_array(vertex), graph.bias_array(vertex))
        table.rebuild()
        return table

    def _rebuild_vertex(self, vertex: int) -> None:
        graph = self._require_graph()
        self.frontier_tables.mark_dirty((vertex,))
        start = time.perf_counter()
        if graph.degree(vertex) == 0:
            self._samplers.pop(vertex, None)
        else:
            self._samplers[vertex] = self._build_vertex_table(vertex)
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    def _on_insert(self, src: int, dst: int, bias: float) -> None:
        # The alias method has no incremental path: rebuild the vertex, O(d).
        self._rebuild_vertex(src)

    def _on_delete(self, src: int, dst: int) -> None:
        self._rebuild_vertex(src)

    def _reload(self, touched: np.ndarray) -> None:
        self.frontier_tables.mark_dirty(touched)
        self._rebuild_samplers()

    # ------------------------------------------------------------------ #
    def _sample(self, vertex: int) -> int | None:
        table = self._samplers.get(vertex)
        if table is None or len(table) == 0:
            return None
        return table.sample()

    def _sample_batch(
        self, vertex: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        table = self._samplers.get(vertex)
        if table is None or len(table) == 0:
            return np.full(count, -1, dtype=np.int64)
        return table.sample_batch(count, rng)

    def _frontier_parts(self, vertex: int) -> SliceParts | None:
        table = self._samplers.get(vertex)
        if table is None or len(table) == 0:
            return None
        ids, prob, alias = table.numpy_tables()
        return {"table": {"ids": ids, "prob": prob, "alias": alias}}

    def _sample_frontier_numpy(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        tables = self.frontier_tables.views()
        # Sinks and out-of-range vertices draw -1, matching the scalar path.
        live, query, degrees = live_frontier(tables["table_length"], vertices)
        width = len(query)
        if width == 0:
            return np.full(len(vertices), -1, dtype=np.int64)
        offsets = tables["table_offset"][query]
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
        for table in self._samplers.values():
            total += table.memory_bytes()
        report.add("alias_tables", total)
        return report
