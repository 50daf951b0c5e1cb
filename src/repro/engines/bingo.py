"""The Bingo engine: per-vertex radix-factorized samplers on a dynamic graph.

This is the system the paper contributes.  Each vertex with out-edges owns a
:class:`~repro.core.vertex_sampler.BingoVertexSampler`; streaming updates touch
one sampler in O(K); batched updates follow the Section 5.2 workflow — group
requests by vertex, collapse them to net insertions/deletions, apply them with
the sampler's rebuild deferred, then rebuild each touched vertex exactly once.
Kernel launches are accounted on an optional
:class:`~repro.gpu.device.SimulatedDevice` so throughput experiments can report
device-model parallel steps alongside wall-clock time.
"""

from __future__ import annotations

import time
from functools import partial
from collections.abc import Sequence

import numpy as np

from repro.core.adaptive import ConversionTracker, GroupClassifier
from repro.core.memory_model import MemoryReport
from repro.core.radix import choose_amortization_factor, split_scaled_biases
from repro.core.vertex_sampler import (
    DECIMAL_GROUP_KEY,
    BingoVertexSampler,
    rebuild_samplers_batch,
)
from repro.engines import compiled
from repro.engines.base import (
    PHASE_DELETE,
    PHASE_INSERT,
    PHASE_REBUILD,
    FusedFrontierEngine,
    live_frontier,
    scatter_live,
)
from repro.engines.sliced_tables import SliceParts
from repro.errors import UpdateError
from repro.gpu.device import SimulatedDevice
from repro.gpu.kernels import (
    BatchStatistics,
    group_updates_by_vertex,
    normalize_vertex_updates,
)
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate
from repro.utils.rng import RandomSource, spawn_rng


class BingoEngine(FusedFrontierEngine):
    """GPU-style random walk engine built on radix-based bias factorization.

    Parameters
    ----------
    lam:
        Amortization factor for floating-point biases.  ``None`` (default)
        selects λ automatically from the biases present when :meth:`build`
        runs (Section 4.3's empirical choice); integer-bias graphs resolve to
        λ = 1.
    adaptive_groups:
        Enables the Section 5.1 group-adaption optimisation.  ``False``
        reproduces the BS baseline of Figures 11 and 13.
    alpha_percent / beta_percent:
        The Equation (9) thresholds (paper defaults 40 / 10).
    device:
        Optional simulated device used to account batched-update kernels.
    """

    name = "bingo"
    supports_batch = True
    # Two stores: each vertex's inter-group alias slice, and its flat
    # member table.  ``entry_offset`` is local to the vertex's own flat
    # segment, so the stores patch and compact independently.
    frontier_schemas = {
        "inter": {
            "prob": np.float64,
            "alias": np.int64,
            "entry_offset": np.int64,
            "entry_size": np.int64,
            "entry_decimal": np.bool_,
        },
        "flat": {"members": np.int64},
    }
    kernel_kind = compiled.KIND_BINGO
    kernel_fields = (
        "inter_offset",
        "inter_length",
        "prob",
        "alias",
        "entry_offset",
        "entry_size",
        "entry_decimal",
        "flat_offset",
        "members",
    )

    def __init__(
        self,
        *,
        rng: RandomSource = None,
        lam: float | None = None,
        adaptive_groups: bool = True,
        alpha_percent: float = 40.0,
        beta_percent: float = 10.0,
        device: SimulatedDevice | None = None,
    ) -> None:
        super().__init__(rng=rng)
        self._requested_lam = lam
        self.lam = lam if lam is not None else 1.0
        self.classifier = GroupClassifier(
            alpha_percent=alpha_percent,
            beta_percent=beta_percent,
            adaptive=adaptive_groups,
        )
        self.conversion_tracker = ConversionTracker()
        self.device = device if device is not None else SimulatedDevice()
        self.batch_stats = BatchStatistics()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        graph = self._require_graph()
        if self._requested_lam is None:
            # Shard views expose the whole bias column flat; use it instead
            # of iterating edges so every worker derives λ cheaply (and
            # identically — same multiset of biases as the full graph).
            column = getattr(graph, "biases", None)
            if isinstance(column, np.ndarray):
                biases = column.tolist()
            else:
                biases = [edge.bias for edge in graph.edges()]
            self.lam = choose_amortization_factor(biases) if biases else 1.0
        self._samplers = {}
        self.frontier_tables.invalidate()
        for vertex in self._build_vertex_ids():
            if graph.degree(vertex) == 0:
                continue
            sampler = self._new_sampler(vertex)
            sampler.insert_many(
                graph.neighbor_array(vertex), graph.bias_array(vertex)
            )
            self._samplers[vertex] = sampler
        rebuild_samplers_batch(list(self._samplers.values()))

    def _new_sampler(self, vertex: int) -> BingoVertexSampler:
        return BingoVertexSampler(
            rng=spawn_rng(self._rng, vertex),
            lam=self.lam,
            classifier=self.classifier,
            conversion_tracker=self.conversion_tracker,
            auto_rebuild=False,
        )

    def sampler_for(self, vertex: int) -> BingoVertexSampler | None:
        """The per-vertex sampler (None for vertices without out-edges)."""
        return self._samplers.get(vertex)

    def _decimal_sampler(self, vertex: int) -> BingoVertexSampler:
        """The vertex's sampler, rebuilt from the graph when missing.

        Shard replicas adopt their fused tables over the wire and only
        keep samplers for owned vertices (patches evict touched ones), so
        a decimal-group hit on an unowned or patched vertex rebuilds the
        sampler lazily from the local (kept-fresh) adjacency.
        """
        sampler = self._samplers.get(vertex)
        if sampler is None:
            graph = self._require_graph()
            sampler = self._new_sampler(vertex)
            sampler.insert_many(
                graph.neighbor_array(vertex), graph.bias_array(vertex)
            )
            sampler.rebuild()
            self._samplers[vertex] = sampler
        return sampler

    # ------------------------------------------------------------------ #
    # streaming updates: O(K) per event plus one inter-group rebuild
    # ------------------------------------------------------------------ #
    def _on_insert(self, src: int, dst: int, bias: float) -> None:
        self.frontier_tables.mark_dirty((src,))
        sampler = self._samplers.get(src)
        if sampler is None:
            sampler = self._new_sampler(src)
            self._samplers[src] = sampler
        sampler.insert(dst, bias)
        start = time.perf_counter()
        sampler.rebuild()
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)

    def _on_delete(self, src: int, dst: int) -> None:
        self.frontier_tables.mark_dirty((src,))
        sampler = self._samplers.get(src)
        if sampler is None or not sampler.contains(dst):
            raise UpdateError(f"Bingo has no sampling state for edge ({src}, {dst})")
        sampler.delete(dst)
        start = time.perf_counter()
        if len(sampler) == 0:
            del self._samplers[src]
        else:
            sampler.rebuild()
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # batched updates (Section 5.2, columnar pipeline)
    # ------------------------------------------------------------------ #
    def apply_batch(self, updates: Sequence[GraphUpdate]) -> None:
        """Ingest a batch through the columnar pipeline.

        The Section 5.2 workflow on :class:`~repro.graph.update_batch.UpdateBatch`
        columns: one argsort groups the requests by vertex, each vertex's
        slice is collapsed to net insertions/deletions (vectorized
        cancellation), the graph mutates through the bulk columnar mutators,
        samplers absorb whole slices via ``insert_many`` / ``delete_many``,
        and every touched vertex's inter-group table is rebuilt in one
        batched Vose pass.  The post-batch engine state is identical to the
        per-edge reference path (:meth:`apply_batch_scalar`) — including
        seeded sampling draws.

        Phase timings are aggregated once per batch (one timer pair per
        phase) instead of per touched vertex, so the fig13 breakdown no
        longer pays measurement overhead proportional to batch spread.
        """
        graph = self._require_graph()
        batch = UpdateBatch.coerce(updates)
        stats = BatchStatistics()
        groups = batch.group_by_source()
        self.frontier_tables.mark_dirty(group.vertex for group in groups)
        stats.touched_vertices = len(groups)
        highest = batch.max_vertex()
        if highest >= 0:
            graph.ensure_vertices(highest)
        wall_start = time.perf_counter()

        # Request reordering + net-effect normalization (host-side prepass).
        plans = []
        for group in groups:
            vertex = group.vertex
            deletions, insert_dsts, insert_biases, cancelled = group.normalize(
                partial(graph.has_edges, vertex)
            )
            stats.cancelled_pairs += cancelled
            plans.append((vertex, deletions, insert_dsts, insert_biases))

        delete_start = time.perf_counter()
        samplers = self._samplers
        for vertex, deletions, _, _ in plans:
            if len(deletions) == 0:
                continue
            graph.remove_edges_bulk(vertex, deletions)
            sampler = samplers.get(vertex)
            if sampler is not None:
                index_of = sampler._index_of
                sampler.delete_many(
                    [dst for dst in deletions.tolist() if dst in index_of]
                )
            stats.deletions += len(deletions)
        insert_start = time.perf_counter()
        self.breakdown.add(PHASE_DELETE, insert_start - delete_start)

        # One vectorized bias split for every net insertion in the batch;
        # each vertex's sampler then absorbs its pre-split slice without
        # touching NumPy again.
        bias_parts = [plan[3] for plan in plans if len(plan[3])]
        integer_list: list[int] = []
        fraction_list: list[float] = []
        if bias_parts:
            merged = (
                np.concatenate(bias_parts) if len(bias_parts) > 1 else bias_parts[0]
            )
            integer_list, fraction_list = split_scaled_biases(merged, self.lam)

        cursor = 0
        for vertex, _, insert_dsts, insert_biases in plans:
            count = len(insert_dsts)
            if count == 0:
                continue
            graph.add_edges_bulk(vertex, insert_dsts, insert_biases)
            sampler = samplers.get(vertex)
            if sampler is None:
                sampler = self._new_sampler(vertex)
                samplers[vertex] = sampler
            sampler.insert_many(
                insert_dsts,
                insert_biases,
                split_parts=(
                    integer_list[cursor : cursor + count],
                    fraction_list[cursor : cursor + count],
                ),
            )
            cursor += count
            stats.insertions += count
        rebuild_start = time.perf_counter()
        self.breakdown.add(PHASE_INSERT, rebuild_start - insert_start)

        to_rebuild = []
        for vertex, _, _, _ in plans:
            sampler = self._samplers.get(vertex)
            if sampler is None:
                continue
            if len(sampler) == 0:
                self._samplers.pop(vertex, None)
            else:
                to_rebuild.append(sampler)
            stats.rebuilds += 1
        rebuild_samplers_batch(to_rebuild)
        done = time.perf_counter()
        self.breakdown.add(PHASE_REBUILD, done - rebuild_start)

        launch = self.device.record(
            "batched_update", len(groups), wall_seconds=done - wall_start
        )
        stats.kernel_launches += 1
        stats.parallel_steps += launch.parallel_steps
        self.batch_stats.merge(stats)
        self.updates_applied += len(batch)

    def apply_batch_scalar(self, updates: Sequence[GraphUpdate]) -> None:
        """The legacy per-edge batch path (reference for equivalence/benchmarks).

        Same Section 5.2 semantics as :meth:`apply_batch`, executed one edge
        at a time through the scalar graph and sampler mutators with one
        scalar rebuild per touched vertex — the pre-columnar implementation,
        kept as the ground truth the columnar pipeline is measured against.
        """
        graph = self._require_graph()
        stats = BatchStatistics()
        grouped = group_updates_by_vertex(updates)
        self.frontier_tables.mark_dirty(grouped)
        stats.touched_vertices = len(grouped)

        def process_vertex(item) -> None:
            vertex, vertex_updates = item
            graph.ensure_vertex(vertex)
            for update in vertex_updates:
                graph.ensure_vertex(update.dst)
            # Only the destinations mentioned in this batch matter for the
            # delete-then-reinsert case; checking them individually keeps the
            # normalisation O(#updates) instead of O(degree).
            existing = {
                update.dst
                for update in vertex_updates
                if graph.has_edge(vertex, update.dst)
            }
            insertions, deletions, cancelled = normalize_vertex_updates(
                vertex_updates, existing
            )
            stats.cancelled_pairs += cancelled

            sampler = self._samplers.get(vertex)
            delete_start = time.perf_counter()
            for dst in deletions:
                graph.remove_edge(vertex, dst)
                if sampler is not None and sampler.contains(dst):
                    sampler.delete(dst)
                stats.deletions += 1
            self.breakdown.add(PHASE_DELETE, time.perf_counter() - delete_start)

            insert_start = time.perf_counter()
            for dst, bias in insertions:
                graph.add_edge(vertex, dst, bias)
                if sampler is None:
                    sampler = self._new_sampler(vertex)
                    self._samplers[vertex] = sampler
                sampler.insert(dst, bias)
                stats.insertions += 1
            self.breakdown.add(PHASE_INSERT, time.perf_counter() - insert_start)

            rebuild_start = time.perf_counter()
            if sampler is not None:
                if len(sampler) == 0:
                    self._samplers.pop(vertex, None)
                else:
                    sampler.rebuild()
                stats.rebuilds += 1
            self.breakdown.add(PHASE_REBUILD, time.perf_counter() - rebuild_start)

        self.device.launch("batched_update", list(grouped.items()), process_vertex)
        stats.kernel_launches += 1
        stats.parallel_steps += self.device.launches[-1].parallel_steps
        self.batch_stats.merge(stats)
        self.updates_applied += len(updates)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def _sample(self, vertex: int) -> int | None:
        self._require_graph()
        sampler = self._samplers.get(vertex)
        if sampler is None or len(sampler) == 0:
            return None
        return sampler.sample()

    def _sample_batch(
        self, vertex: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        self._require_graph()
        sampler = self._samplers.get(vertex)
        if sampler is None or len(sampler) == 0:
            return np.full(count, -1, dtype=np.int64)
        return sampler.sample_many(count, rng)

    # ------------------------------------------------------------------ #
    # fused frontier kernel
    # ------------------------------------------------------------------ #
    def _frontier_parts(self, vertex: int) -> SliceParts | None:
        """One vertex's slices of both stores, every offset segment-local.

        The inter slice is the vertex's inter-group alias table; each of
        its entries points at a group's members inside the vertex's own
        flat slice (``entry_offset`` / ``entry_size``).  Entries landing
        in a decimal group are flagged and re-resolved by the per-vertex
        rejection kernel (they are rare by the choice of λ).
        """
        sampler = self._samplers.get(vertex)
        if sampler is None or len(sampler) == 0:
            return None
        if sampler._inter_dirty:
            sampler.rebuild()
        ids, lut, flat, offsets, sizes = sampler._batch_cache()
        group_ids, prob, alias = sampler._inter_group.numpy_tables()
        slots = lut[group_ids + 1]
        return {
            "inter": {
                "prob": prob,
                "alias": alias,
                "entry_offset": offsets[slots],
                "entry_size": sizes[slots],
                "entry_decimal": group_ids == DECIMAL_GROUP_KEY,
            },
            # Translate neighbour indices to neighbour ids once, here, so
            # the query path gathers final vertex ids directly.
            "flat": {"members": ids[flat]},
        }

    def _sample_frontier_numpy(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        tables = self.frontier_tables.views()
        # Sinks and out-of-range vertices draw -1, matching the scalar path.
        live, query, sizes = live_frontier(tables["inter_length"], vertices)
        width = len(query)
        if width == 0:
            return np.full(len(vertices), -1, dtype=np.int64)
        offsets = tables["inter_offset"][query]

        uniforms = rng.random(3 * width)
        first = uniforms[:width]
        second = uniforms[width : 2 * width]
        third = uniforms[2 * width :]

        # Stage 1 — vectorized group selection (per-vertex alias slices).
        buckets = offsets + (first * sizes).astype(np.int64)
        chosen = np.where(
            second < tables["prob"][buckets],
            buckets,
            offsets + tables["alias"][buckets],
        )
        # Stage 2 — vectorized intra-group uniform pick via the member table.
        entry_sizes = tables["entry_size"][chosen]
        positions = (
            tables["flat_offset"][query]
            + tables["entry_offset"][chosen]
            + np.minimum((third * entry_sizes).astype(np.int64), entry_sizes - 1)
        )
        drawn = tables["members"][positions]

        decimal_mask = tables["entry_decimal"][chosen]
        if decimal_mask.any():
            self._resolve_decimal_picks(query, drawn, np.nonzero(decimal_mask)[0], rng)
        return scatter_live(drawn, live, len(vertices))

    def _resolve_decimal_picks(
        self,
        vertices: np.ndarray,
        draws: np.ndarray,
        picks: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Re-draw the decimal-group picks with each vertex's rejection kernel.

        One batched call per distinct vertex, in ascending vertex order.
        """
        picked = vertices[picks]
        for vertex in np.unique(picked):
            members = picks[picked == vertex]
            sampler = self._decimal_sampler(int(vertex))
            ids = sampler._batch_cache()[0]
            indices = sampler._decimal.sample_batch(
                len(members), rng, counter=sampler.counter
            )
            draws[members] = ids[indices]

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def memory_report(self) -> MemoryReport:
        report = MemoryReport()
        graph = self._require_graph()
        # The adjacency itself (shared by every engine).
        report.add("graph", graph.num_arcs * (4 + 8) + graph.num_vertices * 8)
        for sampler in self._samplers.values():
            report.merge(sampler.memory_report())
        return report

    def group_kind_ratios(self) -> dict[str, float]:
        """Share of non-empty groups per representation (Figure 11e)."""
        counts: dict[str, int] = {}
        total = 0
        for sampler in self._samplers.values():
            for kind in sampler.group_kinds().values():
                counts[kind.value] = counts.get(kind.value, 0) + 1
                total += 1
        if total == 0:
            return {}
        return {kind: count / total for kind, count in counts.items()}

    def check_consistency(self) -> None:
        """Verify every sampler and the fused tables match the graph (test hook)."""
        graph = self._require_graph()
        for vertex in range(graph.num_vertices):
            sampler = self._samplers.get(vertex)
            expected = {dst: graph.edge_bias(vertex, dst) for dst in graph.neighbors(vertex)}
            if not expected:
                if sampler is not None and len(sampler) > 0:
                    raise UpdateError(f"vertex {vertex} has stale sampling state")
                continue
            if sampler is None:
                raise UpdateError(f"vertex {vertex} is missing sampling state")
            actual = dict(sampler.candidates())
            if set(actual) != set(expected):
                raise UpdateError(f"vertex {vertex} sampler/graph neighbour mismatch")
            for dst, bias in expected.items():
                if abs(actual[dst] - bias) > 1e-9:
                    raise UpdateError(f"vertex {vertex} bias mismatch on edge to {dst}")
            sampler.check_invariants()
        super().check_consistency()
