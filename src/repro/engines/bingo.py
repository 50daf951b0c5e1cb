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
from repro.engines.base import (
    PHASE_DELETE,
    PHASE_INSERT,
    PHASE_REBUILD,
    RandomWalkEngine,
    live_frontier,
    scatter_live,
)
from repro.engines.sliced_tables import (
    FrontierDelta,
    SlicedTableStore,
    adopt_store_state,
    export_store_state,
    mark_frontier_dirty,
    warm_frontier_delta,
)
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


class BingoEngine(RandomWalkEngine):
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
        self._samplers: dict[int, BingoVertexSampler] = {}
        # Concatenated per-vertex sampling tables for the fused frontier
        # kernel, kept as sliced segments in two coupled stores: the
        # inter-group alias slices and the flat member table they point
        # into.  An update batch marks its touched vertices dirty and the
        # next table build repairs exactly those slices; the per-vertex
        # parts (with local offsets) are cached in ``_vertex_tables``.
        self._frontier_cache: dict[str, np.ndarray] | None = None
        self._vertex_tables: dict[int, tuple] = {}
        self._frontier_dirty: set[int] = set()
        self._inter_store = SlicedTableStore(
            {
                "prob": np.float64,
                "alias": np.int64,
                "entry_offset": np.int64,
                "entry_size": np.int64,
                "entry_decimal": np.bool_,
            }
        )
        self._flat_store = SlicedTableStore({"flat": np.int64})
        #: Cold/compaction full concatenations performed (delta accounting).
        self.frontier_full_builds = 0

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
        self._frontier_cache = None
        self._vertex_tables = {}
        self._frontier_dirty.clear()
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
        mark_frontier_dirty(self, (src,))
        self._vertex_tables.pop(src, None)
        sampler = self._samplers.get(src)
        if sampler is None:
            sampler = self._new_sampler(src)
            self._samplers[src] = sampler
        sampler.insert(dst, bias)
        start = time.perf_counter()
        sampler.rebuild()
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)

    def _on_delete(self, src: int, dst: int) -> None:
        mark_frontier_dirty(self, (src,))
        self._vertex_tables.pop(src, None)
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
        mark_frontier_dirty(self, (group.vertex for group in groups))
        stats.touched_vertices = len(groups)
        highest = batch.max_vertex()
        if highest >= 0:
            graph.ensure_vertices(highest)
        wall_start = time.perf_counter()

        # Request reordering + net-effect normalization (host-side prepass).
        plans = []
        for group in groups:
            vertex = group.vertex
            self._vertex_tables.pop(vertex, None)
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
        mark_frontier_dirty(self, grouped)
        stats.touched_vertices = len(grouped)

        def process_vertex(item) -> None:
            vertex, vertex_updates = item
            self._vertex_tables.pop(vertex, None)
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
    def _vertex_parts(self, vertex: int, sampler: BingoVertexSampler) -> tuple:
        parts = self._vertex_tables.get(vertex)
        if parts is None:
            parts = self._build_vertex_table(sampler)
            self._vertex_tables[vertex] = parts
        return parts

    def _set_vertex_slices(self, vertex: int, parts: tuple) -> None:
        """Write one vertex's segments into both stores (flat first).

        The inter store's ``entry_offset`` entries are *global* positions
        in the flat member table, so the flat segment must land before its
        offset is known.
        """
        prob, alias, entry_offset, entry_size, entry_decimal, flat = parts
        flat_offset = self._flat_store.set_slice(vertex, {"flat": flat})
        self._inter_store.set_slice(
            vertex,
            {
                "prob": prob,
                "alias": alias,
                "entry_offset": flat_offset + entry_offset,
                "entry_size": entry_size,
                "entry_decimal": entry_decimal,
            },
        )

    def _rebuild_frontier_stores(self) -> None:
        """Cold full concatenation of both stores from the parts cache.

        Also the compaction fallback: flat-store compaction moves segments
        the inter store's global ``entry_offset`` values point into, so
        instead of rewriting offsets piecemeal both stores are re-packed
        from the (hot) per-vertex parts cache in one pass.  Stale parts of
        vertices whose samplers dropped to zero edges are evicted here.
        """
        graph = self._require_graph()
        self.frontier_full_builds += 1
        self._frontier_dirty.clear()
        self._inter_store.reset(graph.num_vertices)
        self._flat_store.reset(graph.num_vertices)
        live: set[int] = set()
        for vertex, sampler in self._samplers.items():
            if len(sampler) == 0:
                continue
            live.add(vertex)
            self._set_vertex_slices(vertex, self._vertex_parts(vertex, sampler))
        for vertex in [v for v in self._vertex_tables if v not in live]:
            del self._vertex_tables[vertex]

    def _frontier_tables(self) -> dict[str, np.ndarray]:
        """Per-vertex sampling tables concatenated into global arrays.

        One flattened structure serves the whole graph: per-vertex slices of
        the inter-group alias arrays (``group_offset`` / ``group_count``)
        select a group with a fused bucket-and-toss, and per-inter-entry
        slices of a global member table (``entry_offset`` / ``entry_size``)
        resolve the intra-group uniform pick — so a frontier of N walkers on
        arbitrary vertices advances with a fixed number of NumPy operations.
        Entries landing in a decimal group are flagged and re-resolved by
        the per-vertex rejection kernel (they are rare by the choice of λ).
        Built cold once; afterwards an update batch marks its touched
        vertices in ``_frontier_dirty`` and this repairs exactly those
        slices in the sliced stores, so a flip costs O(touched), not O(V)
        (compaction of either store falls back to the full re-pack).
        """
        if self._frontier_cache is not None and not self._frontier_dirty:
            return self._frontier_cache
        graph = self._require_graph()
        if self._frontier_cache is None:
            self._rebuild_frontier_stores()
        else:
            self._inter_store.ensure_vertices(graph.num_vertices)
            self._flat_store.ensure_vertices(graph.num_vertices)
            for vertex in sorted(self._frontier_dirty):
                sampler = self._samplers.get(vertex)
                if sampler is None or len(sampler) == 0:
                    # Evict, don't skip: a vertex churned down to zero edges
                    # must release both its slices and its parts cache.
                    self._vertex_tables.pop(vertex, None)
                    self._inter_store.clear_slice(vertex)
                    self._flat_store.clear_slice(vertex)
                    continue
                self._set_vertex_slices(vertex, self._vertex_parts(vertex, sampler))
            self._frontier_dirty.clear()
            if self._inter_store.needs_compaction() or self._flat_store.needs_compaction():
                self._rebuild_frontier_stores()
        # Re-derive the view dict every repair: capacity growth and
        # compaction replace the backing arrays.
        self._refresh_frontier_views()
        return self._frontier_cache

    def _refresh_frontier_views(self) -> None:
        self._frontier_cache = {
            "group_offset": self._inter_store.seg_offset,
            "group_count": self._inter_store.seg_length,
            "prob": self._inter_store.column("prob"),
            "alias": self._inter_store.column("alias"),
            "entry_offset": self._inter_store.column("entry_offset"),
            "entry_size": self._inter_store.column("entry_size"),
            "entry_decimal": self._inter_store.column("entry_decimal"),
            "flat": self._flat_store.column("flat"),
        }

    def warm_frontier_tables(self) -> FrontierDelta:
        """Repair the fused tables now; reports the slices it re-derived."""
        return warm_frontier_delta(self)

    # ------------------------------------------------------------------ #
    # cross-process frontier state (the shard-router transport)
    # ------------------------------------------------------------------ #
    def export_frontier_state(self) -> dict[str, np.ndarray]:
        """Both stores' full state as plain arrays (the shard boot payload).

        The inter store's global ``entry_offset`` values stay valid
        verbatim because the flat heap ships whole — offsets reference
        the same positions on the adopting side.
        """
        self._frontier_tables()
        state = {
            "num_vertices": np.array(
                [self._require_graph().num_vertices], dtype=np.int64
            )
        }
        state.update(export_store_state(self._inter_store, "inter_"))
        state.update(export_store_state(self._flat_store, "flat_"))
        return state

    def adopt_frontier_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace the fused tables with a writer's exported snapshot.

        A shard replica keeps its own (owned-only) samplers but walks the
        *global* adopted tables; subsequent flips arrive as
        :meth:`apply_frontier_patch` slices instead of fresh snapshots.
        """
        adopt_store_state(self._inter_store, state, "inter_")
        adopt_store_state(self._flat_store, state, "flat_")
        self._frontier_dirty.clear()
        self._refresh_frontier_views()

    def export_frontier_patch(self, vertices) -> dict[str, np.ndarray]:
        """The touched vertices' slices of both stores, offsets made local.

        ``entry_offset`` entries are global positions in *this* engine's
        flat heap; the replica's heap packs the same slices at different
        positions, so the patch carries offsets relative to each vertex's
        own flat segment and :meth:`apply_frontier_patch` re-bases them —
        the exact discipline of :meth:`_set_vertex_slices`.
        """
        self._frontier_tables()
        inter, flat = self._inter_store, self._flat_store
        ids = np.asarray(sorted(int(v) for v in vertices), dtype=np.int64)
        inter_lengths = np.zeros(len(ids), dtype=np.int64)
        flat_lengths = np.zeros(len(ids), dtype=np.int64)
        in_directory = ids < inter.num_vertices
        inter_lengths[in_directory] = inter.seg_length[ids[in_directory]]
        flat_lengths[in_directory] = flat.seg_length[ids[in_directory]]
        payload: dict[str, np.ndarray] = {
            "vertices": ids,
            "inter_lengths": inter_lengths,
            "flat_lengths": flat_lengths,
            "num_vertices": np.array(
                [self._require_graph().num_vertices], dtype=np.int64
            ),
        }
        for name in ("prob", "alias", "entry_offset", "entry_size", "entry_decimal"):
            column = inter.column(name)
            pieces = [
                column[inter.seg_offset[v] : inter.seg_offset[v] + length]
                for v, length in zip(ids, inter_lengths)
                if length > 0
            ]
            payload[name] = (
                np.concatenate(pieces)
                if pieces
                else np.empty(0, dtype=column.dtype)
            )
        flat_column = flat.column("flat")
        flat_pieces = [
            flat_column[flat.seg_offset[v] : flat.seg_offset[v] + length]
            for v, length in zip(ids, flat_lengths)
            if length > 0
        ]
        payload["flat"] = (
            np.concatenate(flat_pieces)
            if flat_pieces
            else np.empty(0, dtype=np.int64)
        )
        # Globals -> locals: subtract each vertex's flat segment base.
        bases = np.zeros(len(ids), dtype=np.int64)
        bases[in_directory] = flat.seg_offset[ids[in_directory]]
        payload["entry_offset"] = payload["entry_offset"] - np.repeat(
            bases, inter_lengths
        )
        return payload

    def apply_frontier_patch(self, payload: dict[str, np.ndarray]) -> None:
        """Apply a writer's :meth:`export_frontier_patch` to this replica.

        Mirrors :meth:`_set_vertex_slices`: each vertex's flat slice lands
        first and its fresh offset re-bases the local ``entry_offset``
        entries.  Touched vertices' scalar samplers are evicted (stale);
        the decimal fallback rebuilds them lazily from the (kept-fresh)
        local graph.
        """
        inter, flat = self._inter_store, self._flat_store
        num_vertices = int(payload["num_vertices"][0])
        inter.ensure_vertices(num_vertices)
        flat.ensure_vertices(num_vertices)
        inter_cursor = 0
        flat_cursor = 0
        for position, v in enumerate(payload["vertices"]):
            vertex = int(v)
            inter_length = int(payload["inter_lengths"][position])
            flat_length = int(payload["flat_lengths"][position])
            self._samplers.pop(vertex, None)
            self._vertex_tables.pop(vertex, None)
            if vertex >= inter.num_vertices:
                inter.ensure_vertices(vertex + 1)
                flat.ensure_vertices(vertex + 1)
            if inter_length == 0:
                inter.clear_slice(vertex)
                flat.clear_slice(vertex)
                continue
            flat_offset = flat.set_slice(
                vertex,
                {"flat": payload["flat"][flat_cursor : flat_cursor + flat_length]},
            )
            inter.set_slice(
                vertex,
                {
                    "prob": payload["prob"][inter_cursor : inter_cursor + inter_length],
                    "alias": payload["alias"][inter_cursor : inter_cursor + inter_length],
                    "entry_offset": payload["entry_offset"][
                        inter_cursor : inter_cursor + inter_length
                    ]
                    + flat_offset,
                    "entry_size": payload["entry_size"][
                        inter_cursor : inter_cursor + inter_length
                    ],
                    "entry_decimal": payload["entry_decimal"][
                        inter_cursor : inter_cursor + inter_length
                    ],
                },
            )
            inter_cursor += inter_length
            flat_cursor += flat_length
        if inter.needs_compaction() or flat.needs_compaction():
            self._compact_replica_stores()
        self._frontier_dirty.clear()
        self._refresh_frontier_views()

    def _compact_replica_stores(self) -> None:
        """Compact both stores without the writer's per-vertex parts cache.

        The writer-side compaction fallback re-packs from
        ``_vertex_tables``; a replica adopted its tables over the wire and
        has no such cache, so it compacts the heaps directly and re-bases
        the global ``entry_offset`` entries by each vertex's flat-segment
        displacement.
        """
        flat = self._flat_store
        inter = self._inter_store
        old_flat_offset = flat.seg_offset.copy()
        flat.compact()
        shift = flat.seg_offset - old_flat_offset
        entry_offset = inter.column("entry_offset")
        for vertex in np.nonzero(inter.seg_length > 0)[0]:
            if shift[vertex] == 0:
                continue
            start = inter.seg_offset[vertex]
            entry_offset[start : start + inter.seg_length[vertex]] += shift[vertex]
        inter.compact()

    @staticmethod
    def _build_vertex_table(sampler: BingoVertexSampler) -> tuple:
        """One vertex's slice of the fused tables (offsets still local)."""
        if sampler._inter_dirty:
            sampler.rebuild()
        ids, lut, flat, offsets, sizes = sampler._batch_cache()
        group_ids, prob, alias = sampler._inter_group.numpy_tables()
        slots = lut[group_ids + 1]
        # Translate neighbour indices to neighbour ids once, here, so the
        # query path gathers final vertex ids directly.
        return (
            prob,
            alias,
            offsets[slots],
            sizes[slots],
            group_ids == DECIMAL_GROUP_KEY,
            ids[flat],
        )

    def _sample_frontier(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        tables = self._frontier_tables()
        # Sinks and out-of-range vertices draw -1, matching the scalar path.
        live, query, sizes = live_frontier(tables["group_count"], vertices)
        width = len(query)
        if width == 0:
            return np.full(len(vertices), -1, dtype=np.int64)
        offsets = tables["group_offset"][query]

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
        positions = tables["entry_offset"][chosen] + np.minimum(
            (third * entry_sizes).astype(np.int64), entry_sizes - 1
        )
        drawn = tables["flat"][positions]

        decimal_mask = tables["entry_decimal"][chosen]
        if decimal_mask.any():
            picks = np.nonzero(decimal_mask)[0]
            for vertex in np.unique(query[picks]):
                members = picks[query[picks] == vertex]
                sampler = self._decimal_sampler(int(vertex))
                ids = sampler._batch_cache()[0]
                indices = sampler._decimal.sample_batch(
                    len(members), rng, counter=sampler.counter
                )
                drawn[members] = ids[indices]
        return scatter_live(drawn, live, len(vertices))

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
        """Verify every sampler matches the graph adjacency (test hook)."""
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
