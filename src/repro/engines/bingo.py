"""The Bingo engine: per-vertex radix-factorized samplers on a dynamic graph.

This is the system the paper contributes.  Each vertex with out-edges owns a
:class:`~repro.core.vertex_sampler.BingoVertexSampler`; streaming updates touch
one sampler in O(K); batched updates follow the Section 5.2 workflow — group
requests by vertex, collapse them to net insertions/deletions, apply them with
the sampler's rebuild deferred, then rebuild each touched vertex exactly once.
Each batch's device-model parallel steps, ``ceil(touched vertices /
DEVICE_LANES)``, are counted in ``batch_stats``, so throughput experiments
can report them alongside wall-clock time.  A cold build runs in
whole-array passes (:class:`~repro.core.vertex_sampler.RadixLayout`) and
leaves the state the per-vertex path would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from functools import partial
from collections.abc import Sequence

import numpy as np

from repro.core.adaptive import ConversionTracker, GroupClassifier
from repro.core.memory_model import MemoryReport
from repro.core.radix import (
    choose_amortization_factor,
    split_scaled_arrays,
    split_scaled_bias,
    vanishing_bias,
)
from repro.core.vertex_sampler import (
    DECIMAL_GROUP_KEY,
    BingoVertexSampler,
    RadixLayout,
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
from repro.engines.sliced_tables import SliceParts, StagedRows
from repro.errors import UpdateError
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.segments import segment_positions

#: Parallel lanes of the modelled device: one A100's 108 SMs × 2048
#: resident threads.  A batch's per-vertex work runs ``DEVICE_LANES`` at a
#: time, so it costs ``ceil(touched vertices / DEVICE_LANES)`` steps.
DEVICE_LANES = 108 * 2048


@dataclass
class BatchStatistics:
    """Counters of the batched-update rounds (Section 5.2)."""

    insertions: int = 0
    deletions: int = 0
    cancelled_pairs: int = 0
    touched_vertices: int = 0
    rebuilds: int = 0
    kernel_launches: int = 0
    parallel_steps: int = 0

    def merge(self, other: BatchStatistics) -> None:
        """Fold another round's counters into this one."""
        for field in fields(self):
            name = field.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


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
        self.batch_stats = BatchStatistics()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        """Cold-build every sampler and the fused stores in whole-array passes.

        λ comes from the whole bias column; one :class:`RadixLayout` splits
        every bias, groups and classifies every (vertex, bit) and builds
        every inter-group alias; samplers are assembled from its arrays and
        the fused stores are staged from them, so the first warm writes
        them without a per-vertex gather.  The state is the one per-vertex
        ``insert_many`` calls plus one batched rebuild leave, down to group
        member order and the engine generator's state.
        """
        graph = self._require_graph()
        indptr, targets, biases = graph.csr_columns()
        if self._requested_lam is None:
            # Edge order, as a per-edge loop over graph.edges() sums it.
            self.lam = choose_amortization_factor(biases) if len(biases) else 1.0
        degrees = np.diff(indptr)
        if self._shard_owned is None:
            vertices = np.flatnonzero(degrees)
            row_targets, row_biases = targets, biases
        else:
            vertices = self._shard_owned[degrees[self._shard_owned] > 0]
            edges = segment_positions(indptr[vertices], degrees[vertices])
            row_targets, row_biases = targets[edges], biases[edges]
        layout = RadixLayout(degrees[vertices], row_biases, self.lam, self.classifier)
        layout.record_conversions(self.conversion_tracker)
        vertex_list = vertices.tolist()
        samplers = layout.samplers(
            row_targets,
            row_biases,
            [spawn_rng(self._rng, vertex) for vertex in vertex_list],
            lam=self.lam,
            classifier=self.classifier,
            conversion_tracker=self.conversion_tracker,
        )
        self._samplers = dict(zip(vertex_list, samplers))
        self.frontier_tables.stage(
            {
                **_cold_draw_rows(vertices, row_targets, layout),
                "adjacency": _cold_adjacency_rows(indptr, targets),
            }
        )

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

    def _clone_state(self, twin: BingoEngine) -> None:
        tracker = self.conversion_tracker
        twin.conversion_tracker = ConversionTracker(
            dict(tracker.transitions), tracker.observations
        )
        twin.batch_stats = replace(self.batch_stats)
        super()._clone_state(twin)

    def _clone_sampler(
        self, sampler: BingoVertexSampler, twin: BingoEngine
    ) -> BingoVertexSampler:
        return sampler.clone(twin.conversion_tracker)

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
    def apply_streaming_update(self, update: GraphUpdate) -> None:
        """Refuse a bias λ cannot scale, or that vanishes under λ, before
        the graph takes the edge."""
        if update.kind is UpdateKind.INSERT:
            if split_scaled_bias(update.bias, self.lam) == (0, 0.0):
                raise vanishing_bias(update.bias, self.lam)
        super().apply_streaming_update(update)

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
        per-edge oracle in ``tests/engines/scalar_batch_oracle.py`` —
        including seeded sampling draws.  Every net insertion's bias is
        split before the first edge changes, so a batch carrying a bias λ
        cannot scale, or one that vanishes under λ
        (:class:`~repro.errors.InvalidBiasError`), changes no edge and no
        sampler.

        Phase timings are aggregated once per batch (one timer pair per
        phase) instead of per touched vertex, so the fig13 breakdown no
        longer pays measurement overhead proportional to batch spread.
        """
        graph = self._require_graph()
        batch = UpdateBatch.coerce(updates)
        if graph.undirected:
            # Mirrored arcs interleave vertices, so no per-source plan
            # holds: apply edge by edge, refreshing both endpoints.
            self.apply_streaming(batch)
            return
        stats = BatchStatistics()
        groups = batch.group_by_source()
        stats.touched_vertices = len(groups)
        highest = batch.max_vertex()
        if highest >= 0:
            graph.ensure_vertices(highest)

        # Request reordering + net-effect normalization (host-side prepass).
        plans = []
        for group in groups:
            vertex = group.vertex
            deletions, insert_dsts, insert_biases, cancelled = group.normalize(
                partial(graph.has_edges, vertex)
            )
            stats.cancelled_pairs += cancelled
            plans.append((vertex, deletions, insert_dsts, insert_biases))

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
            integer_parts, fractions = split_scaled_arrays(merged, self.lam)
            vanished = (integer_parts == 0) & (fractions == 0.0)
            if vanished.any():
                raise vanishing_bias(float(merged[vanished][0]), self.lam)
            integer_list, fraction_list = integer_parts.tolist(), fractions.tolist()
        self.frontier_tables.mark_dirty(group.vertex for group in groups)

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
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - rebuild_start)

        stats.kernel_launches += 1
        stats.parallel_steps += -(-len(groups) // DEVICE_LANES)
        self.batch_stats.merge(stats)
        self.updates_applied += len(batch)

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


def _cold_draw_rows(
    vertices: np.ndarray, targets: np.ndarray, layout: RadixLayout
) -> dict[str, StagedRows]:
    """The ``inter`` and ``flat`` slices of a cold build, every vertex at once.

    Each row's inter slice lists its radix groups in creation order, then
    the decimal group; its flat slice holds each group's member ids, then
    the decimal sentinel (the row's first neighbour, which the rejection
    kernel redraws) — what :meth:`BingoEngine._frontier_parts` derives
    from a freshly built sampler.
    """
    rows, width = layout.prob.shape
    valid = np.arange(width) < layout.inter_length[:, None]
    has_decimal = layout.inter_length > layout.group_count
    decimal_rows = np.flatnonzero(has_decimal)
    sizes = np.zeros((rows, width), dtype=np.int64)
    sizes[layout.group_row, layout.group_rank] = layout.group_size
    sizes[decimal_rows, layout.group_count[decimal_rows]] = 1
    decimal = np.zeros((rows, width), dtype=np.bool_)
    decimal[decimal_rows, layout.group_count[decimal_rows]] = True
    inter = {
        "prob": layout.prob[valid],
        "alias": layout.alias[valid],
        "entry_offset": (np.cumsum(sizes, axis=1) - sizes)[valid],
        "entry_size": sizes[valid],
        "entry_decimal": decimal[valid],
    }
    flat_lengths = sizes.sum(axis=1)
    members = np.empty(int(flat_lengths.sum()), dtype=np.int64)
    # A member's position: its rank among all members, shifted past the
    # sentinels of the rows before its own.
    member_rows = np.repeat(layout.group_row, layout.group_size)
    sentinels_before = np.cumsum(has_decimal) - has_decimal
    members[np.arange(len(member_rows)) + sentinels_before[member_rows]] = targets[
        layout.member_edges
    ]
    members[(np.cumsum(flat_lengths) - 1)[decimal_rows]] = targets[
        layout.starts[decimal_rows]
    ]
    stores = {
        "inter": (layout.inter_length, inter),
        "flat": (flat_lengths, {"members": members}),
    }
    if (np.diff(vertices) > 0).all():
        return {name: (vertices, lengths, columns) for name, (lengths, columns) in stores.items()}
    # A shard's owned vertices in another order: stage them ascending.
    order = np.argsort(vertices, kind="stable")
    staged = {}
    for name, (lengths, columns) in stores.items():
        gather = segment_positions((np.cumsum(lengths) - lengths)[order], lengths[order])
        staged[name] = (
            vertices[order],
            lengths[order],
            {column: values[gather] for column, values in columns.items()},
        )
    return staged


def _cold_adjacency_rows(indptr: np.ndarray, targets: np.ndarray) -> StagedRows:
    """Every vertex's sorted out-neighbours (the ``adjacency`` store), one lexsort."""
    degrees = np.diff(indptr)
    owners = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    vertices = np.flatnonzero(degrees)
    neighbors = targets[np.lexsort((targets, owners))]
    return vertices, degrees[vertices], {"neighbors": neighbors}
