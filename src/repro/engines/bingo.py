"""The Bingo engine: radix-factorized sampling tables on a dynamic graph.

This is the system the paper contributes.  The engine's whole state is its
:class:`~repro.graph.dynamic_graph.DynamicGraph` and the fused frontier
tables derived from it: each vertex's inter-group alias slice over its
radix groups, the groups' member ids, its decimal group (Section 4.3) and
its sorted adjacency.  A cold build runs in whole-array passes
(:class:`~repro.core.vertex_sampler.RadixLayout`), and the slices of any
vertex set — cold, after a batch, in a clone — come from the same passes
over those vertices' graph rows, so the tables after any update sequence
equal a cold build's of the same graph.  Batched updates follow the
Section 5.2 workflow: group requests by vertex, collapse them to net
insertions/deletions, refuse any bias λ cannot represent, mutate the graph
in bulk, and mark each touched vertex once for the next warm.  Each
batch's device-model parallel steps, ``ceil(touched vertices /
DEVICE_LANES)``, are counted in ``batch_stats``, so throughput experiments
can report them alongside wall-clock time.  Walks, scalar draws and the
reports (modelled memory, group kinds) read only the graph and the tables;
no per-vertex sampler object exists.
"""

from __future__ import annotations

import time
import copy
from dataclasses import dataclass, fields, replace
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.adaptive import GroupClassifier
from repro.core.groups import sample_by_fraction
from repro.core.memory_model import MemoryReport
from repro.core.radix import (
    choose_amortization_factor,
    split_scaled_arrays,
    split_scaled_bias,
    vanishing_bias,
)
from repro.core.vertex_sampler import RadixLayout

# No engine path calls it any more; perfbench's trace still patches this
# name by hand until ROADMAP item 8 replaces that patch list.
from repro.core.vertex_sampler import rebuild_samplers_batch  # noqa: F401
from repro.engines import compiled
from repro.engines.base import (
    PHASE_DELETE,
    PHASE_INSERT,
    FusedFrontierEngine,
    adjacency_rows,
    live_frontier,
    scatter_live,
)
from repro.engines.sliced_tables import SliceRows
from repro.errors import UpdateError
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.utils.rng import RandomSource, coerce_np_rng
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
    # Three stores: each vertex's inter-group alias slice, its flat member
    # table, and its decimal group (neighbour ids and fractions, in graph
    # row order) for the rejection draw.  ``entry_offset`` is local to the
    # vertex's own flat segment, so the stores patch and compact
    # independently.
    frontier_schemas = {
        "inter": {
            "prob": np.float64,
            "alias": np.int64,
            "entry_offset": np.int64,
            "entry_size": np.int64,
            "entry_decimal": np.bool_,
        },
        "flat": {"members": np.int64},
        "decimal": {"decimal_ids": np.int64, "decimal_fractions": np.float64},
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
        self.batch_stats = BatchStatistics()
        #: The generator of scalar draws (``sample_neighbor``), derived from
        #: the engine generator on first use.
        self._draw_rng: np.random.Generator | None = None
        #: ``(packed tables, bound one-entry kernel step)`` of scalar draws.
        self._stepper: tuple[np.ndarray, Callable[[int], tuple[int, bool]]] | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        """Stage every fused store from one whole-array pass over the graph.

        λ comes from the whole bias column; one :class:`RadixLayout` splits
        every bias, groups and classifies every (vertex, bit) and builds
        every inter-group alias (:meth:`_slice_rows`), and the stores are
        staged from its arrays, so the first warm writes them without a
        per-vertex gather.
        """
        graph = self._require_graph()
        indptr, targets, biases = graph.csr_columns()
        if self._requested_lam is None:
            # Edge order, as a per-edge loop over graph.edges() sums it.
            self.lam = choose_amortization_factor(biases) if len(biases) else 1.0
        degrees = np.diff(indptr)
        vertices = np.flatnonzero(degrees)
        rows = self._slice_rows(degrees[vertices], targets, biases)
        self.frontier_tables.stage(
            {name: (vertices, *columns) for name, columns in rows.items()}
        )

    def radix_layout(self, vertices: np.ndarray | None = None) -> RadixLayout:
        """One :class:`RadixLayout` over graph rows, with the engine's λ and
        group classifier.

        Row ``i`` is ``vertices[i]``'s graph row; by default the rows are
        every non-sink vertex's, in vertex order: the factorization the
        fused tables hold.
        """
        graph = self._require_graph()
        if vertices is None:
            indptr, _, biases = graph.csr_columns()
            lengths = np.diff(indptr)
            lengths = lengths[lengths > 0]
        else:
            lengths, _, biases = graph.gather_rows(vertices)
        return RadixLayout(lengths, biases, self.lam, self.classifier)

    def _clone_state(self, twin: BingoEngine) -> None:
        twin.batch_stats = replace(self.batch_stats)
        twin._draw_rng = copy.deepcopy(self._draw_rng)
        twin._stepper = None
        super()._clone_state(twin)

    # ------------------------------------------------------------------ #
    # streaming updates: the graph changes, the source is marked dirty
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

    def _on_delete(self, src: int, dst: int) -> None:
        self.frontier_tables.mark_dirty((src,))

    # ------------------------------------------------------------------ #
    # batched updates (Section 5.2, columnar pipeline)
    # ------------------------------------------------------------------ #
    def apply_batch(self, updates: Sequence[GraphUpdate]) -> None:
        """Ingest a batch through the columnar pipeline.

        The Section 5.2 workflow on :class:`~repro.graph.update_batch.UpdateBatch`
        columns, through the graph's one batch step: the batch collapses
        to validated net arc deletions and insertions
        (:meth:`~repro.graph.dynamic_graph.DynamicGraph.batch_changes`;
        an undirected batch to both arcs of each edge), every net
        insertion's bias is split in one vectorized call, and the graph
        mutates through the whole-batch arc mutators.  Each touched vertex
        is marked dirty once; the next warm re-derives its slices from its
        new graph row.  A batch the graph refuses, or one carrying a bias
        λ cannot scale or that vanishes under λ
        (:class:`~repro.errors.InvalidBiasError`), is refused before the
        first edge changes.
        """
        graph = self._require_graph()
        batch = UpdateBatch.coerce(updates)
        changes = graph.batch_changes(batch)
        touched = changes.touched.tolist()
        # Rebuilt: every touched vertex with edges before the batch or a
        # net insertion in it.
        degree = graph.degree
        limit = graph.num_vertices
        inserting = set(changes.insert_srcs.tolist())
        stats = BatchStatistics(
            cancelled_pairs=changes.cancelled,
            touched_vertices=len(touched),
            rebuilds=sum(
                1
                for vertex in touched
                if vertex in inserting or (vertex < limit and degree(vertex))
            ),
        )

        # One vectorized bias split over every net insertion: it refuses an
        # unscalable bias, and a vanishing one is refused here.
        if len(changes.insert_biases):
            integer_parts, fractions = split_scaled_arrays(changes.insert_biases, self.lam)
            vanished = (integer_parts == 0) & (fractions == 0.0)
            if vanished.any():
                raise vanishing_bias(float(changes.insert_biases[vanished][0]), self.lam)
        self.frontier_tables.mark_dirty(touched)

        delete_start = time.perf_counter()
        graph.remove_arcs(changes)
        insert_start = time.perf_counter()
        self.breakdown.add(PHASE_DELETE, insert_start - delete_start)
        graph.add_arcs(changes)
        self.breakdown.add(PHASE_INSERT, time.perf_counter() - insert_start)

        stats.deletions = len(changes.delete_srcs)
        stats.insertions = len(changes.insert_srcs)
        stats.kernel_launches = 1
        stats.parallel_steps = -(-len(touched) // DEVICE_LANES)
        self.batch_stats.merge(stats)
        self.updates_applied += len(batch)

    # ------------------------------------------------------------------ #
    # sampling: every draw reads the fused stores
    # ------------------------------------------------------------------ #
    def _sample(self, vertex: int) -> int | None:
        """A one-entry frontier draw on the engine's own draw generator.

        With the compiled kernel the draw runs through a
        :meth:`~repro.engines.compiled.FrontierKernel.stepper` bound to the
        current packed tables, so a scalar draw allocates nothing.
        """
        self._require_graph()
        if self._draw_rng is None:
            self._draw_rng = coerce_np_rng(self._rng)
        loaded = self._compiled_tables()
        if loaded is None:
            query = np.array([vertex], dtype=np.int64)
            drawn = int(self._sample_frontier(query, self._draw_rng)[0])
            return None if drawn < 0 else drawn
        kernel, tables, _ = loaded
        if self._stepper is None or self._stepper[0] is not tables:
            self._stepper = (
                tables,
                kernel.stepper(tables, self.kernel_kind, self._draw_rng),
            )
        drawn, decimal = self._stepper[1](vertex)
        if decimal:
            draws = np.array([drawn], dtype=np.int64)
            self._resolve_decimal_picks(
                np.array([vertex], dtype=np.int64),
                draws,
                np.zeros(1, dtype=np.int64),
                self._draw_rng,
            )
            drawn = int(draws[0])
        return None if drawn < 0 else drawn

    def _sample_batch(
        self, vertex: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        self._require_graph()
        return self._sample_frontier(np.full(count, vertex, dtype=np.int64), rng)

    # ------------------------------------------------------------------ #
    # fused frontier kernel
    # ------------------------------------------------------------------ #
    def _frontier_rows(self, vertices: np.ndarray) -> dict[str, SliceRows]:
        """``vertices``' slices of every store, from one gather of their graph rows."""
        return self._slice_rows(*self._require_graph().gather_rows(vertices))

    def _slice_rows(
        self, lengths: np.ndarray, targets: np.ndarray, biases: np.ndarray
    ) -> dict[str, SliceRows]:
        """The slices of graph rows given back to back, for every store.

        The rows feed the adjacency sort and one :class:`RadixLayout`,
        whose groups, decimal fractions and inter-group alias tables
        become the ``inter``, ``flat`` and ``decimal`` slices
        (:func:`_draw_rows`) — one derivation for the cold build and any
        later vertex set.  Group and decimal members follow the graph row.
        """
        rows = {"adjacency": adjacency_rows(lengths, targets)}
        layout = RadixLayout(lengths, biases, self.lam, self.classifier)
        rows.update(_draw_rows(targets, layout))
        return rows

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
        """Re-draw the decimal-group picks from the fused ``decimal`` store.

        One rejection draw (:func:`~repro.core.groups.sample_by_fraction`)
        per distinct vertex, in ascending vertex order, over the vertex's
        decimal ids and fractions in graph-row order.
        """
        tables = self.frontier_tables.views()
        offsets, lengths = tables["decimal_offset"], tables["decimal_length"]
        ids, fractions = tables["decimal_ids"], tables["decimal_fractions"]
        picked = vertices[picks]
        for vertex in np.unique(picked).tolist():
            members = picks[picked == vertex]
            start = offsets[vertex]
            stop = start + lengths[vertex]
            positions = sample_by_fraction(fractions[start:stop], len(members), rng)
            draws[members] = ids[start:stop][positions]

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def memory_report(self) -> MemoryReport:
        """The graph plus every vertex's modelled sampling state, from one
        :meth:`radix_layout`."""
        report = MemoryReport()
        graph = self._require_graph()
        # The adjacency itself (shared by every engine).
        report.add("graph", graph.num_arcs * (4 + 8) + graph.num_vertices * 8)
        report.merge(self.radix_layout().memory_report())
        return report

    def group_kind_ratios(self) -> dict[str, float]:
        """Share of non-empty groups per representation (Figure 11e)."""
        counts = self.radix_layout().kind_counts()
        total = sum(counts.values())
        return {kind.value: count / total for kind, count in counts.items()}

    def check_consistency(self) -> None:
        """Verify the fused tables against the graph (test hook).

        Every vertex's slices must draw exactly its out-neighbours, each
        with its λ-split bias over its row's total as probability, within
        1e-12 (:func:`slice_probabilities`); a sink's slices are empty.
        Then the adjacency store is checked.
        """
        graph = self._require_graph()
        views = self.frontier_tables.views()
        count = graph.num_vertices
        lengths, targets, biases = graph.gather_rows(np.arange(count))
        drawable = views["inter_length"][:count] > 0
        if len(drawable) < count or (drawable != (lengths > 0)).any():
            raise UpdateError("fused slices and graph rows disagree on the sinks")
        integer_parts, fractions = split_scaled_arrays(biases, self.lam)
        weights = integer_parts + fractions
        sources = np.repeat(np.arange(count), lengths)
        order = np.lexsort((targets, sources))
        want = (weights / np.bincount(sources, weights, minlength=count)[sources])[order]
        sources, targets = sources[order], targets[order]
        got_sources, got_targets, got = slice_probabilities(views, np.flatnonzero(lengths))
        if not (np.array_equal(got_sources, sources) and np.array_equal(got_targets, targets)):
            raise UpdateError("fused slices draw a neighbour set the graph does not hold")
        errors = np.abs(got - want)
        if len(errors) and errors.max() > 1e-12:
            worst = int(errors.argmax())
            raise UpdateError(
                f"vertex {sources[worst]} draws {targets[worst]} with probability "
                f"{got[worst]}, not {want[worst]}"
            )
        super().check_consistency()


def slice_probabilities(
    views: dict[str, np.ndarray], vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge's exact draw probability implied by ``vertices``' fused slices.

    Returns ``(sources, neighbours, probabilities)``, one entry per
    (vertex, neighbour) pair the slices can draw, ordered by vertex and then
    neighbour.  An inter slot's mass is its own bucket's kept share plus the
    shares other buckets alias to it, over the slice length; a radix-group
    slot splits its mass evenly over its members, and the decimal slot by
    each decimal neighbour's share of the fractions.
    """
    lengths = views["inter_length"][vertices]
    slots = segment_positions(views["inter_offset"][vertices], lengths)
    owners = np.repeat(vertices, lengths)
    width = np.repeat(lengths, lengths).astype(np.float64)
    prob = views["prob"][slots]
    mass = prob / width
    first_slot = np.repeat(np.cumsum(lengths) - lengths, lengths)
    np.add.at(mass, first_slot + views["alias"][slots], (1.0 - prob) / width)

    decimal = views["entry_decimal"][slots]
    group = ~decimal
    sizes = views["entry_size"][slots][group]
    group_owners = owners[group]
    decimal_owners = owners[decimal]
    decimal_lengths = views["decimal_length"][decimal_owners]
    if (sizes < 1).any() or (decimal_lengths < 1).any():
        raise UpdateError("a fused inter slot points at an empty group")
    members = segment_positions(
        views["flat_offset"][group_owners] + views["entry_offset"][slots][group], sizes
    )
    decimal_at = segment_positions(views["decimal_offset"][decimal_owners], decimal_lengths)
    fractions = views["decimal_fractions"][decimal_at]
    slot_of = np.repeat(np.arange(len(decimal_owners)), decimal_lengths)
    totals = np.bincount(slot_of, fractions, minlength=len(decimal_owners))
    sources = np.concatenate(
        (np.repeat(group_owners, sizes), np.repeat(decimal_owners, decimal_lengths))
    )
    neighbours = np.concatenate((views["members"][members], views["decimal_ids"][decimal_at]))
    shares = np.concatenate(
        (
            np.repeat(mass[group] / sizes, sizes),
            (mass[decimal] / totals)[slot_of] * fractions,
        )
    )
    if not len(shares):
        return sources, neighbours, shares
    # One entry per pair: a neighbour in several groups sums their shares.
    order = np.lexsort((neighbours, sources))
    sources, neighbours, shares = sources[order], neighbours[order], shares[order]
    heads = np.flatnonzero(
        np.r_[True, (sources[1:] != sources[:-1]) | (neighbours[1:] != neighbours[:-1])]
    )
    return sources[heads], neighbours[heads], np.add.reduceat(shares, heads)


def _draw_rows(targets: np.ndarray, layout: RadixLayout) -> dict[str, SliceRows]:
    """The ``inter``, ``flat`` and ``decimal`` slices of every row of
    ``layout``, back to back.

    ``targets`` are the rows' neighbour ids.  Each row's inter slice lists
    its radix groups in creation order, then the decimal group; its flat
    slice holds each group's member ids, then the decimal sentinel (the
    row's first neighbour, which the rejection draw replaces); its decimal
    slice holds the neighbours with a fractional part and their fractions,
    in row order.  A row without neighbours has empty slices.
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
    return {
        "inter": (layout.inter_length, inter),
        "flat": (flat_lengths, {"members": members}),
        "decimal": (
            layout.decimal_count,
            {
                "decimal_ids": targets[layout.decimal_edges],
                "decimal_fractions": layout.fractions[layout.decimal_edges],
            },
        ),
    }

