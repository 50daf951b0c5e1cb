"""Common interface for random-walk engines.

An engine owns a :class:`~repro.graph.dynamic_graph.DynamicGraph` plus
whatever per-vertex sampling state its design requires, and exposes:

* first-order biased neighbour sampling (the operation every walk
  application reduces to),
* streaming updates (one edge at a time) and batched updates (a list of
  edges ingested together),
* a modelled memory report and a wall-clock time breakdown split into the
  phases the paper's figures use (``insert``, ``delete``, ``rebuild``,
  ``sampling``).
"""

from __future__ import annotations

import abc
import copy
import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.memory_model import MemoryReport
from repro.engines import compiled
from repro.engines.sliced_tables import (
    FrontierDelta,
    FusedTables,
    SliceParts,
    SliceRows,
    stack_slices,
)
from repro.errors import SamplerStateError, UpdateError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.utils.rng import NumpySource, RandomSource, clone_rng, ensure_np_rng, ensure_rng
from repro.utils.timing import TimeBreakdown

#: The store every fused engine carries beside its draw tables: each
#: vertex's out-neighbour ids, sorted ascending (the compiled node2vec
#: walk's distance-1 test).
ADJACENCY_SCHEMA: dict[str, dict[str, type]] = {"adjacency": {"neighbors": np.int64}}

#: Phase names used in every engine's time breakdown.
PHASE_INSERT = "insert"
PHASE_DELETE = "delete"
PHASE_REBUILD = "rebuild"
PHASE_SAMPLING = "sampling"


def adjacency_rows(lengths: np.ndarray, targets: np.ndarray) -> SliceRows:
    """Graph rows given back to back, each sorted: one sort of row-major keys."""
    stride = int(targets.max()) + 1 if len(targets) else 1
    shift = np.repeat(np.arange(len(lengths), dtype=np.int64) * stride, lengths)
    return lengths, {"neighbors": np.sort(shift + targets) - shift}


def live_frontier(
    lengths: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Split a non-empty frontier into the entries a fused kernel can draw for.

    ``lengths`` maps each vertex to the length of its table row (0 for a
    sink).  Returns ``(live, query, sizes)``: the positions of the entries
    whose row is non-empty, their vertices and their row lengths.  ``live``
    is ``None`` when that is every entry, so the kernel skips both gathers
    here and the scatter in :func:`scatter_live`.  Vertices outside the
    table — negative ids (retired-walker padding) or ids past its end —
    count as empty; one min/max check lets the usual all-in-range frontier
    gather without masking.
    """
    limit = len(lengths)
    if vertices.min() >= 0 and vertices.max() < limit:
        sizes = lengths[vertices]
    else:
        in_range = (vertices >= 0) & (vertices < limit)
        sizes = np.zeros(len(vertices), dtype=lengths.dtype)
        sizes[in_range] = lengths[vertices[in_range]]
    if sizes.min() > 0:
        return None, vertices, sizes
    live = np.flatnonzero(sizes)
    return live, vertices[live], sizes[live]


def scatter_live(drawn: np.ndarray, live: np.ndarray | None, count: int) -> np.ndarray:
    """Align a kernel's draws with its frontier: ``-1`` at the dead entries."""
    if live is None:
        return drawn
    out = np.full(count, -1, dtype=np.int64)
    out[live] = drawn
    return out


class RandomWalkEngine(abc.ABC):
    """Abstract dynamic-graph random walk engine."""

    #: Human-readable engine name (used by the registry and reports).
    name: str = "abstract"

    #: Whether :meth:`sample_neighbors` runs a real vectorized kernel.  When
    #: ``False`` the batched API still works but falls back to a scalar loop,
    #: so the walk frontier can decide whether batching pays off.
    supports_batch: bool = False

    #: Co-located walker groups smaller than this use the scalar draw inside
    #: :meth:`sample_frontier` — the fixed cost of a vectorized kernel call
    #: only amortizes once a few walkers share a vertex.
    kernel_threshold: int = 2

    def __init__(self, *, rng: RandomSource = None) -> None:
        self._rng = ensure_rng(rng)
        self.graph: DynamicGraph | None = None
        self.breakdown = TimeBreakdown()
        self.updates_applied = 0
        self.samples_drawn = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def build(self, graph: DynamicGraph) -> None:
        """Adopt ``graph`` (by reference) and build the engine's sampling state."""
        self.graph = graph
        start = time.perf_counter()
        self._build_state()
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)

    @abc.abstractmethod
    def _build_state(self) -> None:
        """Construct per-vertex sampling structures for the adopted graph."""

    def clone(self) -> RandomWalkEngine:
        """An independent engine in exactly this engine's state.

        Field by field: the graph, every generator (in its current
        state), the samplers and the fused tables are copied, and settings
        that never change after construction are shared.  A clone and its source draw the same walks from the same
        generator and stay equal under the same updates — the serve
        layer's back buffer is a clone of its front.
        """
        twin = copy.copy(self)
        twin._rng = clone_rng(self._rng)
        twin.graph = None if self.graph is None else self.graph.copy()
        twin.breakdown = TimeBreakdown(dict(self.breakdown.phases))
        self._clone_state(twin)
        return twin

    def _clone_state(self, twin: RandomWalkEngine) -> None:
        """Give ``twin`` (a shallow copy) its own copy of subclass state."""

    def _require_graph(self) -> DynamicGraph:
        if self.graph is None:
            raise UpdateError(f"engine {self.name!r} has not been built from a graph yet")
        return self.graph

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def apply_streaming_update(self, update: GraphUpdate) -> None:
        """Apply one update immediately (the low-latency path).

        On an undirected graph the mutation also changes the mirrored arc,
        so both endpoints' sampling state is refreshed.
        """
        graph = self._require_graph()
        src, dst = update.src, update.dst
        graph.ensure_vertex(src)
        graph.ensure_vertex(dst)
        mirrored = graph.undirected and src != dst
        phase = PHASE_INSERT if update.kind is UpdateKind.INSERT else PHASE_DELETE
        start = time.perf_counter()
        if update.kind is UpdateKind.INSERT:
            graph.add_edge(src, dst, update.bias)
            self._on_insert(src, dst, update.bias)
            if mirrored:
                self._on_insert(dst, src, update.bias)
        else:
            graph.remove_edge(src, dst)
            self._on_delete(src, dst)
            if mirrored:
                self._on_delete(dst, src)
        self.breakdown.add(phase, time.perf_counter() - start)
        self.updates_applied += 1

    def apply_streaming(self, updates: Iterable[GraphUpdate]) -> None:
        """Apply a sequence of updates one at a time."""
        for update in updates:
            self.apply_streaming_update(update)

    def apply_batch(self, updates: Sequence[GraphUpdate]) -> None:
        """Ingest a whole batch of updates (the high-throughput path).

        The default implementation streams the batch; engines with a real
        batched path (Bingo) or rebuild-from-scratch semantics (the static
        baselines) override this.
        """
        self.apply_streaming(updates)

    def _apply_batch_to_graph(self, batch: UpdateBatch) -> list[int]:
        """Mutate the adopted graph with a whole columnar batch.

        Groups the batch by source vertex (one stable argsort) and replays
        each vertex's slice as bulk kind-runs, so the resulting adjacency —
        including neighbour-array order — is identical to applying the
        updates one edge at a time in timestamp order.  Returns the touched
        source vertices in first-appearance order.  Undirected graphs fall
        back to the scalar path (mirrored arcs interleave vertices) and
        return both endpoints of every update, since each arc is mirrored.
        """
        graph = self._require_graph()
        if graph.undirected:
            touched: list[int] = []
            seen = set()
            for update in batch:
                graph.ensure_vertex(update.src)
                graph.ensure_vertex(update.dst)
                if update.kind is UpdateKind.INSERT:
                    graph.add_edge(update.src, update.dst, update.bias)
                else:
                    graph.remove_edge(update.src, update.dst)
                for vertex in (update.src, update.dst):
                    if vertex not in seen:
                        seen.add(vertex)
                        touched.append(vertex)
            return touched
        highest = batch.max_vertex()
        if highest >= 0:
            graph.ensure_vertices(highest)
        touched = []
        add_edge = graph.add_edge
        remove_edge = graph.remove_edge
        for group in batch.group_by_source(detect_duplicates=False):
            vertex = group.vertex
            dsts = group.dsts
            if len(dsts) == 1:
                # Single-update slices dominate realistic batches; the bulk
                # mutators' vectorized validation would only add overhead.
                if group.insert_mask[0]:
                    add_edge(vertex, int(dsts[0]), float(group.biases[0]))
                else:
                    remove_edge(vertex, int(dsts[0]))
            else:
                for is_insert, start, stop in group.kind_runs():
                    if stop - start == 1:
                        if is_insert:
                            add_edge(vertex, int(dsts[start]), float(group.biases[start]))
                        else:
                            remove_edge(vertex, int(dsts[start]))
                    elif is_insert:
                        graph.add_edges_bulk(
                            vertex,
                            dsts[start:stop],
                            group.biases[start:stop],
                        )
                    else:
                        graph.remove_edges_bulk(vertex, dsts[start:stop])
            touched.append(vertex)
        return touched

    # per-update hooks for subclasses (graph mutation already done)
    @abc.abstractmethod
    def _on_insert(self, src: int, dst: int, bias: float) -> None:
        """Update sampling state after an edge insertion."""

    @abc.abstractmethod
    def _on_delete(self, src: int, dst: int) -> None:
        """Update sampling state after an edge deletion."""

    # ------------------------------------------------------------------ #
    # sampling (NeighborSampler protocol)
    # ------------------------------------------------------------------ #
    def sample_neighbor(self, vertex: int) -> int | None:
        """Draw a biased out-neighbour of ``vertex`` (None for sinks)."""
        start = time.perf_counter()
        try:
            return self._sample(vertex)
        finally:
            self.breakdown.add(PHASE_SAMPLING, time.perf_counter() - start)
            self.samples_drawn += 1

    @abc.abstractmethod
    def _sample(self, vertex: int) -> int | None:
        """Engine-specific biased neighbour draw."""

    def sample_neighbors(
        self, vertex: int, count: int, rng: NumpySource = None
    ) -> np.ndarray:
        """Draw ``count`` biased out-neighbours of ``vertex`` as one batch.

        Returns an ``int64`` array of length ``count``; every entry is ``-1``
        when the vertex has no out-edges (the batched form of
        :meth:`sample_neighbor` returning ``None``).  Engines with
        ``supports_batch`` resolve the whole request in one vectorized
        kernel; the default implementation loops the scalar draw so every
        engine can serve walk-frontier queries.
        """
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        start = time.perf_counter()
        try:
            return self._sample_batch(vertex, count, ensure_np_rng(rng))
        finally:
            self.breakdown.add(PHASE_SAMPLING, time.perf_counter() - start)
            self.samples_drawn += count

    def _sample_batch(
        self, vertex: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Engine-specific batched draw (default: scalar fallback loop)."""
        out = np.empty(count, dtype=np.int64)
        for position in range(count):
            drawn = self._sample(vertex)
            out[position] = -1 if drawn is None else drawn
        return out

    def sample_frontier(
        self, vertices: Sequence[int], rng: NumpySource = None
    ) -> np.ndarray:
        """Draw one biased neighbour for every entry of ``vertices`` at once.

        ``vertices`` is a walk frontier: the current positions of N walkers,
        repeats expected and welcome.  Returns an ``int64`` array aligned
        with the input, ``-1`` where the vertex has no out-edges.  The
        default implementation partitions the frontier by vertex (one
        argsort) and serves each group with the engine's batched kernel;
        engines can override :meth:`_sample_frontier` with a fused kernel
        that resolves the whole frontier without per-vertex dispatch.
        """
        query = np.ascontiguousarray(vertices, dtype=np.int64)
        if query.size == 0:
            return np.empty(0, dtype=np.int64)
        start = time.perf_counter()
        try:
            return self._sample_frontier(query, ensure_np_rng(rng))
        finally:
            self.breakdown.add(PHASE_SAMPLING, time.perf_counter() - start)
            self.samples_drawn += int(query.size)

    def _sample_frontier(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Engine-specific frontier draw (default: group-by-vertex dispatch)."""
        draws = np.full(len(vertices), -1, dtype=np.int64)
        # Vertices outside the current snapshot — negative ids (the walk
        # matrix's retired-walker padding) or ids past the vertex range —
        # draw -1 so the walker retires instead of crashing the scalar
        # fallback or sampling some other vertex's view.
        valid = (vertices >= 0) & (vertices < self._require_graph().num_vertices)
        if not valid.all():
            positions = np.nonzero(valid)[0]
            if len(positions) == 0:
                return draws
            draws[positions] = self._sample_frontier(vertices[positions], rng)
            return draws
        # argsort-partition: members of group g sit at order[bounds[g]:bounds[g+1]].
        order = np.argsort(vertices, kind="stable")
        unique, counts = np.unique(vertices, return_counts=True)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for group, vertex in enumerate(unique):
            members = order[bounds[group] : bounds[group + 1]]
            share = int(counts[group])
            if self.supports_batch and share >= self.kernel_threshold:
                draws[members] = self._sample_batch(int(vertex), share, rng)
            else:
                for member in members:
                    drawn = self._sample(int(vertex))
                    draws[member] = -1 if drawn is None else drawn
        return draws

    def compiled_walk(
        self,
        frontier,
        *,
        termination_probability: float = 0.0,
        node2vec: tuple[float, float] | None = None,
    ) -> bool:
        """Run ``frontier``'s whole walk in the compiled kernel, if this engine has one.

        Returns ``False`` without drawing anything when it does not, and the
        caller steps the frontier itself.  See
        :meth:`FusedFrontierEngine.compiled_walk`.
        """
        return False

    @property
    def frontier_kernel(self) -> str:
        """Which kernel serves this engine's frontier draws: ``"compiled"`` or ``"numpy"``."""
        return "numpy"

    def degree(self, vertex: int) -> int:
        """Out-degree of ``vertex`` in the current snapshot."""
        return self._require_graph().degree(vertex)

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether ``src -> dst`` exists in the current snapshot."""
        graph = self._require_graph()
        if src >= graph.num_vertices or dst >= graph.num_vertices:
            return False
        return graph.has_edge(src, dst)

    def has_arcs(self, srcs: Sequence[int], dsts: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`has_edge` over aligned ``(src, dst)`` pairs.

        Returns a boolean array; pairs with an id outside the snapshot
        (negative ones included) are absent.
        """
        return self._require_graph().has_arcs(srcs, dsts)

    def num_vertices(self) -> int:
        """Number of vertices in the current snapshot."""
        return self._require_graph().num_vertices

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def memory_report(self) -> MemoryReport:
        """Modelled memory footprint of graph plus sampling structures."""

    def memory_gigabytes(self) -> float:
        """Convenience: total modelled memory in GB."""
        return self.memory_report().total_gigabytes()

    def reset_breakdown(self) -> None:
        """Clear the accumulated time breakdown and counters."""
        self.breakdown = TimeBreakdown()
        self.samples_drawn = 0
        self.updates_applied = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vertices = self.graph.num_vertices if self.graph is not None else 0
        return f"{type(self).__name__}(vertices={vertices})"


class FusedFrontierEngine(RandomWalkEngine):
    """An engine whose fused frontier kernel reads sliced per-vertex tables.

    A subclass declares :attr:`frontier_schemas` and implements
    :meth:`_frontier_parts` (one vertex's slices), or overrides
    :meth:`_frontier_rows` to derive many vertices' slices of every store
    at once, as Bingo does; :attr:`frontier_tables` (a
    :class:`~repro.engines.sliced_tables.FusedTables`) owns the rest of
    the table lifecycle.  Updates mark their touched vertices with
    ``frontier_tables.mark_dirty``, and kernels read
    ``frontier_tables.views()``.  Per-vertex scalar samplers live in
    ``_samplers``; they serve :meth:`sample_neighbor` and the update paths,
    and no frontier draw or walk reads them.  A shard replica has none: it
    adopts a writer's tables (:meth:`adopt_frontier_state`) over a graph
    copied from the writer's columns, and never derives a slice itself.

    Beside the subclass's stores the tables hold one more, declared here:
    :data:`ADJACENCY_SCHEMA`, each vertex's out-neighbour ids sorted
    ascending, which the compiled node2vec walk binary-searches for the
    distance-1 test.  It is derived from the graph rows of all repaired
    vertices at once (:func:`adjacency_rows`) and rides the same cold
    build, dirty repair, compaction and state/patch codec as the draw
    tables.

    Frontier draws run in the compiled kernel (:mod:`repro.engines.compiled`)
    when it loads, else in the subclass's NumPy kernel
    (:meth:`_sample_frontier_numpy`); both consume the generator identically
    and produce the same draws.  A subclass names its kernel routine in
    :attr:`kernel_kind` and the views it reads in :attr:`kernel_fields`.
    """

    #: Store name -> column name -> dtype of the fused tables.
    frontier_schemas: dict[str, dict[str, type]] = {}

    #: The compiled kernel's draw routine (``compiled.KIND_*``).
    kernel_kind: int = -1

    #: The views the compiled routine reads, in its table order: the
    #: primary store's ``<store>_offset`` and ``<store>_length`` first.
    kernel_fields: tuple[str, ...] = ()

    def __init__(self, *, rng: RandomSource = None) -> None:
        super().__init__(rng=rng)
        self._samplers: dict = {}
        self.frontier_tables = FusedTables(
            {**self.frontier_schemas, **ADJACENCY_SCHEMA},
            self._frontier_rows,
            self.num_vertices,
        )
        #: ``(views, packed draw tables, packed adjacency)``: views are
        #: rebuilt after every repair, so packing once per views dict keeps
        #: the addresses valid.
        self._packed: tuple[dict, np.ndarray, np.ndarray] | None = None

    def _clone_state(self, twin: RandomWalkEngine) -> None:
        twin._samplers = {
            vertex: self._clone_sampler(sampler, twin)
            for vertex, sampler in self._samplers.items()
        }
        twin.frontier_tables = self.frontier_tables.clone(
            twin._frontier_rows, twin.num_vertices
        )
        twin._packed = None

    def _clone_sampler(self, sampler, twin: RandomWalkEngine):
        """``sampler``'s copy for ``twin``."""
        return sampler.clone()

    def _frontier_rows(self, vertices: np.ndarray) -> dict[str, SliceRows]:
        """``vertices``' slices of every store, back to back.

        Each :attr:`frontier_schemas` store comes from
        :meth:`_frontier_parts`, one vertex at a time; the adjacency store
        from one gather of the graph rows.
        """
        parts = [self._frontier_parts(vertex) for vertex in vertices.tolist()]
        rows = {
            name: stack_slices(schema, [None if p is None else p[name] for p in parts])
            for name, schema in self.frontier_schemas.items()
        }
        lengths, targets, _ = self._require_graph().gather_rows(vertices)
        rows["adjacency"] = adjacency_rows(lengths, targets)
        return rows

    def _frontier_parts(self, vertex: int) -> SliceParts | None:
        """``vertex``'s slice of each :attr:`frontier_schemas` store (``None``
        without out-edges); unused when :meth:`_frontier_rows` is overridden."""
        raise NotImplementedError(f"{self.name} derives its slices in _frontier_rows")

    def check_adjacency_store(self) -> None:
        """Verify every adjacency slice is the vertex's sorted graph row.

        The test hook behind :meth:`check_consistency`; it also holds on a
        shard replica, whose tables are the writer's.
        """
        graph = self._require_graph()
        views = self.frontier_tables.views()
        offsets, lengths = views["adjacency_offset"], views["adjacency_length"]
        neighbors = views["neighbors"]
        for vertex in range(graph.num_vertices):
            start = int(offsets[vertex])
            actual = neighbors[start : start + int(lengths[vertex])]
            if not np.array_equal(actual, np.sort(graph.neighbor_array(vertex))):
                raise UpdateError(
                    f"vertex {vertex} adjacency slice disagrees with the graph"
                )

    def check_consistency(self) -> None:
        """Verify the fused tables against the graph (test hook)."""
        self.check_adjacency_store()

    # ------------------------------------------------------------------ #
    # frontier kernels
    # ------------------------------------------------------------------ #
    @property
    def frontier_kernel(self) -> str:
        return compiled.kernel_name()

    def _compiled_tables(
        self,
    ) -> tuple[compiled.FrontierKernel, np.ndarray, np.ndarray] | None:
        """The loaded kernel and the packed draw-table and adjacency
        addresses, or ``None``."""
        kernel = compiled.load()
        if kernel is None:
            return None
        views = self.frontier_tables.views()
        packed = self._packed
        if packed is None or packed[0] is not views:
            limit = min(
                len(views[name + "_length"]) for name in self.frontier_tables.stores
            )
            packed = (
                views,
                compiled.pack_tables(views, self.kernel_fields, limit),
                compiled.pack_tables(views, compiled.ADJACENCY_FIELDS, limit),
            )
            self._packed = packed
        return kernel, packed[1], packed[2]

    def _sample_frontier(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        loaded = self._compiled_tables()
        if loaded is None:
            return self._sample_frontier_numpy(vertices, rng)
        kernel, tables, _ = loaded
        draws, picks = kernel.step(tables, self.kernel_kind, rng, vertices)
        if len(picks):
            self._resolve_decimal_picks(vertices, draws, picks, rng)
        return draws

    @abc.abstractmethod
    def _sample_frontier_numpy(
        self, vertices: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The NumPy frontier kernel: the reference the compiled one matches."""

    def _resolve_decimal_picks(
        self,
        vertices: np.ndarray,
        draws: np.ndarray,
        picks: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Fill ``draws[picks]`` the kernel left to a rejection sampler.

        Only Bingo's kernel leaves picks (its decimal group).
        """
        raise NotImplementedError(f"{self.name} kernels leave no picks")

    def compiled_walk(
        self,
        frontier,
        *,
        termination_probability: float = 0.0,
        node2vec: tuple[float, float] | None = None,
    ) -> bool:
        """Run ``frontier``'s whole DeepWalk, PPR or node2vec walk in the compiled kernel.

        ``termination_probability`` 0 is DeepWalk; otherwise each step
        first flips the PPR termination coins.  ``node2vec=(p, q)`` runs
        :func:`~repro.walks.frontier.run_frontier_node2vec`'s rejection
        rounds instead, with the distance-1 test read from the adjacency
        store.  The kernel makes the generator calls the Python drivers
        make, in the same order, and leaves ``frontier`` (matrix, alive
        walkers, ``steps_taken``) and :attr:`samples_drawn` as they leave
        them.  A draw that picks Bingo decimal-group entries pauses the
        kernel; they are resolved here, in the NumPy kernel's vertex order,
        before the draw is used.  A node2vec step that exhausts
        ``frontier.max_rejection_rounds`` raises :class:`SamplerStateError`
        after the same draws as the Python driver.  Returns ``False``,
        having drawn nothing, when the kernel is unavailable.
        """
        if self._compiled_tables() is None:
            return False
        start = time.perf_counter()
        size = frontier.alive_count()
        walkers = np.array(frontier.alive_walkers(), dtype=np.int64)
        vertices = np.array(frontier.alive_vertices(), dtype=np.int64)
        draws = np.empty(size, dtype=np.int64)
        picks = np.empty(size, dtype=np.int64)
        state = np.zeros(compiled.STATE_SLOTS, dtype=np.int64)
        state[compiled.S_ALIVE] = size
        state[compiled.S_STEPS] = frontier.steps_taken
        state[compiled.S_MAX] = frontier.walk_length
        params = np.zeros(4, dtype=np.float64)
        params[0] = termination_probability
        buffers: list[np.ndarray] = []
        if node2vec is not None:
            p, q = node2vec
            # The same float expressions as walks.frontier._node2vec_step.
            params[1:] = (1.0 / p, 1.0 / q, max(1.0 / p, 1.0, 1.0 / q))
            state[compiled.S_ROUND_LIMIT] = frontier.max_rejection_rounds
            # previous, pending, resolved, query
            buffers = [np.empty(size, dtype=np.int64) for _ in range(4)]
        rng = frontier.rng
        try:
            while True:
                kernel, tables, adjacency = self._compiled_tables()
                state[compiled.S_COLUMNS] = frontier.matrix.shape[1]
                code = kernel.walk(
                    tables,
                    self.kernel_kind,
                    rng,
                    state,
                    (frontier.matrix, walkers, vertices, draws, picks),
                    params,
                    (adjacency, *buffers) if buffers else None,
                )
                if code == compiled.WALK_DONE:
                    break
                if code == compiled.WALK_DECIMAL:
                    found = int(state[compiled.S_PICKS])
                    if state[compiled.S_PHASE] == compiled.PHASE_ROUND:
                        drawn_for = buffers[3][: int(state[compiled.S_WAITING])]
                    else:
                        drawn_for = vertices[: int(state[compiled.S_ALIVE])]
                    self._resolve_decimal_picks(drawn_for, draws, picks[:found], rng)
                elif code == compiled.WALK_GROW:
                    frontier.ensure_columns(int(state[compiled.S_STEPS]) + 2)
                else:
                    raise SamplerStateError(
                        "node2vec frontier rejection failed to accept; check p/q values"
                    )
        finally:
            self.samples_drawn += int(state[compiled.S_SAMPLES])
            self.breakdown.add(PHASE_SAMPLING, time.perf_counter() - start)
        alive = int(state[compiled.S_ALIVE])
        frontier.resume(walkers[:alive], vertices[:alive], int(state[compiled.S_STEPS]))
        return True

    def warm_frontier_tables(self) -> FrontierDelta:
        """Repair the fused tables now; reports the slices it re-derived."""
        return self.frontier_tables.warm()

    # ------------------------------------------------------------------ #
    # cross-process frontier state (the shard-router transport)
    # ------------------------------------------------------------------ #
    def export_frontier_state(self) -> dict[str, np.ndarray]:
        """The fused tables' full state as plain arrays (shard boot payload)."""
        return self.frontier_tables.export_state()

    def adopt_frontier_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace the fused tables with a writer's exported snapshot.

        This is how a shard replica gets its tables: it builds no sampling
        state and walks the adopted tables alone; later flips arrive as
        :meth:`apply_frontier_patch` slices.
        """
        self.frontier_tables.adopt_state(state)

    def export_frontier_patch(self, vertices) -> dict[str, np.ndarray]:
        """The touched vertices' slices (self-contained, layout-free)."""
        return self.frontier_tables.export_patch(vertices)

    def apply_frontier_patch(self, payload: dict[str, np.ndarray]) -> None:
        """Apply a writer's patch; untouched slices stay untouched."""
        self.frontier_tables.apply_patch(payload)
