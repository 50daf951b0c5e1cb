"""Per-vertex Bingo oracles for the whole-array build, the warm and the reports.

``SamplerOracle`` keeps one :class:`BingoVertexSampler` per vertex beside
its own copy of the graph, and maintains them the way the engine did
before its state became the graph plus the fused tables: a cold build of
``insert_many`` calls and one batched rebuild, then ``delete_many`` /
``insert_many`` and one batched rebuild per batch, or one insert / delete
plus a rebuild per streaming update.  Its per-vertex sums (memory model,
group kinds, Table 4's conversion tracker) and its per-vertex gathers of
the fused slices (``frontier_parts``) are the references the engine's
whole-array derivations are pinned against.

``per_vertex_build`` is the cold build as it ran before it became a set
of whole-array passes: λ from a per-edge loop over ``graph.edges()``, the
oracle's samplers, and the fused slices gathered from them one vertex at a
time and staged for the first warm.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.adaptive import ConversionTracker, GroupClassifier, GroupKind
from repro.core.memory_model import MemoryReport, group_memory_bytes
from repro.core.radix import MAX_AMORTIZATION_EXPONENT, split_scaled_bias
from repro.core.vertex_sampler import (
    DECIMAL_GROUP_KEY,
    BingoVertexSampler,
    rebuild_samplers_batch,
)
from repro.engines.bingo import BingoEngine
from repro.engines.sliced_tables import stack_slices
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import UpdateKind
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_bias
from tests.engines.scalar_batch_oracle import normalize_vertex_updates


def per_edge_amortization_factor(biases) -> float:
    """λ the way the per-edge loop picked it (``choose_amortization_factor``)."""
    cleaned = [check_bias(b) for b in biases]
    if not cleaned:
        return 1.0
    degree = len(cleaned)
    for exponent in range(MAX_AMORTIZATION_EXPONENT + 1):
        lam = 10.0**exponent
        integer_weight = 0.0
        decimal_weight = 0.0
        for bias in cleaned:
            integer_part, fraction = split_scaled_bias(bias, lam)
            integer_weight += integer_part
            decimal_weight += fraction
        total = integer_weight + decimal_weight
        if total <= 0:
            continue
        if decimal_weight == 0.0 or decimal_weight / total < 1.0 / degree:
            return lam
    return 10.0**MAX_AMORTIZATION_EXPONENT


class SamplerOracle:
    """Per-vertex samplers over a private copy of ``graph`` (see the module doc).

    ``tracker`` counts the group conversions of every rebuild after the
    cold build, the counts Table 4 reports.
    """

    def __init__(self, graph, *, lam: float, classifier: GroupClassifier, seed: int = 0):
        self.graph = graph.copy()
        self.lam = lam
        self.classifier = classifier
        self._rng = random.Random(seed)
        self.tracker = ConversionTracker()
        self.samplers: dict[int, BingoVertexSampler] = {}
        for vertex in range(self.graph.num_vertices):
            if self.graph.degree(vertex):
                sampler = self._new_sampler(vertex)
                sampler.insert_many(
                    self.graph.neighbor_array(vertex), self.graph.bias_array(vertex)
                )
        rebuild_samplers_batch(list(self.samplers.values()))
        self.tracker.transitions.clear()
        self.tracker.observations = 0

    @classmethod
    def of(cls, engine: BingoEngine) -> SamplerOracle:
        """An oracle over ``engine``'s graph, λ and group classifier."""
        return cls(engine.graph, lam=engine.lam, classifier=engine.classifier)

    def _new_sampler(self, vertex: int) -> BingoVertexSampler:
        sampler = BingoVertexSampler(
            rng=spawn_rng(self._rng, vertex),
            lam=self.lam,
            classifier=self.classifier,
            conversion_tracker=self.tracker,
            auto_rebuild=False,
        )
        self.samplers[vertex] = sampler
        return sampler

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def apply_batch(self, updates) -> None:
        """Section 5.2 per vertex: normalize, delete, insert, one batched rebuild."""
        graph = self.graph
        batch = UpdateBatch.coerce(updates)
        if graph.undirected:
            self.apply_streaming(batch)
            return
        highest = batch.max_vertex()
        if highest >= 0:
            graph.ensure_vertices(highest)
        grouped: dict[int, list] = {}
        for update in batch:
            grouped.setdefault(update.src, []).append(update)
        plans = []
        for vertex, vertex_updates in grouped.items():
            existing = {
                update.dst for update in vertex_updates if graph.has_edge(vertex, update.dst)
            }
            insertions, deletions, _ = normalize_vertex_updates(vertex_updates, existing)
            plans.append(
                (
                    vertex,
                    np.asarray(deletions, dtype=np.int64),
                    np.asarray([dst for dst, _ in insertions], dtype=np.int64),
                    np.asarray([bias for _, bias in insertions], dtype=np.float64),
                )
            )
        for vertex, deletions, _, _ in plans:
            if len(deletions):
                graph.remove_edges_bulk(vertex, deletions)
                self.samplers[vertex].delete_many(deletions.tolist())
        for vertex, _, insert_dsts, insert_biases in plans:
            if len(insert_dsts):
                graph.add_edges_bulk(vertex, insert_dsts, insert_biases)
                # An emptied sampler is reused: its groups keep their kinds.
                sampler = self.samplers.get(vertex)
                if sampler is None:
                    sampler = self._new_sampler(vertex)
                sampler.insert_many(insert_dsts, insert_biases)
        rebuilt = []
        for vertex, _, _, _ in plans:
            sampler = self.samplers.get(vertex)
            if sampler is None:
                continue
            if len(sampler):
                rebuilt.append(sampler)
            else:
                del self.samplers[vertex]
        rebuild_samplers_batch(rebuilt)

    def apply_streaming(self, updates) -> None:
        """One update at a time, each sampler rebuilt after its own change."""
        graph = self.graph
        for update in updates:
            graph.ensure_vertex(update.src)
            graph.ensure_vertex(update.dst)
            arcs = [(update.src, update.dst)]
            if graph.undirected and update.src != update.dst:
                arcs.append((update.dst, update.src))
            if update.kind is UpdateKind.INSERT:
                graph.add_edge(update.src, update.dst, update.bias)
            else:
                graph.remove_edge(update.src, update.dst)
            for src, dst in arcs:
                if update.kind is UpdateKind.INSERT:
                    sampler = self.samplers.get(src)
                    if sampler is None:
                        sampler = self._new_sampler(src)
                    sampler.insert(dst, update.bias)
                    sampler.rebuild()
                    continue
                sampler = self.samplers[src]
                sampler.delete(dst)
                if len(sampler):
                    sampler.rebuild()
                else:
                    del self.samplers[src]

    # ------------------------------------------------------------------ #
    # per-vertex sums
    # ------------------------------------------------------------------ #
    def memory_report(self) -> MemoryReport:
        """The engine's report as a sum over per-vertex sampler reports."""
        report = MemoryReport()
        graph = self.graph
        report.add("graph", graph.num_arcs * (4 + 8) + graph.num_vertices * 8)
        for sampler in self.samplers.values():
            report.merge(sampler.memory_report())
        return report

    def group_kind_ratios(self) -> dict[str, float]:
        counts: dict[str, int] = {}
        for sampler in self.samplers.values():
            for kind in sampler.group_kinds().values():
                counts[kind.value] = counts.get(kind.value, 0) + 1
        total = sum(counts.values())
        return {kind: count / total for kind, count in counts.items()}

    def per_kind_bytes(self, kind: GroupKind) -> tuple[int, int]:
        """Figure 11's ``(ga_bytes, bs_bytes)`` for the groups of ``kind``."""
        ga_bytes = bs_bytes = 0
        for sampler in self.samplers.values():
            kinds = sampler.group_kinds()
            for position, size in sampler.group_sizes().items():
                if kinds[position] is kind:
                    ga_bytes += group_memory_bytes(kind, size, len(sampler))
                    bs_bytes += group_memory_bytes(GroupKind.REGULAR, size, len(sampler))
        return ga_bytes, bs_bytes

    def frontier_rows(self, vertices: np.ndarray) -> dict:
        """``vertices``' draw slices, one :func:`frontier_parts` per vertex."""
        parts = [frontier_parts(self.samplers.get(v)) for v in vertices.tolist()]
        return {
            name: stack_slices(schema, [None if p is None else p[name] for p in parts])
            for name, schema in BingoEngine.frontier_schemas.items()
        }


def per_vertex_build(graph, **engine_kwargs) -> BingoEngine:
    """A Bingo engine over ``graph`` whose tables are gathered one vertex
    at a time from a :class:`SamplerOracle`."""
    engine = BingoEngine(**engine_kwargs)
    engine.graph = graph
    if engine._requested_lam is None:
        biases = [edge.bias for edge in graph.edges()]
        engine.lam = per_edge_amortization_factor(biases) if biases else 1.0
    oracle = SamplerOracle.of(engine)
    vertices = np.array(sorted(oracle.samplers), dtype=np.int64)
    staged = {
        name: (vertices, lengths, columns)
        for name, (lengths, columns) in oracle.frontier_rows(vertices).items()
    }
    sources = [v for v in range(graph.num_vertices) if graph.degree(v)]
    rows = [np.sort(graph.neighbor_array(v)) for v in sources]
    staged["adjacency"] = (
        np.array(sources, dtype=np.int64),
        np.array([len(row) for row in rows], dtype=np.int64),
        {"neighbors": np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)},
    )
    engine.frontier_tables.stage(staged)
    return engine


def frontier_parts(sampler) -> dict | None:
    """One vertex's ``inter``, ``flat`` and ``decimal`` slices, gathered
    from its sampler.

    The inter slice is the sampler's inter-group alias table; each of its
    entries points at a group's members inside the vertex's own flat
    slice (``entry_offset`` / ``entry_size``), in the group's own member
    order.  Entries landing in a decimal group are flagged.  The decimal
    slice lists the decimal group's neighbours by neighbour index.
    ``None`` for a vertex without a sampler or neighbours.
    """
    if sampler is None or len(sampler) == 0:
        return None
    if sampler._inter_dirty:
        sampler.rebuild()
    ids, lut, flat, offsets, sizes = sampler._batch_cache()
    group_ids, prob, alias = sampler._inter_group.numpy_tables()
    slots = lut[group_ids + 1]
    decimal = sorted(sampler._decimal.fractions.items())
    return {
        "inter": {
            "prob": prob,
            "alias": alias,
            "entry_offset": offsets[slots],
            "entry_size": sizes[slots],
            "entry_decimal": group_ids == DECIMAL_GROUP_KEY,
        },
        "flat": {"members": ids[flat]},
        "decimal": {
            "decimal_ids": np.array(
                [sampler._ids[index] for index, _ in decimal], dtype=np.int64
            ),
            "decimal_fractions": np.array(
                [fraction for _, fraction in decimal], dtype=np.float64
            ),
        },
    }


def bingo_state(engine: BingoEngine) -> tuple:
    """Everything a Bingo engine keeps beside its graph and fused tables:
    λ, the group classifier, the batch counters and the generators."""
    return (
        engine.lam,
        engine.classifier,
        engine.batch_stats,
        engine._rng.getstate(),
        None if engine._draw_rng is None else engine._draw_rng.bit_generator.state,
    )


def fused_state(engine) -> dict[str, np.ndarray]:
    """The exported fused tables (layout included), warming them first."""
    engine.warm_frontier_tables()
    return engine.export_frontier_state()


def assert_same_fused_state(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key
