"""Per-vertex Bingo oracles for the whole-array build and the whole-array warm.

``per_vertex_build`` is the cold build as it ran before it became a set of
whole-array passes: λ from a per-edge loop over ``graph.edges()``, then
one sampler per vertex fed by ``insert_many`` and one batched rebuild, then
the fused slices gathered from the samplers one vertex at a time
(``frontier_parts``, the derivation the whole-array warm replaced) and
staged for the first warm.
``bingo_state`` flattens everything either build leaves into plain values,
so the two compare with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.core.radix import MAX_AMORTIZATION_EXPONENT, split_scaled_bias
from repro.core.vertex_sampler import DECIMAL_GROUP_KEY, rebuild_samplers_batch
from repro.engines.bingo import BingoEngine
from repro.engines.sliced_tables import stack_slices
from repro.utils.validation import check_bias


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


def per_vertex_build(graph, **engine_kwargs) -> BingoEngine:
    """A Bingo engine over ``graph`` built one vertex at a time."""
    engine = BingoEngine(**engine_kwargs)
    engine.graph = graph
    if engine._requested_lam is None:
        biases = [edge.bias for edge in graph.edges()]
        engine.lam = per_edge_amortization_factor(biases) if biases else 1.0
    engine._samplers = {}
    for vertex in range(graph.num_vertices):
        if graph.degree(vertex) == 0:
            continue
        sampler = engine._new_sampler(vertex)
        sampler.insert_many(graph.neighbor_array(vertex), graph.bias_array(vertex))
        engine._samplers[vertex] = sampler
    rebuild_samplers_batch(list(engine._samplers.values()))
    vertices = np.array(sorted(engine._samplers), dtype=np.int64)
    staged = {
        name: (vertices, lengths, columns)
        for name, (lengths, columns) in frontier_rows(engine, vertices).items()
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


def frontier_rows(engine: BingoEngine, vertices: np.ndarray) -> dict:
    """``vertices``' draw slices, one :func:`frontier_parts` per vertex."""
    parts = [frontier_parts(engine._samplers.get(v)) for v in vertices.tolist()]
    return {
        name: stack_slices(schema, [None if p is None else p[name] for p in parts])
        for name, schema in engine.frontier_schemas.items()
    }


def sampler_state(sampler) -> tuple:
    """Every field of a Bingo vertex sampler, as plain values."""
    inter = sampler._inter_group
    return (
        sampler._ids,
        sampler._biases,
        sampler._integer_parts,
        sampler._fractions,
        list(sampler._index_of.items()),
        [
            (
                position,
                group.kind,
                group.members,
                list(group.slots.items()),
                group._count,
            )
            for position, group in sampler._groups.items()
        ],
        list(sampler._decimal.fractions.items()),
        sampler._decimal._total,
        (inter._ids, inter._biases, inter._prob, inter._alias, inter._dirty),
        inter.rebuild_count,
        inter._rng is sampler._rng and inter.counter is sampler.counter,
        sampler._inter_dirty,
        sampler.rebuild_count,
        sampler.lam,
        sampler.auto_rebuild,
        sampler.counter.snapshot(),
        sampler._rng.getstate(),
    )


def bingo_state(engine: BingoEngine) -> tuple:
    """The engine's sampler state, tracker, λ and generator, as plain values."""
    tracker = engine.conversion_tracker
    return (
        engine.lam,
        list(engine._samplers),
        [sampler_state(sampler) for sampler in engine._samplers.values()],
        all(
            sampler.conversion_tracker is tracker
            for sampler in engine._samplers.values()
        ),
        list(tracker.transitions.items()),
        tracker.observations,
        engine._rng.getstate(),
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
