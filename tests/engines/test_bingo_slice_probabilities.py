"""Bingo's fused slices imply every edge's exact sampler probability.

The fused ``inter`` / ``flat`` slices are derived from the graph rows, so
after deletions a group's member order may differ from the sampler's;
walks may differ bitwise from a per-vertex gather, but never in
distribution.  This suite pins that contract without Monte Carlo noise:
after mixed churn (fractional biases in decimal groups, dense groups,
adaptive groups on and off, a vertex deleted down to zero edges and
reinserted, batched and streaming ingest), the probability each vertex's
slices give every neighbour — the alias ``prob`` / ``alias`` columns, then
``1 / entry_size`` per member, then each neighbour's share of the
``decimal`` store's fractions for a decimal entry — equals
``sampler.structure_probability`` within 1e-12.  The per-vertex oracle
gather, with the sampler's decimal group, must imply the same
probabilities.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engines.bingo import BingoEngine
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.update_batch import GraphUpdate, UpdateKind
from tests.engines.bingo_oracle import frontier_parts

NUM_VERTICES = 8

#: Odd integers keep bit 0 set on most edges (dense groups under
#: adaption); the fractional ones land in the decimal group at λ = 1.
BIASES = st.sampled_from([1.0, 3.0, 7.0, 1.0, 5.0, 2.0, 12.0, 2.5, 0.25, 1.75, 9.125])


def implied_probabilities(
    inter: dict, members: np.ndarray, decimal: dict[int, float]
) -> dict[int, float]:
    """Neighbour id -> probability of one vertex's inter and flat slices,
    with ``decimal`` (neighbour id -> fraction) as its decimal group."""
    prob, alias = inter["prob"], inter["alias"]
    length = len(prob)
    entry = np.zeros(length)
    np.add.at(entry, np.arange(length), prob / length)
    np.add.at(entry, alias, (1.0 - prob) / length)
    implied: dict[int, float] = defaultdict(float)
    for slot in range(length):
        if inter["entry_decimal"][slot]:
            weight = sum(decimal.values())
            for neighbour, fraction in decimal.items():
                implied[neighbour] += entry[slot] * fraction / weight
            continue
        start = int(inter["entry_offset"][slot])
        size = int(inter["entry_size"][slot])
        for member in members[start : start + size].tolist():
            implied[member] += entry[slot] / size
    return dict(implied)


def assert_slices_imply_sampler_probabilities(engine: BingoEngine) -> None:
    engine.check_consistency()
    views = engine.frontier_tables.views()
    graph = engine.graph
    for vertex in range(graph.num_vertices):
        start = int(views["inter_offset"][vertex])
        length = int(views["inter_length"][vertex])
        neighbours = graph.neighbors(vertex)
        if not neighbours:
            assert length == 0 and views["flat_length"][vertex] == 0
            continue
        sampler = engine.sampler_for(vertex)
        flat = int(views["flat_offset"][vertex])
        inter = {
            column: views[column][start : start + length]
            for column in engine.frontier_schemas["inter"]
        }
        members = views["members"][flat : flat + int(views["flat_length"][vertex])]
        start = int(views["decimal_offset"][vertex])
        stop = start + int(views["decimal_length"][vertex])
        decimal = dict(
            zip(
                views["decimal_ids"][start:stop].tolist(),
                views["decimal_fractions"][start:stop].tolist(),
            )
        )
        oracle = frontier_parts(sampler)
        sampler_decimal = {
            sampler._ids[index]: fraction
            for index, fraction in sampler._decimal.fractions.items()
        }
        for implied in (
            implied_probabilities(inter, members, decimal),
            implied_probabilities(
                oracle["inter"], oracle["flat"]["members"], sampler_decimal
            ),
        ):
            assert sorted(implied) == sorted(neighbours), vertex
            for neighbour in neighbours:
                want = sampler.structure_probability(neighbour)
                assert abs(implied[neighbour] - want) <= 1e-12, (vertex, neighbour)


def _draw_batch(data, edges: dict) -> list[GraphUpdate]:
    """A valid mixed batch: each update deletes a live edge or inserts a new one."""
    updates = []
    for position in range(data.draw(st.integers(1, 24))):
        if edges and data.draw(st.booleans()):
            src, dst = data.draw(st.sampled_from(sorted(edges)))
            del edges[(src, dst)]
            updates.append(GraphUpdate(UpdateKind.DELETE, src, dst, 1.0, position))
            continue
        src = data.draw(st.integers(0, NUM_VERTICES - 1))
        dst = data.draw(st.integers(0, NUM_VERTICES - 1))
        if (src, dst) in edges:
            continue
        edges[(src, dst)] = bias = data.draw(BIASES)
        updates.append(GraphUpdate(UpdateKind.INSERT, src, dst, bias, position))
    return updates


def _ingest(engine: BingoEngine, updates: list[GraphUpdate], streaming: bool) -> None:
    if streaming:
        engine.apply_streaming(updates)
    else:
        engine.apply_batch(updates)
    engine.warm_frontier_tables()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), adaptive=st.booleans())
def test_slices_imply_the_sampler_probability_through_churn(data, adaptive):
    graph = DynamicGraph(NUM_VERTICES)
    edges = {}
    for src in range(NUM_VERTICES):
        for dst in data.draw(st.sets(st.integers(0, NUM_VERTICES - 1), max_size=6)):
            edges[(src, dst)] = bias = data.draw(BIASES)
            graph.add_edge(src, dst, bias)
    engine = BingoEngine(rng=1, lam=1.0, adaptive_groups=adaptive)
    engine.build(graph)
    engine.warm_frontier_tables()
    assert_slices_imply_sampler_probabilities(engine)
    for _ in range(data.draw(st.integers(1, 4))):
        _ingest(engine, _draw_batch(data, edges), data.draw(st.booleans()))
        assert_slices_imply_sampler_probabilities(engine)

    # Vertex 0 loses every edge, then gets new ones.
    gone = [
        GraphUpdate(UpdateKind.DELETE, 0, dst, 1.0, position)
        for position, dst in enumerate(sorted(dst for src, dst in edges if src == 0))
    ]
    if gone:
        _ingest(engine, gone, data.draw(st.booleans()))
        assert_slices_imply_sampler_probabilities(engine)
    back = [
        GraphUpdate(UpdateKind.INSERT, 0, dst, data.draw(BIASES), position)
        for position, dst in enumerate(range(1, 6))
    ]
    _ingest(engine, back, data.draw(st.booleans()))
    assert_slices_imply_sampler_probabilities(engine)
