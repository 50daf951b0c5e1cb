"""Cross-engine equivalence: every engine must expose the same graph semantics.

The Table 3 comparison is only meaningful if all four engines answer the same
queries on the same snapshots.  These property-based tests push random update
streams through every engine and check that the final adjacency, the set of
sampleable neighbours, and the sampling distributions agree.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines.registry import ENGINE_REGISTRY
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.update_batch import GraphUpdate, UpdateKind
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from tests.conftest import total_variation
from tests.engines.scalar_batch_oracle import apply_batch_scalar

ALL_ENGINES = tuple(ENGINE_REGISTRY)


def _build_all_engines(graph):
    engines = {}
    for name, factory in ENGINE_REGISTRY.items():
        engine = factory(rng=17)
        engine.build(graph.copy())
        engines[name] = engine
    return engines


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    workload=st.sampled_from(["insertion", "deletion", "mixed"]),
)
@settings(max_examples=10, deadline=None)
def test_all_engines_agree_on_final_adjacency(seed, workload):
    graph = erdos_renyi_graph(40, 240, rng=seed)
    stream = generate_update_stream(
        graph, batch_size=40, num_batches=2, workload=workload, rng=seed + 1
    )
    engines = _build_all_engines(stream.initial_graph)
    for engine in engines.values():
        for batch in stream.batches:
            engine.apply_batch(batch)

    reference = stream.final_graph()
    for name, engine in engines.items():
        assert engine.graph.num_edges == reference.num_edges, name
        for edge in reference.edges():
            assert engine.has_edge(edge.src, edge.dst), name


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_all_engines_sample_only_live_neighbors(seed):
    graph = erdos_renyi_graph(30, 150, rng=seed)
    stream = generate_update_stream(
        graph, batch_size=30, num_batches=1, workload=UpdateWorkload.MIXED, rng=seed + 1
    )
    engines = _build_all_engines(stream.initial_graph)
    for engine in engines.values():
        for batch in stream.batches:
            engine.apply_batch(batch)
    reference = stream.final_graph()
    vertices_with_edges = [v for v in range(reference.num_vertices) if reference.degree(v) > 0]
    for name, engine in engines.items():
        for vertex in vertices_with_edges[:10]:
            live = set(reference.neighbors(vertex))
            for _ in range(20):
                assert engine.sample_neighbor(vertex) in live, name


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_engines_reproduce_identical_distribution_on_skewed_vertex(engine_name, example_graph):
    """All engines must converge to the exact first-order distribution."""
    engine = ENGINE_REGISTRY[engine_name](rng=23)
    engine.build(example_graph.copy())
    counts = {}
    draws = 25_000
    for _ in range(draws):
        neighbor = engine.sample_neighbor(2)
        counts[neighbor] = counts.get(neighbor, 0) + 1
    empirical = {k: v / draws for k, v in counts.items()}
    expected = {1: 5 / 12, 4: 4 / 12, 5: 3 / 12}
    assert total_variation(empirical, expected) < 0.02, engine_name


def _undirected_cycle(num_vertices: int = 6) -> DynamicGraph:
    graph = DynamicGraph(num_vertices, undirected=True)
    for vertex in range(num_vertices):
        graph.add_edge(vertex, (vertex + 1) % num_vertices, 1.0 + vertex)
    return graph


@pytest.mark.parametrize(
    "update",
    [GraphUpdate(UpdateKind.INSERT, 0, 3, 2.5), GraphUpdate(UpdateKind.DELETE, 0, 1)],
    ids=["insert", "delete"],
)
@pytest.mark.parametrize("path", ["batch", "streaming", "scalar"])
@pytest.mark.parametrize("engine_name", ["bingo", "knightking", "gsampler"])
def test_undirected_update_refreshes_both_endpoints(engine_name, path, update):
    """A mirrored insert or delete reaches the other endpoint's samplers and
    fused slices, not only the source's — on every ingest path, the per-edge
    oracle (``apply_batch_scalar``) included."""
    engine = ENGINE_REGISTRY[engine_name](rng=17)
    engine.build(_undirected_cycle())
    engine.frontier_tables.views()  # materialise, so the update must repair
    apply = {
        "batch": engine.apply_batch,
        "streaming": engine.apply_streaming,
        "scalar": partial(apply_batch_scalar, engine),
    }[path]
    apply([update])
    engine.check_consistency()
    assert engine.has_edge(update.dst, update.src) == (update.kind is UpdateKind.INSERT)
