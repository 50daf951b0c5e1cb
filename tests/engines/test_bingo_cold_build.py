"""Bingo's whole-array cold build against the per-vertex oracle, and clones.

The whole-array build (:class:`~repro.core.vertex_sampler.RadixLayout`
plus staged fused stores) must leave exactly the state the per-vertex
``insert_many`` build leaves: sampler ids, group kinds / members / slots /
creation order, decimal fractions and totals, inter-group alias,
conversion-tracker counts, the engine generator's state and the exported
fused tables, layout included.  An engine clone must stay equal to its
source: same walks for every application, and again after one more
identical batch on both.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engines.bingo import BingoEngine
from repro.engines.registry import create_engine, engine_names
from repro.graph.bias import add_fractional_noise
from repro.graph.generators import erdos_renyi_graph, power_law_graph, rmat_graph
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.utils.timing import gc_paused
from repro.walks.frontier import (
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)
from tests.engines.bingo_oracle import (
    assert_same_fused_state,
    bingo_state,
    fused_state,
    per_vertex_build,
)

#: Whole-array build + warm must beat the per-vertex build + warm by this
#: factor (``process_time``, best of three each, collector paused) on the
#: TW-sized R-MAT graph.  Measured 3.8-7.9x on a 2-CPU container.
BUILD_SPEEDUP_BOUND = 3.0


@pytest.fixture(scope="module")
def tw_graph():
    """The TW stand-in's shape: R-MAT, 4,096 vertices, 40,960 edges."""
    return rmat_graph(12, 10, rng=3)


def _fractional_graph():
    graph = erdos_renyi_graph(300, 3000, rng=4)
    edges = list(graph.edges())
    noisy = add_fractional_noise([edge.bias for edge in edges], rng=8)
    for edge, bias in zip(edges, noisy):
        graph.update_bias(edge.src, edge.dst, bias)
    return graph


def _assert_builds_match(graph, **engine_kwargs):
    oracle = per_vertex_build(graph.copy(), **engine_kwargs)
    engine = BingoEngine(**engine_kwargs)
    engine.build(graph.copy())
    assert bingo_state(engine) == bingo_state(oracle)
    assert_same_fused_state(fused_state(engine), fused_state(oracle))
    return engine


class TestWholeArrayBuildMatchesPerVertexOracle:
    def test_tw_sized_rmat_with_integer_biases(self, tw_graph):
        engine = _assert_builds_match(tw_graph, rng=5)
        assert engine.lam == 1.0

    def test_fractional_biases_with_automatic_lambda_and_decimal_groups(self):
        engine = _assert_builds_match(_fractional_graph(), rng=11)
        assert engine.lam > 1.0
        assert sum(s.decimal_group_size() for s in engine._samplers.values()) > 0

    def test_baseline_groups_without_adaption(self):
        graph = power_law_graph(300, 4, rng=2)
        engine = _assert_builds_match(graph, rng=6, adaptive_groups=False)
        assert engine.group_kind_ratios() == {"regular": 1.0}

    def test_undirected_graph(self):
        graph = erdos_renyi_graph(200, 900, rng=5, undirected=True)
        _assert_builds_match(graph, rng=12)

    def test_explicit_lambda_and_empty_graph(self):
        _assert_builds_match(_fractional_graph(), rng=13, lam=1000.0)
        _assert_builds_match(erdos_renyi_graph(5, 0, rng=1), rng=1)

    def test_first_warm_is_a_full_rebuild_over_staged_slices(self):
        graph = power_law_graph(80, 3, rng=9)
        engine = BingoEngine(rng=2)
        engine.build(graph)
        delta = engine.warm_frontier_tables()
        assert delta.full_rebuild and delta.vertices == graph.num_vertices
        assert engine.frontier_tables.full_builds == 1
        engine.check_consistency()

    def test_updates_before_the_first_warm_are_repaired_over_the_stage(self):
        graph = power_law_graph(80, 3, rng=9)
        stream = generate_update_stream(
            graph, batch_size=40, num_batches=2, workload=UpdateWorkload.MIXED, rng=4
        )
        staged = BingoEngine(rng=2)
        staged.build(stream.initial_graph.copy())
        oracle = per_vertex_build(stream.initial_graph.copy(), rng=2)
        for batch in stream.batches:
            staged.apply_batch(batch)
            oracle.apply_batch(batch)
        staged.check_consistency()
        starts = list(range(graph.num_vertices))
        for seed in range(3):
            assert np.array_equal(
                _walks(staged, "node2vec", starts, seed),
                _walks(oracle, "node2vec", starts, seed),
            )


def test_whole_array_build_beats_the_per_vertex_oracle(tw_graph):
    def best(build):
        timings = []
        for _ in range(3):
            graph = tw_graph.copy()
            with gc_paused():
                start = time.process_time()
                engine = build(graph)
                engine.warm_frontier_tables()
                timings.append(time.process_time() - start)
        return min(timings)

    def whole_array(graph):
        engine = BingoEngine(rng=5)
        engine.build(graph)
        return engine

    oracle = best(lambda graph: per_vertex_build(graph, rng=5))
    fast = best(whole_array)
    assert oracle >= BUILD_SPEEDUP_BOUND * fast, (oracle, fast)


# --------------------------------------------------------------------- #
# clones
# --------------------------------------------------------------------- #
def _walks(engine, application, starts, seed):
    rng = np.random.default_rng(seed)
    if application == "deepwalk":
        walks = run_frontier_deepwalk(engine, starts, 10, rng=rng)
    elif application == "ppr":
        walks = run_frontier_ppr(
            engine, starts, termination_probability=0.15, max_steps=24, rng=rng
        )
    else:
        walks = run_frontier_node2vec(engine, starts, 8, p=0.5, q=2.0, rng=rng)
    return walks.matrix.copy()


def _digests(engine, starts, seed):
    return {
        application: _walks(engine, application, starts, seed).tobytes()
        for application in ("deepwalk", "ppr", "node2vec")
    }


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("engine_name", engine_names())
def test_clone_stays_equal_to_its_source_after_churn(engine_name, warm):
    graph = power_law_graph(150, 4, rng=21)
    stream = generate_update_stream(
        graph, batch_size=60, num_batches=4, workload=UpdateWorkload.MIXED, rng=22
    )
    source = create_engine(engine_name, rng=23)
    source.build(stream.initial_graph.copy())
    for batch in stream.batches[:-1]:
        source.apply_batch(batch)
    if warm and hasattr(source, "warm_frontier_tables"):
        # Clean tables are copied store by store; the cold case shares
        # the staged build (Bingo) or rebuilds from the twin's samplers.
        source.warm_frontier_tables()
    twin = source.clone()
    assert twin.graph is not source.graph
    starts = list(range(graph.num_vertices))
    assert _digests(twin, starts, seed=31) == _digests(source, starts, seed=31)
    # The same batch on both keeps them equal: nothing is shared.
    for engine in (source, twin):
        engine.apply_batch(stream.batches[-1])
    assert _digests(twin, starts, seed=32) == _digests(source, starts, seed=32)
    if hasattr(source, "check_consistency"):
        twin.check_consistency()
    if engine_name == "bingo":
        assert bingo_state(twin) == bingo_state(source)
        assert_same_fused_state(fused_state(twin), fused_state(source))


def test_clone_of_a_staged_engine_shares_the_stage_and_its_repairs():
    graph = power_law_graph(80, 3, rng=9)
    stream = generate_update_stream(
        graph, batch_size=30, num_batches=1, workload=UpdateWorkload.MIXED, rng=6
    )
    source = BingoEngine(rng=2)
    source.build(stream.initial_graph.copy())
    source.apply_batch(stream.batches[0])
    twin = source.clone()
    assert twin.frontier_tables._staged is source.frontier_tables._staged
    assert_same_fused_state(fused_state(twin), fused_state(source))


def test_clone_draws_scalar_samples_like_its_source():
    graph = power_law_graph(60, 3, rng=3)
    source = BingoEngine(rng=4)
    source.build(graph)
    for vertex in range(10):
        source.sample_neighbor(vertex)
    twin = source.clone()
    for vertex in range(graph.num_vertices):
        assert twin.sample_neighbor(vertex) == source.sample_neighbor(vertex)
