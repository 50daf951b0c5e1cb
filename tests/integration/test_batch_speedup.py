"""Perf smoke tests: the batched walk frontier against the per-walker loop.

``run_deepwalk`` runs every walk through the batched frontier; the loop it
replaced (one ``sample_neighbor`` call per walker step) lives in
``tests/walks/scalar_walk_oracle.py`` as the reference these bars time it
against:

* Bingo on a 5k-vertex power-law graph with warm fused tables (the
  steady state: the paper's workflow reruns the application after every
  update batch, so the one-off table build amortizes away): >= 2x.
* Every engine on the LJ stand-in, one walker per vertex: > 0.8x on each
  engine and a geometric mean > 1.5x.
* The Figure 15a update-then-walk loop on LJ (ingest a batch, then one
  DeepWalk round with a walker per vertex): Bingo through the frontier
  beats gSampler through the frontier, and beats its own scalar loop by
  more than 1.3x.

Marked ``slow`` so they can be skipped with ``-m "not slow"``.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.bench.datasets import build_dataset
from repro.bench.workloads import sample_start_vertices
from repro.engines.bingo import BingoEngine
from repro.engines.registry import create_engine
from repro.graph.generators import power_law_graph
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.utils.rng import ensure_rng
from repro.utils.timing import gc_paused
from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk
from tests.walks.scalar_walk_oracle import scalar_deepwalk

NUM_VERTICES = 5_000
WALK_LENGTH = 12
ENGINES = ("bingo", "knightking", "gsampler", "flowwalker")


@pytest.mark.slow
def test_batched_frontier_beats_scalar_loop_by_2x():
    graph = power_law_graph(NUM_VERTICES, 3, rng=77)
    engine = BingoEngine(rng=9)
    engine.build(graph)
    starts = [v for v in range(graph.num_vertices) if graph.degree(v) > 0]
    config = DeepWalkConfig(walk_length=WALK_LENGTH)

    # Warm the fused frontier tables (one-off build, amortized in steady state).
    run_deepwalk(engine, config, starts=starts, rng=0)

    # Best-of-3 timings: a single measurement is at the mercy of the host
    # scheduler on small shared CI machines and flakes spuriously.  Each runs
    # with the collector paused, so a full collection of the test session's
    # heap cannot land inside one.
    scalar_seconds = float("inf")
    for _ in range(3):
        with gc_paused():
            scalar_start = time.perf_counter()
            scalar = scalar_deepwalk(engine, starts, WALK_LENGTH)
            scalar_seconds = min(scalar_seconds, time.perf_counter() - scalar_start)

    frontier_seconds = float("inf")
    for _ in range(3):
        with gc_paused():
            frontier_start = time.perf_counter()
            batched = run_deepwalk(engine, config, starts=starts, rng=1)
            frontier_seconds = min(frontier_seconds, time.perf_counter() - frontier_start)

    # Identical workload, both paths completed it.
    assert batched.num_walks == scalar.num_walks == len(starts)
    assert batched.total_steps == scalar.total_steps

    speedup = scalar_seconds / frontier_seconds
    assert speedup >= 2.0, (
        f"batched frontier only {speedup:.2f}x faster "
        f"({scalar_seconds * 1e3:.0f}ms scalar vs {frontier_seconds * 1e3:.0f}ms batched)"
    )


@pytest.mark.slow
def test_frontier_beats_scalar_loop_on_every_engine():
    seed = 61
    graph = build_dataset("LJ", rng=ensure_rng(seed))
    starts = sample_start_vertices(graph, graph.num_vertices, rng=seed + 1)
    config = DeepWalkConfig(walk_length=10)
    speedups: dict[str, float] = {}
    for engine_name in ENGINES:
        engine = create_engine(engine_name, rng=seed + 2)
        engine.build(graph.copy())
        # The two modes alternate round by round, so a burst of host load
        # lands on both sides of the ratio instead of on one mode alone.
        # The first frontier round pays the fused-table build, as the
        # paper's update-then-walk loop does once per batch.
        scalar_seconds = frontier_seconds = 0.0
        for round_index in range(3):
            with gc_paused():
                start = time.perf_counter()
                scalar = scalar_deepwalk(engine, starts, config.walk_length)
                scalar_seconds += time.perf_counter() - start
            with gc_paused():
                start = time.perf_counter()
                batched = run_deepwalk(
                    engine, config, starts=starts, rng=seed + 3 + round_index
                )
                frontier_seconds += time.perf_counter() - start
            assert scalar.total_steps > 0 and batched.total_steps > 0, engine_name
        speedups[engine_name] = scalar_seconds / frontier_seconds

    # No engine is slower through the frontier beyond timing noise.
    for engine_name, speedup in speedups.items():
        assert speedup > 0.8, (engine_name, speedups)
    # The batched path wins clearly in aggregate (geometric mean across
    # engines; per-engine ratios fluctuate under a loaded run).
    geomean = math.prod(speedups.values()) ** (1.0 / len(speedups))
    assert geomean > 1.5, speedups


@pytest.mark.slow
def test_update_then_walk_loop_through_the_frontier():
    seed = 43
    walk_length = 10
    seconds: dict[tuple[str, str], float] = {}
    for batch_size in (50, 125, 250, 500):
        rng = ensure_rng(seed)
        graph = build_dataset("LJ", rng=rng)
        stream = generate_update_stream(
            graph,
            batch_size=batch_size,
            num_batches=max(1, 1500 // batch_size),
            workload=UpdateWorkload.MIXED,
            rng=rng,
        )
        starts = sample_start_vertices(
            stream.initial_graph, stream.initial_graph.num_vertices, rng=seed + 2
        )
        config = DeepWalkConfig(walk_length=walk_length)
        walks = {
            "scalar": lambda engine, _rng: scalar_deepwalk(engine, starts, walk_length),
            "frontier": lambda engine, rng: run_deepwalk(
                engine, config, starts=starts, rng=rng
            ),
        }
        for engine_name in ("gsampler", "bingo"):
            for mode, walk in walks.items():
                engine = create_engine(engine_name, rng=seed + 1)
                engine.build(stream.initial_graph.copy())
                walk_rng = ensure_rng(seed + 3)
                start = time.perf_counter()
                for batch in stream.batches:
                    engine.apply_batch(batch)
                    walk(engine, walk_rng)
                key = (engine_name, mode)
                seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start

    # Aggregates over the sweep, not per-batch-size ratios: individual
    # cells fluctuate under a loaded run, the totals hold with a wide margin.
    bingo_frontier = seconds[("bingo", "frontier")]
    # Bingo's update path + frontier walks beat gSampler's end to end.
    assert bingo_frontier < seconds[("gsampler", "frontier")], seconds
    # The batched frontier beats the scalar loop on identical workloads.
    assert bingo_frontier * 1.3 < seconds[("bingo", "scalar")], seconds
