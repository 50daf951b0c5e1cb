"""Perf smoke test: the batched frontier beats the scalar loop by >= 2x.

Measures DeepWalk wall-time on a 5k-vertex power-law graph with one walker
per vertex, scalar per-walker loop vs the batched frontier with warm fused
tables (the steady-state regime: the paper's workflow reruns the application
after every update batch, so the one-off table build amortizes away).

Marked ``slow`` so it can be skipped with ``-m "not slow"``.
"""

from __future__ import annotations

import time

import pytest

from repro.engines.bingo import BingoEngine
from repro.graph.generators import power_law_graph
from repro.utils.timing import gc_paused
from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk

NUM_VERTICES = 5_000
WALK_LENGTH = 12


@pytest.mark.slow
def test_batched_frontier_beats_scalar_loop_by_2x():
    graph = power_law_graph(NUM_VERTICES, 3, rng=77)
    engine = BingoEngine(rng=9)
    engine.build(graph)
    starts = [v for v in range(graph.num_vertices) if graph.degree(v) > 0]
    config = DeepWalkConfig(walk_length=WALK_LENGTH)

    # Warm the fused frontier tables (one-off build, amortized in steady state).
    run_deepwalk(engine, config, starts=starts, frontier=True, rng=0)

    # Best-of-3 timings: a single measurement is at the mercy of the host
    # scheduler on small shared CI machines and flakes spuriously.  Each runs
    # with the collector paused, so a full collection of the test session's
    # heap cannot land inside one.
    scalar_seconds = float("inf")
    for _ in range(3):
        with gc_paused():
            scalar_start = time.perf_counter()
            scalar = run_deepwalk(engine, config, starts=starts)
            scalar_seconds = min(scalar_seconds, time.perf_counter() - scalar_start)

    frontier_seconds = float("inf")
    for _ in range(3):
        with gc_paused():
            frontier_start = time.perf_counter()
            batched = run_deepwalk(engine, config, starts=starts, frontier=True, rng=1)
            frontier_seconds = min(frontier_seconds, time.perf_counter() - frontier_start)

    # Identical workload, both paths completed it.
    assert batched.num_walks == scalar.num_walks == len(starts)
    assert batched.total_steps == scalar.total_steps

    speedup = scalar_seconds / frontier_seconds
    assert speedup >= 2.0, (
        f"batched frontier only {speedup:.2f}x faster "
        f"({scalar_seconds * 1e3:.0f}ms scalar vs {frontier_seconds * 1e3:.0f}ms batched)"
    )
