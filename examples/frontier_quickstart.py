"""Quickstart for the batched walk-frontier engine.

Builds a small power-law graph, runs DeepWalk through the application API,
then demonstrates the dense walk matrix, a PPR frontier, and the
update-then-walk loop.

Run with:

    PYTHONPATH=src python examples/frontier_quickstart.py
"""

from __future__ import annotations

from repro.engines.bingo import BingoEngine
from repro.graph.generators import power_law_graph
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk
from repro.walks.frontier import run_frontier_deepwalk, run_frontier_ppr


def main() -> None:
    graph = power_law_graph(2_000, 3, rng=7)
    engine = BingoEngine(rng=11)
    engine.build(graph)
    starts = [v for v in range(graph.num_vertices) if graph.degree(v) > 0]
    config = DeepWalkConfig(walk_length=10)

    # --- the application API: every walker advances as one frontier ---------
    result = run_deepwalk(engine, config, starts=starts, rng=1)
    print(f"frontier DeepWalk: {result.num_walks} walks, {result.total_steps} steps")

    # --- the dense matrix API ----------------------------------------------
    walks = run_frontier_deepwalk(engine, starts, config.walk_length, rng=2)
    print(f"walk matrix shape: {walks.matrix.shape} (-1 padded)")
    print(f"first walk: {walks.paths()[0]}")

    # --- PPR as a terminating frontier -------------------------------------
    ppr = run_frontier_ppr(
        engine, starts, termination_probability=1 / 20, max_steps=80, rng=4
    )
    print(f"PPR frontier: mean walk length {float(ppr.lengths().mean()):.1f}")

    # --- dynamic updates invalidate the fused tables automatically ----------
    batch = [
        GraphUpdate(UpdateKind.DELETE, edge.src, edge.dst)
        for edge in list(engine.graph.edges())[:50]
    ]
    engine.apply_batch(batch)
    after = run_frontier_deepwalk(engine, starts, config.walk_length, rng=5)
    print(f"after update batch: {after.total_steps} steps, still consistent")


if __name__ == "__main__":
    main()
