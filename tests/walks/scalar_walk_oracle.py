"""The per-walker DeepWalk loop: the reference for the frontier's speed bars.

``scalar_deepwalk(engine, starts, walk_length)`` is DeepWalk as it ran
before the batched walk frontier became the only walk driver: one Python
loop per walker and one ``sample_neighbor`` call per step, each walk
stopping early at a vertex with no out-edges.  The speed smokes in
``tests/integration/test_batch_speedup.py`` time the frontier against it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.walks.walker import NeighborSampler, WalkResult


def scalar_deepwalk(
    engine: NeighborSampler, starts: Sequence[int], walk_length: int
) -> WalkResult:
    """One DeepWalk path of at most ``walk_length`` steps per start vertex."""
    result = WalkResult()
    for start in starts:
        path = [start]
        current = start
        for _ in range(walk_length):
            next_vertex = engine.sample_neighbor(current)
            if next_vertex is None:
                break
            path.append(next_vertex)
            current = next_vertex
        result.add(path)
    return result
