"""FlowWalker-style baseline: structure-free reservoir sampling.

FlowWalker (VLDB'24) keeps *no* per-vertex sampling structure: every step
runs a parallel weighted reservoir pass over the neighbour list.  Updates are
therefore nearly free (the paper's Figure 16a shows FlowWalker's reload being
slightly faster than Bingo's update), but each sample costs O(d), which is
exactly what makes it two-plus orders of magnitude slower on the high-degree
Twitter graph (Figure 16b, Table 3).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence

import numpy as np

from repro.core.memory_model import MemoryReport
from repro.engines.base import PHASE_REBUILD, RandomWalkEngine
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate
from repro.utils.rng import RandomSource


class FlowWalkerEngine(RandomWalkEngine):
    """Reservoir-sampling engine: zero auxiliary state, O(d) per sample."""

    name = "flowwalker"
    supports_batch = True

    def __init__(self, *, rng: RandomSource = None) -> None:
        super().__init__(rng=rng)
        self.reload_count = 0

    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        # Nothing to build: sampling scans the adjacency directly.
        self.reload_count += 1

    def _on_insert(self, src: int, dst: int, bias: float) -> None:
        # Graph mutation (done by the base class) is the whole update.
        return None

    def _on_delete(self, src: int, dst: int) -> None:
        return None

    def apply_batch(self, updates: Sequence[GraphUpdate]) -> None:
        """Apply the edits columnar (bulk per-vertex kind-runs), then reload."""
        batch = UpdateBatch.coerce(updates)
        self._apply_batch_to_graph(batch)
        # FlowWalker "reloads the new graph after updates": model that as a
        # single pass over the edited adjacency.
        start = time.perf_counter()
        self._build_state()
        self.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)
        self.updates_applied += len(batch)

    # ------------------------------------------------------------------ #
    def _sample(self, vertex: int) -> int | None:
        graph = self._require_graph()
        if not (0 <= vertex < graph.num_vertices):
            # Out-of-range ids (retired-walker padding, vertices the walker
            # outlived) retire the walk like a sink instead of raising — the
            # behaviour every other engine already has.
            return None
        degree = graph.degree(vertex)
        if degree == 0:
            return None
        best_key = -math.inf
        best_dst: int | None = None
        # Efraimidis–Spirakis weighted reservoir over the live neighbour
        # columns (zero-copy views of the adjacency store).
        for dst, bias in zip(
            graph.neighbor_array(vertex).tolist(), graph.bias_array(vertex).tolist()
        ):
            u = self._rng.random()
            key = math.log(u) / bias if u > 0.0 else -math.inf
            if key > best_key:
                best_key = key
                best_dst = dst
        return best_dst

    def _sample_batch(
        self, vertex: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        graph = self._require_graph()
        if not (0 <= vertex < graph.num_vertices):
            return np.full(count, -1, dtype=np.int64)
        degree = graph.degree(vertex)
        if degree == 0:
            return np.full(count, -1, dtype=np.int64)
        dsts = graph.neighbor_array(vertex)
        biases = graph.bias_array(vertex)
        # Efraimidis–Spirakis keys for every (walker, neighbour) pair at once;
        # the per-row argmax is the reservoir winner, still structure-free and
        # still O(d) work per query like the scalar pass.
        uniforms = rng.random((count, degree))
        with np.errstate(divide="ignore"):
            keys = np.log(uniforms) / biases
        return dsts[np.argmax(keys, axis=1)]

    # ------------------------------------------------------------------ #
    def memory_report(self) -> MemoryReport:
        report = MemoryReport()
        graph = self._require_graph()
        report.add("graph", graph.num_arcs * (4 + 8) + graph.num_vertices * 8)
        # Per-walker reservoir registers only; modelled as one slot per vertex.
        report.add("reservoir_state", graph.num_vertices * 8)
        return report
