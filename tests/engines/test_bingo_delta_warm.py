"""Bingo's whole-array delta warm against the per-vertex gather it replaced.

A warm re-derives the dirty vertices' fused slices from one gather of
their graph rows (one :class:`~repro.core.vertex_sampler.RadixLayout`
pass), where the oracle (``tests/engines/bingo_oracle.py``) gathers each
vertex's slices from its per-vertex sampler, one vertex at a time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.datasets import build_dataset
from repro.engines.bingo import BingoEngine
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.utils.timing import gc_paused
from tests.engines.bingo_oracle import SamplerOracle

#: The delta warm (draw slices, adjacency, writes) must beat the oracle's
#: gather of the draw slices alone by this factor (``process_time``, best
#: of five alternating runs, collector paused).  Measured 3.6-4x on a
#: 2-CPU container.
WARM_SPEEDUP_BOUND = 2.0


def _forget_gathers(oracle: SamplerOracle, vertices: np.ndarray) -> None:
    """Drop the samplers' cached NumPy mirrors, as an update batch does."""
    for vertex in vertices.tolist():
        sampler = oracle.samplers.get(vertex)
        if sampler is not None:
            sampler._np_cache = None
            sampler._inter_group._np_arrays = None


def test_delta_warm_beats_the_per_vertex_oracle_gather():
    graph = build_dataset("LJ", rng=1)
    stream = generate_update_stream(
        graph, batch_size=1024, num_batches=1, workload=UpdateWorkload.MIXED, rng=2
    )
    engine = BingoEngine(rng=3)
    engine.build(stream.initial_graph.copy())
    engine.warm_frontier_tables()
    samplers = SamplerOracle.of(engine)
    engine.apply_batch(stream.batches[0])
    samplers.apply_batch(stream.batches[0])
    delta = engine.warm_frontier_tables()
    assert not delta.full_rebuild and delta.vertices > 300
    dirty = np.array(delta.vertex_ids, dtype=np.int64)

    def warm() -> float:
        engine.frontier_tables.mark_dirty(delta.vertex_ids)
        with gc_paused():
            start = time.process_time()
            engine.warm_frontier_tables()
            return time.process_time() - start

    def gather() -> float:
        _forget_gathers(samplers, dirty)
        with gc_paused():
            start = time.process_time()
            samplers.frontier_rows(dirty)
            return time.process_time() - start

    warms, gathers = [], []
    for _ in range(5):
        warms.append(warm())
        gathers.append(gather())
    assert min(gathers) >= WARM_SPEEDUP_BOUND * min(warms), (min(gathers), min(warms))
    engine.check_consistency()

