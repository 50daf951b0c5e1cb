"""Bingo's whole-array delta warm: its speed, and a shard replica's share.

A warm re-derives the dirty vertices' fused slices from one gather of
their graph rows (one :class:`~repro.core.vertex_sampler.RadixLayout`
pass), where the oracle (``tests/engines/bingo_oracle.py``) gathers each
vertex's slices from its sampler, one vertex at a time.  A shard replica
derives draw slices only for the vertices it owns.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.datasets import build_dataset
from repro.engines.bingo import BingoEngine
from repro.graph.generators import power_law_graph
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.utils.timing import gc_paused
from tests.engines.bingo_oracle import frontier_rows

#: The delta warm (draw slices, adjacency, writes) must beat the oracle's
#: gather of the draw slices alone by this factor (``process_time``, best
#: of five alternating runs, collector paused).  Measured 3.6-4x on a
#: 2-CPU container.
WARM_SPEEDUP_BOUND = 2.0


def _forget_gathers(engine: BingoEngine, vertices: np.ndarray) -> None:
    """Drop the samplers' cached NumPy mirrors, as an update batch does."""
    for vertex in vertices.tolist():
        sampler = engine.sampler_for(vertex)
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
    engine.apply_batch(stream.batches[0])
    delta = engine.warm_frontier_tables()
    assert not delta.full_rebuild and delta.vertices > 300
    dirty = np.array(delta.vertex_ids, dtype=np.int64)

    def warm() -> float:
        engine.frontier_tables.mark_dirty(delta.vertex_ids)
        with gc_paused():
            start = time.process_time()
            engine.warm_frontier_tables()
            return time.process_time() - start

    def oracle() -> float:
        _forget_gathers(engine, dirty)
        with gc_paused():
            start = time.process_time()
            frontier_rows(engine, dirty)
            return time.process_time() - start

    warms, gathers = [], []
    for _ in range(5):
        warms.append(warm())
        gathers.append(oracle())
    assert min(gathers) >= WARM_SPEEDUP_BOUND * min(warms), (min(gathers), min(warms))
    engine.check_consistency()


def test_a_shard_replica_derives_draw_slices_only_for_owned_vertices():
    graph = power_law_graph(120, 4, rng=3)
    owned = np.arange(0, 120, 3)
    whole = BingoEngine(rng=4)
    whole.build(graph.copy())
    replica = BingoEngine.for_shard(graph.copy(), owned, rng=4)
    # Not staged: every slice goes through the whole-array derivation.
    replica.frontier_tables.invalidate()
    got, want = replica.frontier_tables.views(), whole.frontier_tables.views()
    for vertex in range(graph.num_vertices):
        for store, column in (("inter", "prob"), ("inter", "alias"), ("flat", "members")):
            start = got[store + "_offset"][vertex]
            length = got[store + "_length"][vertex]
            expected = want[store + "_length"][vertex] if vertex in owned else 0
            assert length == expected, (vertex, store)
            theirs = want[column][want[store + "_offset"][vertex] :][:length]
            assert np.array_equal(got[column][start : start + length], theirs)
    replica.check_adjacency_store()
