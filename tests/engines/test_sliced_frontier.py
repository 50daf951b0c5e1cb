"""Dirty-set sliced frontier tables: store semantics + bitwise equivalence.

The tentpole contract: after any sequence of update batches, walks served
from the incrementally repaired per-vertex slices must be bitwise
identical to walks served from a cold full rebuild of the concatenated
tables — including delete-then-reinsert of the same vertex, slice-width
growth (the capacity-doubling tail-append fallback), and the amortized
compaction re-pack.  Through all of it, and on a replica fed states and
patches, every vertex's adjacency slice (the node2vec distance-1 store)
must stay its sorted graph row.  Alongside, unit tests for
:class:`~repro.engines.sliced_tables.SlicedTableStore` itself and the
regression for the zero-edge slice leak.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.bingo import BingoEngine
from repro.engines.gsampler import GSamplerEngine
from repro.engines.knightking import KnightKingEngine
from repro.engines.sliced_tables import FrontierDelta, SlicedTableStore
from repro.errors import ReproError
from repro.graph.generators import erdos_renyi_graph, power_law_graph
from repro.graph.update_stream import (
    GraphUpdate,
    UpdateKind,
    generate_update_stream,
)
from repro.walks.frontier import (
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)

FUSED_ENGINE_CLASSES = [BingoEngine, KnightKingEngine, GSamplerEngine]
APPLICATIONS = ["deepwalk", "ppr", "node2vec"]


def _insert(src, dst, bias=1.0, ts=0):
    return GraphUpdate(UpdateKind.INSERT, src, dst, bias, ts)


def _delete(src, dst, ts=0):
    return GraphUpdate(UpdateKind.DELETE, src, dst, 1.0, ts)


def _run_app(engine, application, starts, seed):
    rng = np.random.default_rng(seed)
    if application == "deepwalk":
        walks = run_frontier_deepwalk(engine, starts, 8, rng=rng)
    elif application == "ppr":
        walks = run_frontier_ppr(
            engine, starts, termination_probability=0.15, max_steps=24, rng=rng
        )
    else:
        walks = run_frontier_node2vec(engine, starts, 6, p=0.5, q=2.0, rng=rng)
    return walks.matrix.copy()


#: The store whose payload grows with edges (flat member table on bingo).
PAYLOAD_STORE = {"bingo": "flat", "knightking": "table", "gsampler": "cdf"}


def _reset_frontier_state(engine):
    """Force the next table access onto the cold full-rebuild path."""
    engine.frontier_tables.invalidate()


def _payload_store(engine):
    return engine.frontier_tables.stores[PAYLOAD_STORE[engine.name]]


# --------------------------------------------------------------------- #
# the store itself
# --------------------------------------------------------------------- #
class TestSlicedTableStore:
    def _store(self):
        store = SlicedTableStore({"ids": np.int64, "val": np.float64})
        store.reset(8)
        return store

    def test_in_place_patch_keeps_offset(self):
        store = self._store()
        offset = store.set_slice(3, {"ids": np.arange(5), "val": np.ones(5)})
        patched = store.set_slice(
            3, {"ids": np.arange(4) + 10, "val": np.full(4, 2.0)}
        )
        assert patched == offset
        assert store.seg_length[3] == 4
        assert list(store.column("ids")[offset : offset + 4]) == [10, 11, 12, 13]
        assert store.waste == 1  # the shrunk tail entry went dead
        # An equal-length patch stays in place too.
        assert store.set_slice(3, {"ids": np.arange(4), "val": np.ones(4)}) == offset
        assert store.waste == 1

    def test_growth_appends_and_orphans(self):
        store = self._store()
        store.set_slice(1, {"ids": np.arange(3), "val": np.ones(3)})
        first = int(store.seg_offset[1])
        grown = store.set_slice(1, {"ids": np.arange(6), "val": np.ones(6)})
        assert grown != first
        assert store.seg_length[1] == 6
        assert store.live == 6
        assert store.waste == 3  # the orphaned original segment

    def test_clear_slice_releases_payload(self):
        store = self._store()
        store.set_slice(2, {"ids": np.arange(4), "val": np.ones(4)})
        store.clear_slice(2)
        assert store.seg_length[2] == 0
        assert store.live == 0
        assert store.waste == 4

    def test_empty_slice_equals_clear(self):
        store = self._store()
        store.set_slice(2, {"ids": np.arange(4), "val": np.ones(4)})
        store.set_slice(2, {"ids": np.empty(0, np.int64), "val": np.empty(0)})
        assert store.seg_length[2] == 0
        assert store.live == 0

    def test_schema_mismatch_raises(self):
        store = self._store()
        with pytest.raises(ReproError):
            store.set_slice(0, {"ids": np.arange(2)})
        with pytest.raises(ReproError):
            store.set_slice(0, {"ids": np.arange(2), "val": np.ones(3)})

    def test_bulk_write_matches_successive_set_slice(self):
        rng = np.random.default_rng(9)
        one, bulk = self._store(), self._store()
        for _round in range(12):
            vertices = rng.permutation(8)[: int(rng.integers(1, 8))]
            slices = []
            for _vertex in vertices:
                length = int(rng.integers(0, 7))
                cleared = length == 0 and rng.random() < 0.5
                slices.append(
                    None
                    if cleared
                    else {"ids": rng.integers(0, 99, length), "val": rng.random(length)}
                )
            for vertex, parts in zip(vertices.tolist(), slices):
                if parts is None:
                    one.clear_slice(vertex)
                else:
                    one.set_slice(vertex, parts)
            bulk.set_slices(vertices, slices)
            assert (one.used, one.live) == (bulk.used, bulk.live)
            assert np.array_equal(one.seg_offset, bulk.seg_offset)
            assert np.array_equal(one.seg_length, bulk.seg_length)
            for name in ("ids", "val"):
                assert np.array_equal(
                    one.column(name)[: one.used], bulk.column(name)[: bulk.used]
                )

    def test_bulk_write_rejects_bad_input(self):
        store = self._store()
        parts = {"ids": np.arange(2), "val": np.ones(2)}
        with pytest.raises(ReproError, match="twice"):
            store.set_slices(np.array([3, 3]), [parts, parts])
        with pytest.raises(ReproError, match="expected 3"):
            store.place(
                np.array([1]), np.array([3]), {"ids": np.arange(2), "val": np.ones(3)}
            )

    def test_ensure_vertices_grows_directory(self):
        store = self._store()
        store.set_slice(7, {"ids": np.arange(2), "val": np.ones(2)})
        store.ensure_vertices(20)
        assert store.num_vertices == 20
        assert store.seg_length[7] == 2
        assert store.seg_length[19] == 0

    def test_needs_compaction_threshold(self):
        store = self._store()
        store.set_slice(0, {"ids": np.arange(3000), "val": np.ones(3000)})
        assert not store.needs_compaction()
        store.set_slice(0, {"ids": np.arange(1), "val": np.ones(1)})
        assert store.waste == 2999
        assert store.needs_compaction()

    def test_compaction_preserves_every_slice(self):
        store = self._store()
        rng = np.random.default_rng(5)
        expected = {}
        for _round in range(6):
            for vertex in range(8):
                length = int(rng.integers(0, 12))
                ids = rng.integers(0, 1000, size=length)
                vals = rng.random(length)
                store.set_slice(vertex, {"ids": ids, "val": vals})
                expected[vertex] = (ids.copy(), vals.copy())
        store.compact()
        assert store.waste == 0
        assert store.used == store.live == sum(
            len(ids) for ids, _ in expected.values()
        )
        for vertex, (ids, vals) in expected.items():
            offset = int(store.seg_offset[vertex])
            assert store.seg_length[vertex] == len(ids)
            assert np.array_equal(store.column("ids")[offset : offset + len(ids)], ids)
            assert np.array_equal(store.column("val")[offset : offset + len(ids)], vals)


# --------------------------------------------------------------------- #
# bitwise equivalence: incremental repair vs cold full rebuild
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_incremental_tables_bitwise_match_cold_rebuild(engine_cls, application):
    graph = erdos_renyi_graph(60, 400, rng=11)
    stream = generate_update_stream(
        graph, batch_size=50, num_batches=3, workload="mixed", rng=12
    )
    engine = engine_cls(rng=9)
    engine.build(stream.initial_graph)
    starts = list(range(40))
    engine.warm_frontier_tables()  # cold build once; batches repair from here on
    engine.check_consistency()
    for position, batch in enumerate(stream.batches):
        engine.apply_batch(batch)
        incremental = _run_app(engine, application, starts, seed=100 + position)
        engine.check_consistency()
        # Each cold rebuild below bumps the counter by one; the repairs the
        # incremental runs perform must not.
        assert engine.frontier_tables.full_builds == 1 + position
        _reset_frontier_state(engine)
        cold = _run_app(engine, application, starts, seed=100 + position)
        assert np.array_equal(incremental, cold)


@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_delete_then_reinsert_same_vertex_matches_cold(engine_cls):
    graph = power_law_graph(50, 3, rng=7)
    engine = engine_cls(rng=5)
    engine.build(graph)
    engine.warm_frontier_tables()
    starts = list(range(50))
    victim = max(range(graph.num_vertices), key=graph.degree)
    neighbors = list(graph.neighbors(victim))

    # Phase 1: churn the vertex down to zero edges — the repair must evict
    # its slice, and walks must match a cold rebuild without it.
    engine.apply_batch(
        [_delete(victim, dst, ts=i) for i, dst in enumerate(neighbors)]
    )
    incremental = _run_app(engine, "deepwalk", starts, seed=3)
    assert _payload_store(engine).seg_length[victim] == 0
    engine.check_consistency()
    _reset_frontier_state(engine)
    cold = _run_app(engine, "deepwalk", starts, seed=3)
    assert np.array_equal(incremental, cold)

    # Phase 2: reinsert the same vertex with fresh biases; the repair
    # rebuilds its slice from nothing.
    engine.apply_batch(
        [_insert(victim, dst, 2.0 + i, ts=i) for i, dst in enumerate(neighbors)]
    )
    incremental = _run_app(engine, "deepwalk", starts, seed=4)
    engine.check_consistency()
    # Payload widths are engine-specific (bingo pads group member tables),
    # but the reinserted vertex must own a live slice again.
    assert _payload_store(engine).seg_length[victim] > 0
    _reset_frontier_state(engine)
    cold = _run_app(engine, "deepwalk", starts, seed=4)
    assert np.array_equal(incremental, cold)


@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_slice_width_growth_appends_and_stays_equivalent(engine_cls):
    graph = power_law_graph(40, 2, rng=3)
    engine = engine_cls(rng=4)
    engine.build(graph)
    engine.warm_frontier_tables()
    victim = next(v for v in range(graph.num_vertices) if graph.degree(v) > 0)
    new_dsts = [
        v
        for v in range(graph.num_vertices)
        if v != victim and not graph.has_edge(victim, v)
    ][:12]
    engine.apply_batch(
        [_insert(victim, dst, 1.5, ts=i) for i, dst in enumerate(new_dsts)]
    )
    incremental = _run_app(engine, "deepwalk", list(range(40)), seed=8)
    # The grown slice could not be patched in place: its old segment is
    # orphaned waste and the new one sits at the tail.
    assert _payload_store(engine).waste > 0
    _reset_frontier_state(engine)
    cold = _run_app(engine, "deepwalk", list(range(40)), seed=8)
    assert np.array_equal(incremental, cold)


@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_compaction_fallback_stays_equivalent(engine_cls):
    graph = power_law_graph(12, 2, rng=17)
    engine = engine_cls(rng=8)
    engine.build(graph)
    engine.warm_frontier_tables()
    base = graph.num_vertices
    dsts = list(range(base, base + 1500))  # brand-new sink vertices
    engine.apply_batch([_insert(0, d, 1.0, ts=i) for i, d in enumerate(dsts)])
    engine.warm_frontier_tables()
    store = _payload_store(engine)
    assert store.used >= 1500
    builds = engine.frontier_tables.full_builds
    # Shrinking 1500 -> 1 leaves ~1499 dead entries, beyond both the slack
    # and the live payload: the next repair must compact in place and
    # still publish a one-vertex delta, without changing walk output.
    engine.apply_batch([_delete(0, d, ts=i) for i, d in enumerate(dsts[:-1])])
    assert engine.warm_frontier_tables() == FrontierDelta(
        vertices=1, full_rebuild=False, vertex_ids=(0,)
    )
    assert engine.frontier_tables.full_builds == builds
    assert store.used == store.live < 1500
    adjacency = engine.frontier_tables.stores["adjacency"]
    assert adjacency.used == adjacency.live < 1500
    engine.check_consistency()
    incremental = _run_app(engine, "deepwalk", list(range(base)), seed=21)
    assert store.waste <= max(store.live, 1024)
    _reset_frontier_state(engine)
    cold = _run_app(engine, "deepwalk", list(range(base)), seed=21)
    assert np.array_equal(incremental, cold)


@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_replica_fed_patches_tracks_a_compacting_writer(engine_cls):
    """State + slice patches reproduce the writer's tables exactly."""
    graph = power_law_graph(12, 2, rng=17)
    writer = engine_cls(rng=8)
    writer.build(graph.copy())
    replica = engine_cls(rng=8)
    replica.build(graph.copy())
    replica.adopt_frontier_state(writer.export_frontier_state())
    replica.check_adjacency_store()
    base = graph.num_vertices
    dsts = list(range(base, base + 1500))
    grow = [_insert(0, d, 1.0, ts=i) for i, d in enumerate(dsts)]
    shrink = [_delete(0, d, ts=i) for i, d in enumerate(dsts[:-1])]
    for seed, updates in enumerate((grow, shrink)):
        writer.apply_batch(updates)
        # A shard replica's graph takes the batch; its tables take patches.
        replica.graph.apply_batch(updates)
        delta = writer.warm_frontier_tables()
        replica.apply_frontier_patch(writer.export_frontier_patch(delta.vertex_ids))
        want = writer.export_frontier_state()
        got = replica.export_frontier_state()
        assert sorted(got) == sorted(want)
        assert all(np.array_equal(got[key], want[key]) for key in want)
        replica.check_adjacency_store()
        starts = list(range(base))
        assert np.array_equal(
            _run_app(replica, "deepwalk", starts, seed),
            _run_app(writer, "deepwalk", starts, seed),
        )
    store = _payload_store(replica)
    assert store.used == store.live < 1500


# --------------------------------------------------------------------- #
# the delta contract the serve writer consumes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_warm_frontier_tables_reports_touched_delta(engine_cls):
    graph = power_law_graph(40, 2, rng=3)
    engine = engine_cls(rng=4)
    engine.build(graph)
    delta = engine.warm_frontier_tables()
    assert delta.full_rebuild
    assert delta.vertices == graph.num_vertices
    free_dst = next(d for d in range(graph.num_vertices) if not graph.has_edge(1, d) and d != 1)
    engine.apply_batch([_insert(1, free_dst, 2.0)])
    assert engine.warm_frontier_tables() == FrontierDelta(
        vertices=1, full_rebuild=False, vertex_ids=(1,)
    )
    # Nothing dirty: warming again is a free no-op delta.
    assert engine.warm_frontier_tables() == FrontierDelta(
        vertices=0, full_rebuild=False, vertex_ids=()
    )


@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_zero_degree_vertices_evict_cached_slices(engine_cls):
    """Regression: churning vertices to zero edges must shrink the caches."""
    graph = erdos_renyi_graph(50, 300, rng=13)
    engine = engine_cls(rng=6)
    engine.build(graph)
    engine.warm_frontier_tables()
    store = _payload_store(engine)
    live_before = store.live
    victims = [v for v in range(graph.num_vertices) if graph.degree(v) > 0][:20]
    updates = []
    ts = 0
    for victim in victims:
        for dst in list(graph.neighbors(victim)):
            updates.append(_delete(victim, dst, ts))
            ts += 1
    engine.apply_batch(updates)
    engine.warm_frontier_tables()
    assert store.live < live_before
    assert all(store.seg_length[victim] == 0 for victim in victims)
    if engine_cls is BingoEngine:
        inter = engine.frontier_tables.stores["inter"]
        assert all(inter.seg_length[victim] == 0 for victim in victims)


# --------------------------------------------------------------------- #
# the adjacency store (the compiled node2vec distance-1 test)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_adjacency_store_holds_each_sorted_graph_row(engine_cls):
    graph = erdos_renyi_graph(50, 300, rng=13)
    engine = engine_cls(rng=6)
    engine.build(graph)
    assert engine.warm_frontier_tables().full_rebuild
    engine.check_consistency()
    views = engine.frontier_tables.views()
    for vertex in range(graph.num_vertices):
        start = views["adjacency_offset"][vertex]
        row = views["neighbors"][start : start + views["adjacency_length"][vertex]]
        assert np.array_equal(row, np.sort(graph.neighbor_array(vertex)))


@pytest.mark.parametrize("engine_cls", FUSED_ENGINE_CLASSES)
def test_adjacency_check_catches_a_stale_slice(engine_cls):
    graph = power_law_graph(30, 2, rng=3)
    engine = engine_cls(rng=4)
    engine.build(graph)
    engine.check_consistency()
    vertex = next(v for v in range(graph.num_vertices) if graph.degree(v) > 1)
    views = engine.frontier_tables.views()
    start = views["adjacency_offset"][vertex]
    views["neighbors"][start] = graph.num_vertices  # no such neighbour
    with pytest.raises(ReproError, match=f"vertex {vertex} adjacency"):
        engine.check_adjacency_store()
