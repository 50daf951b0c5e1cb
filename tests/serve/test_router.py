"""Sharded multi-process router: reassembly, bitwise parity, chaos."""

import glob

import numpy as np
import pytest

from repro.engines import compiled
from repro.engines.registry import create_engine
from repro.engines.sliced_tables import pack_arrays, unpack_arrays
from repro.errors import ServeError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.serve import (
    FaultInjector,
    FaultPlan,
    GraphService,
    RouterService,
    ServiceConfig,
    service_from_config,
)
from repro.serve.router import (
    _boot_blob,
    discard_stale,
    flip_payload,
    reassemble,
    reference_shard_walks,
)
from repro.serve.shard_worker import apply_flip, boot_replica
from tests.walks import test_frontier_golden as golden

#: Engines with the fused-frontier serialization the shard workers adopt.
FRONTIER_ENGINES = ("bingo", "knightking", "gsampler")


def make_graph(n=60, seed=3):
    rng = np.random.default_rng(seed)
    graph = DynamicGraph(n)
    for vertex in range(n):
        degree = int(rng.integers(2, 7))
        dsts = rng.choice(n, size=degree, replace=False)
        graph.add_edges_bulk(
            vertex, np.asarray(dsts, dtype=np.int64), rng.random(degree) + 0.1
        )
    return graph


def insert_updates(round_, rng, n=60, count=15):
    # Always-new destination vertices: an accidental duplicate edge would
    # quarantine the batch (self-healing) instead of flipping the epoch.
    return [
        GraphUpdate(
            kind=UpdateKind.INSERT,
            src=int(rng.integers(0, n)),
            dst=n + round_ * count + index,
            bias=float(rng.random() + 0.1),
        )
        for index in range(count)
    ]


def shm_count():
    return len(glob.glob("/dev/shm/*"))


# --------------------------------------------------------------------- #
# pure reassembly
# --------------------------------------------------------------------- #
class TestReassemble:
    def test_out_of_order_parts_land_on_their_positions(self):
        first = np.array([[0, 1, 2]], dtype=np.int64)
        second = np.array([[3, 4, 5], [6, 7, 8]], dtype=np.int64)
        out_of_order = reassemble(
            3,
            [(np.array([1, 2]), second), (np.array([0]), first)],
            fallback_width=3,
        )
        in_order = reassemble(
            3,
            [(np.array([0]), first), (np.array([1, 2]), second)],
            fallback_width=3,
        )
        assert np.array_equal(out_of_order, in_order)
        assert np.array_equal(
            out_of_order, np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        )

    def test_empty_shard_matrix_contributes_nothing(self):
        walks = np.array([[9, 8, 7]], dtype=np.int64)
        empty = np.empty((0, 6), dtype=np.int64)
        matrix = reassemble(
            1,
            [(np.array([], dtype=np.int64), empty), (np.array([0]), walks)],
            fallback_width=3,
        )
        # The empty (0, L+1) part must not stretch the populated rows.
        assert matrix.shape == (1, 6)
        assert np.array_equal(matrix[0, :3], walks[0])
        assert np.array_equal(matrix[0, 3:], np.full(3, -1, dtype=np.int64))

    def test_all_empty_parts_use_the_fallback_width(self):
        matrix = reassemble(0, [], fallback_width=9)
        assert matrix.shape == (0, 9)
        assert matrix.dtype == np.int64

    def test_short_shard_rows_are_minus_one_padded(self):
        wide = np.array([[1, 2, 3, 4]], dtype=np.int64)
        narrow = np.array([[5, 6]], dtype=np.int64)
        matrix = reassemble(
            2,
            [(np.array([0]), wide), (np.array([1]), narrow)],
            fallback_width=2,
        )
        assert matrix.shape == (2, 4)
        assert np.array_equal(matrix[1], np.array([5, 6, -1, -1]))


class TestDiscardStale:
    def test_stale_epoch_tagged_reply_is_dropped(self):
        fresh = np.array([[1]], dtype=np.int64)
        stale = np.array([[2]], dtype=np.int64)
        kept = discard_stale(
            [
                (np.array([0]), fresh, 7),
                (np.array([1]), stale, 6),
            ],
            7,
        )
        assert len(kept) == 1
        positions, matrix = kept[0]
        assert np.array_equal(positions, np.array([0]))
        assert np.array_equal(matrix, fresh)

    def test_stale_reply_does_not_change_the_reassembled_bytes(self):
        current = np.array([[1, 2], [3, 4]], dtype=np.int64)
        stale = np.array([[9, 9]], dtype=np.int64)
        parts = [
            (np.array([0, 1]), current, 5),
            (np.array([0]), stale, 4),
        ]
        matrix = reassemble(2, discard_stale(parts, 5), fallback_width=2)
        assert np.array_equal(matrix, current)


# --------------------------------------------------------------------- #
# bitwise parity with the single-process service
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", FRONTIER_ENGINES)
def test_one_shard_router_is_bitwise_identical(engine):
    reference = GraphService(engine, make_graph(), rng=11, warm_on_publish=True)
    router = RouterService(engine, make_graph(), shards=1, rng=11)
    try:
        for round_ in range(2):
            for application, starts, length, params in (
                ("deepwalk", [1, 5, 9, 30], 8, {}),
                ("node2vec", [2, 4], 6, {"p": 2.0, "q": 0.5}),
                (
                    "ppr",
                    [3, 7, 11],
                    64,
                    {"termination_probability": 0.2, "max_steps": 40},
                ),
            ):
                want = reference.query(application, starts, length, **params)
                got = router.query(application, starts, length, **params)
                assert np.array_equal(got.walks.matrix, want.walks.matrix), (
                    engine,
                    application,
                    round_,
                )
            # Explicit integer rng: the solo-query seed contract.
            want = reference.query("deepwalk", [8], 5, rng=7)
            got = router.query("deepwalk", [8], 5, rng=7)
            assert np.array_equal(got.walks.matrix, want.walks.matrix)
            updates = insert_updates(round_, np.random.default_rng(1000 + round_))
            reference.ingest(updates)
            reference.flush()
            router.ingest(updates)
            router.flush()
            assert reference.epoch == router.epoch == round_ + 1
        snapshot = router.stats_snapshot()
        assert snapshot["shard_flips"] == 2
        assert snapshot["flip_full_snapshots"] == 0
        assert snapshot["flip_payload_bytes"] > 0
        # Each shard reports its kernel at boot; one fallback shows.
        assert snapshot["frontier_kernel"] == compiled.kernel_name()
        router._pool.frontier_kernels[-1] = "numpy"
        assert router.stats_snapshot()["frontier_kernel"] == "numpy"
    finally:
        reference.close()
        router.close()


PARITY_QUERIES = (
    ("deepwalk", 8, {}),
    ("ppr", 40, {"termination_probability": 0.15, "max_steps": 40}),
    ("node2vec", 8, {"p": 0.5, "q": 2.0}),
)


def assert_same_walks(reference, router, starts, queries=PARITY_QUERIES):
    for application, length, params in queries:
        want = reference.query(application, starts, length, rng=5, **params)
        got = router.query(application, starts, length, rng=5, **params)
        assert np.array_equal(got.walks.matrix, want.walks.matrix), application


def test_one_shard_router_matches_the_service_after_fractional_churn():
    """λ = 1 fractional biases, then a batch with deletions: the replica's
    decimal-group draws must equal the writer's."""
    kwargs = {"lam": 1.0}
    reference = GraphService(
        "bingo", golden.make_graph(), rng=11, engine_kwargs=kwargs, warm_on_publish=True
    )
    router = RouterService(
        "bingo", golden.make_graph(), shards=1, rng=11, engine_kwargs=kwargs
    )
    try:
        batch = golden.churn_batch(golden.make_graph())
        for service in (reference, router):
            service.ingest(batch)
            service.flush()
        assert reference.epoch == router.epoch == 1
        assert_same_walks(reference, router, list(range(golden.ISOLATED + 1)))
    finally:
        reference.close()
        router.close()


def triangle_closing_pairs(graph, count):
    """The ``count`` non-adjacent pairs with the most common neighbours.

    node2vec's distance-1 test reads both arcs of such a pair once it is
    an edge.
    """
    pairs = []
    for src in range(graph.num_vertices):
        for dst in range(src + 1, graph.num_vertices):
            if not graph.has_edge(src, dst):
                common = set(graph.neighbors(src)) & set(graph.neighbors(dst))
                pairs.append((-len(common), src, dst))
    return [(src, dst) for _, src, dst in sorted(pairs)[:count]]


@pytest.mark.parametrize("engine", FRONTIER_ENGINES)
def test_one_shard_router_matches_the_service_on_an_undirected_graph(
    engine, monkeypatch
):
    """NumPy kernel (node2vec probes the replica's graph): after an insert
    batch the replica's graph must hold both arcs of every new edge."""
    monkeypatch.setattr(compiled, "load", lambda: None)
    graph = erdos_renyi_graph(30, 120, rng=6, undirected=True)
    updates = [
        GraphUpdate(UpdateKind.INSERT, src, dst, 1.5 + index)
        for index, (src, dst) in enumerate(triangle_closing_pairs(graph, 4))
    ]
    reference = GraphService(engine, graph.copy(), rng=11, warm_on_publish=True)
    router = RouterService(engine, graph.copy(), shards=1, rng=11)
    writer = create_engine(engine, rng=11)
    writer.build(graph.copy())
    replica = boot_replica(engine, {}, 11, unpack_arrays(_boot_blob(writer, 0)))
    try:
        assert router.stats_snapshot()["frontier_kernel"] == "numpy"
        starts = list(range(graph.num_vertices)) * 6
        node2vec = (("node2vec", 12, {"p": 0.5, "q": 2.0}),)
        assert_same_walks(reference, router, starts, node2vec)
        for service in (reference, router):
            service.ingest(updates)
            service.flush()
        assert_same_walks(reference, router, starts, node2vec)
        # The worker's flip step, in process.
        batch = UpdateBatch.from_updates(updates)
        writer.apply_batch(batch)
        payload, _ = flip_payload(writer, batch, writer.warm_frontier_tables())
        apply_flip(replica, unpack_arrays(pack_arrays(payload)))
        assert replica.graph.undirected
        for update in updates:
            assert replica.graph.has_edge(update.src, update.dst)
            assert replica.graph.has_edge(update.dst, update.src)
        assert replica.graph.num_edges == writer.graph.num_edges
    finally:
        reference.close()
        router.close()


@pytest.mark.parametrize("engine", FRONTIER_ENGINES)
def test_one_shard_router_matches_the_service_on_a_batch_that_repeats_an_arc(engine):
    """The writer and every replica give a batch the same net effect: a
    duplicate insert keeps the last bias, delete-then-reinsert updates the
    bias, and insert-then-delete cancels.  The epoch advances and the
    pool keeps serving."""
    graph = make_graph()
    src = 1
    existing = graph.neighbors(src)[0]
    fresh = [v for v in range(graph.num_vertices) if v != src and not graph.has_edge(src, v)]
    updates = [
        GraphUpdate(UpdateKind.INSERT, src, fresh[0], 3.0),
        GraphUpdate(UpdateKind.INSERT, src, fresh[0], 8.0),
        GraphUpdate(UpdateKind.DELETE, src, existing),
        GraphUpdate(UpdateKind.INSERT, src, existing, 5.0),
        GraphUpdate(UpdateKind.INSERT, src, fresh[1], 2.0),
        GraphUpdate(UpdateKind.DELETE, src, fresh[1]),
    ]
    reference = GraphService(engine, make_graph(), rng=11, warm_on_publish=True)
    router = RouterService(engine, make_graph(), shards=1, rng=11)
    try:
        for round_, batch in enumerate(
            (updates, insert_updates(0, np.random.default_rng(1000)))
        ):
            for service in (reference, router):
                service.ingest(batch)
                service.flush()
            assert reference.epoch == router.epoch == round_ + 1
            assert_same_walks(reference, router, list(range(graph.num_vertices)))
        assert router.stats_snapshot()["batches_quarantined"] == 0
    finally:
        reference.close()
        router.close()


@pytest.mark.parametrize("engine", FRONTIER_ENGINES)
def test_two_shard_router_matches_in_process_reference(engine):
    router = RouterService(
        engine, make_graph(), shards=2, rng=13, service_seed=42
    )
    mirror = create_engine(engine, rng=13)
    mirror.build(make_graph())
    mirror.warm_frontier_tables()
    try:
        for round_ in range(2):
            starts = np.asarray([1, 5, 9, 30, 44, 2, 57, 18])
            result = router.query("deepwalk", list(starts), 8)
            expected = reference_shard_walks(
                mirror,
                "deepwalk",
                starts,
                router._pool.owners_of(starts),
                8,
                {},
                (42, round_ * 2),
                2,
            )
            assert np.array_equal(result.walks.matrix, expected), (engine, round_)
            starts = np.asarray([2, 40, 16])
            result = router.query("node2vec", list(starts), 6, p=2.0, q=0.5)
            expected = reference_shard_walks(
                mirror,
                "node2vec",
                starts,
                router._pool.owners_of(starts),
                6,
                {"p": 2.0, "q": 0.5},
                (42, round_ * 2 + 1),
                2,
            )
            assert np.array_equal(result.walks.matrix, expected), (engine, round_)
            updates = insert_updates(round_, np.random.default_rng(500 + round_))
            router.ingest(updates)
            router.flush()
            mirror.apply_batch(updates)
            mirror.warm_frontier_tables()
        assert router.stats_snapshot()["flip_full_snapshots"] == 0
    finally:
        router.close()


def test_compacting_churn_flips_as_patches_on_bingo():
    """A batch that compacts the writer's tables still flips as a patch."""
    router = RouterService("bingo", make_graph(), shards=2, rng=13, service_seed=42)
    mirror = create_engine("bingo", rng=13)
    mirror.build(make_graph())
    mirror.warm_frontier_tables()
    hub, base, count = 7, 60, 1500
    # Grow one vertex by 1500 edges to fresh sinks, then shrink it back:
    # the dead member entries outweigh the live payload, so that warm
    # compacts the flat member store.  The writer's other buffer replays
    # the shrink on the third flip and compacts there.
    grow = [
        GraphUpdate(UpdateKind.INSERT, hub, base + index, 1.0 + index % 5)
        for index in range(count)
    ]
    shrink = [
        GraphUpdate(UpdateKind.DELETE, hub, base + index) for index in range(count - 1)
    ]
    touch = [GraphUpdate(UpdateKind.INSERT, 3, base + count, 2.0)]
    members = mirror.frontier_tables.stores["flat"]
    try:
        for query, updates in enumerate((grow, shrink, touch)):
            router.ingest(updates)
            router.flush()
            mirror.apply_batch(updates)
            mirror.warm_frontier_tables()
            if updates is shrink:
                assert members.used == members.live < count
            starts = np.asarray([hub, 1, 5, hub, 30, 44, 2, hub])
            result = router.query("deepwalk", list(starts), 8)
            expected = reference_shard_walks(
                mirror,
                "deepwalk",
                starts,
                router._pool.owners_of(starts),
                8,
                {},
                (42, query),
                2,
            )
            assert np.array_equal(result.walks.matrix, expected), query
        snapshot = router.stats_snapshot()
        assert snapshot["shard_flips"] == 3
        assert snapshot["flip_full_snapshots"] == 0
    finally:
        router.close()


# --------------------------------------------------------------------- #
# chaos: SIGKILL one shard mid-dispatch
# --------------------------------------------------------------------- #
def test_killed_shard_respawns_and_retries_bitwise():
    plan = FaultPlan().kill_worker("router.dispatch", 1, shard=1)
    injector = FaultInjector(plan)
    faulted = RouterService(
        "bingo",
        make_graph(),
        shards=2,
        rng=13,
        service_seed=42,
        fault_injector=injector,
    )
    clean = RouterService(
        "bingo", make_graph(), shards=2, rng=13, service_seed=42
    )
    try:
        starts = [1, 5, 30, 57]
        faulted_results = [faulted.query("deepwalk", starts, 8) for _ in range(3)]
        clean_results = [clean.query("deepwalk", starts, 8) for _ in range(3)]
        snapshot = faulted.stats_snapshot()
        assert snapshot["shard_respawns"] == 1
        assert snapshot["worker_respawns"] == 1
        assert snapshot["wave_retries"] == 1
        assert all(snapshot["shards_alive"])
        for got, want in zip(faulted_results, clean_results):
            assert np.array_equal(got.walks.matrix, want.walks.matrix)
        # The respawned pool still flips epochs.
        faulted.ingest(insert_updates(9, np.random.default_rng(7)))
        faulted.flush()
        assert faulted.epoch == 1
        assert injector.history() == [("router.dispatch", 1, "kill_worker")]
    finally:
        faulted.close()
        clean.close()


# --------------------------------------------------------------------- #
# construction / lifecycle
# --------------------------------------------------------------------- #
def test_engine_without_frontier_serialization_is_rejected():
    graph = make_graph(20)
    with pytest.raises(ServeError, match="flowwalker"):
        RouterService("flowwalker", graph, shards=2, rng=3)


def test_service_from_config_picks_the_front():
    graph = make_graph(30)
    sharded = service_from_config(
        ServiceConfig(engine="bingo", seed=5, shards=2), graph
    )
    try:
        assert isinstance(sharded, RouterService)
    finally:
        sharded.close()
    single = service_from_config(
        ServiceConfig(engine="bingo", seed=5, shards=1), make_graph(30)
    )
    try:
        assert isinstance(single, GraphService)
        assert not isinstance(single, RouterService)
    finally:
        single.close()


def test_router_stats_report_shard_telemetry():
    router = RouterService("bingo", make_graph(), shards=2, rng=3)
    try:
        router.query("deepwalk", [0, 1, 2], 4)
        router.ingest(insert_updates(0, np.random.default_rng(4)))
        router.flush()
        snapshot = router.stats_snapshot()
        assert snapshot["shards"] == 2
        assert len(snapshot["shard_pids"]) == 2
        assert all(snapshot["shards_alive"])
        assert len(snapshot["shard_walk_busy_seconds"]) == 2
        assert snapshot["walk_critical_path_seconds"] > 0
        assert snapshot["flip_critical_path_seconds"] > 0
        assert snapshot["shard_flips"] == 1
        assert snapshot["stale_shard_replies"] == 0
    finally:
        router.close()


@pytest.mark.parametrize("engine", FRONTIER_ENGINES)
def test_one_vertex_flip_ships_a_patch_not_the_full_state(engine):
    """A healthy flip that touches one vertex sends its slices only: the
    payload stays under half of one full ``export_frontier_state``."""
    router = RouterService(engine, make_graph(), shards=2, rng=3)
    try:
        graph = router.engine.graph
        dst = next(v for v in range(graph.num_vertices) if not graph.has_edge(5, v))
        router.ingest([GraphUpdate(UpdateKind.INSERT, 5, dst, 1.5)])
        router.flush()
        snapshot = router.stats_snapshot()
        full_bytes = len(pack_arrays(router.engine.export_frontier_state()))
        assert snapshot["shard_flips"] == 1
        assert snapshot["flip_full_snapshots"] == 0
        assert 0 < snapshot["flip_payload_bytes"] < 0.5 * full_bytes
    finally:
        router.close()


def test_close_unlinks_every_shared_memory_segment():
    before = shm_count()
    router = RouterService("bingo", make_graph(), shards=2, rng=3)
    try:
        router.query("deepwalk", [0, 1], 4)
        router.ingest(insert_updates(0, np.random.default_rng(4)))
        router.flush()
    finally:
        router.close()
    assert shm_count() == before
