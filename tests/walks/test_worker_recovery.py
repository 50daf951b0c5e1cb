"""Worker-crash recovery: detection, respawn, shm hygiene, close races.

The contract under test is the chaos harness's "worker dies mid-query"
scenario: a SIGKILLed shard worker must surface as
:class:`~repro.errors.WorkerCrashError` within one liveness-poll interval
(never a hang), the pool must respawn the dead shard from the current
snapshot, and no ``/dev/shm`` segment may outlive the pool — whichever
way its workers died.
"""

import os

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.engines.registry import create_engine
from repro.errors import WorkerCrashError
from repro.serve import FaultInjector, FaultPlan, RouterService, WalkQuery
from repro.serve.router import ShardServePool

SHM_DIR = "/dev/shm"


def shm_entries():
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        return set()
    return set(os.listdir(SHM_DIR))


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=17)


@pytest.fixture(scope="module")
def starts(graph):
    rng = np.random.default_rng(5)
    return [int(v) for v in rng.integers(0, graph.num_vertices, size=24)]


@pytest.fixture(scope="module")
def source(graph):
    """The snapshot engine every pool boots and respawns from."""
    engine = create_engine("bingo", rng=2025)
    engine.build(graph.copy())
    return engine


def _pool(source):
    return ShardServePool(
        engine_name="bingo",
        engine_kwargs=None,
        engine_seed=2025,
        graph=source.graph,
        num_shards=2,
        strategy="degree_balanced",
        source_engine=source,
        epoch=0,
    )


def _run(pool, starts, walk_length, seed):
    matrix, _ = pool.run(
        "deepwalk", np.asarray(starts, dtype=np.int64), walk_length, {}, (seed,), 0
    )
    return matrix


class TestCrashDetection:
    def test_killed_worker_raises_instead_of_hanging(self, source, starts):
        pool = _pool(source)
        try:
            pool.kill_worker(1)
            with pytest.raises(WorkerCrashError) as info:
                _run(pool, starts, 6, 11)
            assert info.value.shard == 1
        finally:
            pool.close()

    def test_crash_leaves_the_pool_open_for_respawn(self, source, starts):
        pool = _pool(source)
        try:
            pool.kill_worker(0)
            with pytest.raises(WorkerCrashError):
                _run(pool, starts, 6, 11)
            assert pool.respawn(source, 0) == [0]
            assert pool.respawns == 1
            # The pool is whole again.
            assert all(pool.alive())
        finally:
            pool.close()

    def test_respawn_is_a_noop_when_all_workers_live(self, source, starts):
        pool = _pool(source)
        try:
            assert pool.respawn(source, 0) == []
            assert pool.respawns == 0
        finally:
            pool.close()


class TestRespawnDeterminism:
    def test_retry_after_respawn_matches_the_undisturbed_run(self, source, starts):
        pool = _pool(source)
        try:
            reference = _run(pool, starts, 8, 23)
        finally:
            pool.close()

        pool = _pool(source)
        try:
            pool.kill_worker(1)
            with pytest.raises(WorkerCrashError):
                _run(pool, starts, 8, 23)
            assert pool.respawn(source, 0) == [1]
            retried = _run(pool, starts, 8, 23)
        finally:
            pool.close()
        # The respawned shard booted from the same snapshot and engine
        # seed, and the seed key is the same: the retry is bitwise equal.
        np.testing.assert_array_equal(reference, retried)

    def test_straggler_replies_from_the_aborted_run_are_discarded(
        self, source, starts
    ):
        # Shard 0's EOF surfaces at once while shard 1 is still walking,
        # so shard 1's reply to the aborted run is left queued on its
        # pipe; the retry must not consume it.
        pool = _pool(source)
        try:
            pool.kill_worker(0)
            with pytest.raises(WorkerCrashError):
                _run(pool, starts, 8, 23)
            pool.respawn(source, 0)
            retried = _run(pool, starts, 8, 23)
            assert retried.shape[0] == len(starts)
            assert (retried[:, 0] == starts).all()
        finally:
            pool.close()


class TestSharedMemoryHygiene:
    def test_no_orphaned_segments_after_kill_and_close(self, source, starts):
        before = shm_entries()
        pool = _pool(source)
        pool.kill_worker(1)
        with pytest.raises(WorkerCrashError):
            _run(pool, starts, 6, 11)
        # Close with the dead worker still dead: no export outlives boot,
        # and the close path must not leave one behind either.
        pool.close()
        assert shm_entries() - before == set()

    def test_no_orphaned_segments_after_respawn_cycle(self, source, starts):
        before = shm_entries()
        pool = _pool(source)
        pool.kill_worker(0)
        with pytest.raises(WorkerCrashError):
            _run(pool, starts, 6, 11)
        pool.respawn(source, 0)
        _run(pool, starts, 6, 11)
        pool.close()
        assert shm_entries() - before == set()


class TestServiceLevelRecovery:
    """The same contract one layer up: a shard process SIGKILLed under the
    serve router is respawned and its wave retried, and no ticket hangs."""

    def test_wave_is_retried_once_and_tickets_resolve(self, graph, starts):
        injector = FaultInjector(
            FaultPlan().kill_worker("router.dispatch", 0, shard=1)
        )
        service = RouterService(
            "bingo", graph, shards=2, rng=29, fault_injector=injector
        )
        try:
            tickets = service.submit_many(
                [WalkQuery("deepwalk", starts, 6) for _ in range(3)]
            )
            for ticket in tickets:
                result = ticket.result(timeout=120.0)
                assert result.walks.num_walks == len(starts)
            stats = service.stats_snapshot()
            assert stats["worker_respawns"] == 1
            assert stats["wave_retries"] == 1
            assert all(stats["shards_alive"])
        finally:
            service.close()
        assert injector.history() == [("router.dispatch", 0, "kill_worker")]

    def test_close_drain_during_a_retried_wave_resolves_every_ticket(
        self, graph, starts
    ):
        injector = FaultInjector(
            FaultPlan().kill_worker("router.dispatch", 0, shard=0)
        )
        service = RouterService(
            "bingo", graph, shards=2, rng=29, fault_injector=injector
        )
        tickets = service.submit_many(
            [WalkQuery("deepwalk", starts, 6) for _ in range(4)]
        )
        service.close(drain=True)
        for ticket in tickets:
            assert ticket.done
            try:
                result = ticket.result(timeout=1.0)
            except Exception:
                continue  # failed cleanly — the contract allows it
            assert result.walks.num_walks == len(starts)
        assert injector.history() == [("router.dispatch", 0, "kill_worker")]
        assert service.stats.wave_retries == 1
