"""Worker-crash recovery: detection, respawn, shm hygiene, close races.

The contract under test is the chaos harness's "worker dies mid-query"
scenario: a SIGKILLed shard worker must surface as
:class:`~repro.errors.WorkerCrashError` within one liveness-poll interval
(never a hang), the pool must respawn the dead shard from the existing
shared-memory export, and no ``/dev/shm`` segment may outlive the runner
— whichever way its workers died.
"""

import os

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.errors import WorkerCrashError
from repro.serve import FaultInjector, FaultPlan, RouterService, WalkQuery
from repro.walks.parallel import ParallelWalkRunner

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


class TestCrashDetection:
    def test_killed_worker_raises_instead_of_hanging(self, graph, starts):
        injector = FaultInjector(
            FaultPlan().kill_worker("worker.step", 1, shard=1)
        )
        with ParallelWalkRunner(
            "bingo", graph, 2, fault_injector=injector
        ) as runner:
            with pytest.raises(WorkerCrashError) as info:
                runner.run_deepwalk(starts, 6, rng=11)
            assert info.value.shard == 1

    def test_crash_leaves_the_pool_open_for_respawn(self, graph, starts):
        injector = FaultInjector(
            FaultPlan().kill_worker("worker.step", 0, shard=0)
        )
        runner = ParallelWalkRunner("bingo", graph, 2, fault_injector=injector)
        try:
            with pytest.raises(WorkerCrashError):
                runner.run_deepwalk(starts, 6, rng=11)
            assert runner.respawn_dead_workers() == 1
            assert runner.respawns == 1
            # The pool is whole again.
            assert all(process.is_alive() for process in runner._workers)
        finally:
            runner.close()

    def test_respawn_is_a_noop_when_all_workers_live(self, graph, starts):
        with ParallelWalkRunner("bingo", graph, 2) as runner:
            assert runner.respawn_dead_workers() == 0
            assert runner.respawns == 0


class TestRespawnDeterminism:
    def test_retry_after_respawn_matches_the_undisturbed_run(self, graph, starts):
        with ParallelWalkRunner("bingo", graph, 2) as runner:
            reference = runner.run_deepwalk(starts, 8, rng=23).matrix

        injector = FaultInjector(
            FaultPlan().kill_worker("worker.step", 2, shard=1)
        )
        runner = ParallelWalkRunner("bingo", graph, 2, fault_injector=injector)
        try:
            with pytest.raises(WorkerCrashError):
                runner.run_deepwalk(starts, 8, rng=23)
            assert runner.respawn_dead_workers() == 1
            retried = runner.run_deepwalk(starts, 8, rng=23).matrix
        finally:
            runner.close()
        # The respawned shard rebuilt from the same engine seed over the
        # same shared export: the retried run is bitwise identical.
        np.testing.assert_array_equal(reference, retried)

    def test_straggler_replies_from_the_aborted_run_are_discarded(
        self, graph, starts
    ):
        # Kill late in the run so the surviving shard has queued replies
        # for the aborted run; the retry must not consume them.
        injector = FaultInjector(
            FaultPlan().kill_worker("worker.step", 5, shard=0)
        )
        runner = ParallelWalkRunner("bingo", graph, 2, fault_injector=injector)
        try:
            with pytest.raises(WorkerCrashError):
                runner.run_deepwalk(starts, 8, rng=23)
            runner.respawn_dead_workers()
            retried = runner.run_deepwalk(starts, 8, rng=23)
            assert retried.num_walks == len(starts)
        finally:
            runner.close()


class TestSharedMemoryHygiene:
    def test_no_orphaned_segments_after_kill_and_close(self, graph, starts):
        before = shm_entries()
        injector = FaultInjector(
            FaultPlan().kill_worker("worker.step", 0, shard=1)
        )
        runner = ParallelWalkRunner("bingo", graph, 2, fault_injector=injector)
        with pytest.raises(WorkerCrashError):
            runner.run_deepwalk(starts, 6, rng=11)
        # Close with the dead worker still dead: the terminate() path must
        # still unlink the creator-owned shared columns.
        runner.close()
        assert shm_entries() - before == set()

    def test_no_orphaned_segments_after_respawn_cycle(self, graph, starts):
        before = shm_entries()
        injector = FaultInjector(
            FaultPlan().kill_worker("worker.step", 1, shard=0)
        )
        runner = ParallelWalkRunner("bingo", graph, 2, fault_injector=injector)
        with pytest.raises(WorkerCrashError):
            runner.run_deepwalk(starts, 6, rng=11)
        runner.respawn_dead_workers()
        runner.run_deepwalk(starts, 6, rng=11)
        runner.close()
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
