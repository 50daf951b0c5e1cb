"""Fair-share scheduling, quotas and per-tenant stats.

The :class:`FairShareQueue` unit tests pin down the deficit-round-robin
contract deterministically (no threads); the service-level tests check
that tenancy actually protects a light tenant's latency from a flooding
co-tenant and that the per-tenant stats add up.
"""

import queue

import pytest

from repro.bench.datasets import build_dataset
from repro.errors import QuotaExceededError, ServeError, ServiceClosedError
from repro.serve import GraphService, TenantQuota, WalkQuery
from repro.serve.queries import QueryTicket
from repro.serve.tenancy import FairShareQueue


def _ticket(tag: int, tenant: str) -> QueryTicket:
    query = WalkQuery(application="deepwalk", starts=[tag], walk_length=2)
    return QueryTicket(query, tenant)


def _tags(wave):
    return [(ticket.tenant, ticket.query.starts[0]) for ticket in wave]


class TestFairShareQueue:
    def test_round_robin_alternates_equal_weights(self):
        fuser = FairShareQueue(
            {"a": TenantQuota(max_pending=10), "b": TenantQuota(max_pending=10)}
        )
        fuser.put("a", [_ticket(i, "a") for i in range(4)])
        fuser.put("b", [_ticket(i, "b") for i in range(4)])
        wave = fuser.get_wave(4, timeout=0.1)
        assert _tags(wave) == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_weighted_turns_favour_heavier_tenant(self):
        fuser = FairShareQueue(
            {
                "heavy": TenantQuota(max_pending=10, weight=2.0),
                "light": TenantQuota(max_pending=10, weight=1.0),
            }
        )
        fuser.put("heavy", [_ticket(i, "heavy") for i in range(6)])
        fuser.put("light", [_ticket(i, "light") for i in range(6)])
        wave = fuser.get_wave(6, timeout=0.1)
        heavy = sum(1 for tenant, _ in _tags(wave) if tenant == "heavy")
        assert heavy == 4  # 2:1 weights over a 6-slot wave

    def test_fractional_weight_is_served_every_other_turn(self):
        fuser = FairShareQueue(
            {
                "full": TenantQuota(max_pending=20),
                "half": TenantQuota(max_pending=20, weight=0.5),
            }
        )
        fuser.put("full", [_ticket(i, "full") for i in range(8)])
        fuser.put("half", [_ticket(i, "half") for i in range(8)])
        wave = fuser.get_wave(9, timeout=0.1)
        half = sum(1 for tenant, _ in _tags(wave) if tenant == "half")
        assert half == 3  # one "half" slot per three drained

    def test_flood_cannot_exclude_a_late_light_submitter(self):
        fuser = FairShareQueue(default_quota=TenantQuota(max_pending=600))
        fuser.put("flood", [_ticket(i, "flood") for i in range(500)])
        assert all(tenant == "flood" for tenant, _ in _tags(fuser.get_wave(4, timeout=0.1)))
        fuser.put("light", [_ticket(0, "light")])
        wave = fuser.get_wave(4, timeout=0.1)
        assert ("light", 0) in _tags(wave)

    def test_quota_rejection_counts_and_raises(self):
        fuser = FairShareQueue({"a": TenantQuota(max_pending=2)})
        fuser.put("a", [_ticket(0, "a"), _ticket(1, "a")])
        with pytest.raises(QuotaExceededError):
            fuser.put("a", [_ticket(2, "a")])
        stats = fuser.tenant_stats()["a"]
        assert stats.admitted == 2
        assert stats.rejected == 1

    def test_oversized_single_submission_is_rejected_outright(self):
        fuser = FairShareQueue({"a": TenantQuota(max_pending=2)})
        with pytest.raises(QuotaExceededError):
            fuser.put("a", [_ticket(i, "a") for i in range(3)])
        assert fuser.pending_count("a") == 0

    def test_strict_mode_rejects_unknown_tenants(self):
        fuser = FairShareQueue({"known": TenantQuota()}, strict=True)
        with pytest.raises(QuotaExceededError):
            fuser.put("mystery", [_ticket(0, "mystery")])

    def test_closed_queue_rejects_and_wakes(self):
        fuser = FairShareQueue()
        fuser.close()
        with pytest.raises(ServiceClosedError):
            fuser.put("a", [_ticket(0, "a")])
        assert fuser.get_wave(4, timeout=0.1) is None

    def test_drain_pending_empties_every_lane(self):
        fuser = FairShareQueue()
        fuser.put("a", [_ticket(0, "a")])
        fuser.put("b", [_ticket(0, "b"), _ticket(1, "b")])
        assert len(fuser.drain_pending()) == 3
        assert fuser.pending_count() == 0

    def test_invalid_quota_parameters(self):
        with pytest.raises(ServeError):
            TenantQuota(max_pending=0)
        with pytest.raises(ServeError):
            TenantQuota(weight=0.0)


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=11)


class TestServiceTenancy:
    def test_light_tenant_is_served_while_flood_still_queued(self, graph):
        """DRR fusing: a late light query overtakes a deep flood backlog."""
        flood_queries = 120
        service = GraphService(
            "bingo",
            graph,
            rng=17,
            fuse_limit=4,
            fuse_window_seconds=0.0,
            tenants={
                "flood": TenantQuota(max_pending=flood_queries + 1),
                "light": TenantQuota(max_pending=4),
            },
        )
        try:
            flood_tickets = service.submit_many(
                [
                    WalkQuery(application="deepwalk", starts=[v % 64], walk_length=8)
                    for v in range(flood_queries)
                ],
                tenant="flood",
            )
            light = service.submit("deepwalk", [1, 2, 3], 8, tenant="light")
            # Count on the resolving thread, at the moment the light query
            # completes: counting after result() returns would also count
            # every flood wave served while this thread waited to be
            # scheduled again.
            counted: queue.Queue[int] = queue.Queue()
            light.add_done_callback(
                lambda _: counted.put(sum(1 for ticket in flood_tickets if not ticket.done))
            )
            light.result(timeout=60.0)
            flood_pending = counted.get(timeout=60.0)
            # The light query resolved while a meaningful share of the
            # flood was still waiting — FIFO would have served all 120
            # flood queries first.
            assert flood_pending > 10
        finally:
            service.close()
        for ticket in flood_tickets:
            assert ticket.result(timeout=1.0).walks.num_walks == 1

    def test_default_lane_rejects_waves_beyond_max_pending(self, graph):
        """Without tenancy the implicit lane is
        ``TenantQuota(max_pending=max_pending_queries)``: an oversize wave
        is rejected whole, never parked."""
        service = GraphService("bingo", graph, rng=17, max_pending_queries=8)
        try:
            with pytest.raises(QuotaExceededError):
                service.submit_many(
                    [
                        WalkQuery(application="deepwalk", starts=[v % 32], walk_length=4)
                        for v in range(40)
                    ]
                )
            tickets = service.submit_many(
                [
                    WalkQuery(application="deepwalk", starts=[v], walk_length=4)
                    for v in range(8)
                ]
            )
            for ticket in tickets:
                assert ticket.result(timeout=60.0).walks.num_walks == 1
        finally:
            service.close()

    def test_stats_snapshot_is_safe_under_live_traffic(self, graph):
        """stats_snapshot / tenant_summaries take the locks the dispatcher
        appends under — polling them mid-serve must never fault."""
        import threading

        service = GraphService(
            "bingo", graph, rng=17, fuse_limit=2, max_pending_queries=128
        )
        failures = []

        def poll():
            try:
                for _ in range(200):
                    service.stats_snapshot()
                    service.tenant_summaries()
            except Exception as exc:  # pragma: no cover - the regression
                failures.append(exc)

        try:
            poller = threading.Thread(target=poll, name="stats-poller")
            poller.start()
            tickets = service.submit_many(
                [
                    WalkQuery(application="deepwalk", starts=[v % 64], walk_length=6)
                    for v in range(120)
                ],
                tenant="poller-co",
            )
            for ticket in tickets:
                ticket.result(timeout=60.0)
            poller.join(timeout=30.0)
        finally:
            service.close()
        assert not failures
        snapshot = service.stats_snapshot()
        assert snapshot["queries_served"] == 120
        assert service.tenant_summaries()["poller-co"]["served"] == 120

    def test_per_tenant_stats_accumulate(self, graph):
        service = GraphService("bingo", graph, rng=17)
        try:
            service.query("deepwalk", [0, 1], 4, tenant="alice", timeout=30.0)
            service.query("ppr", [2], 4, tenant="bob", timeout=30.0)
            service.query("deepwalk", [3], 4, tenant="alice", timeout=30.0)
        finally:
            service.close()
        stats = service.tenant_stats()
        assert stats["alice"].admitted == 2
        assert stats["alice"].served == 2
        assert stats["bob"].served == 1
        assert len(stats["alice"].latencies) == 2
        assert stats["alice"].latency_percentiles()["p99"] > 0

    def test_sync_mode_tracks_tenants_inline(self, graph):
        service = GraphService("bingo", graph, rng=17, sync=True)
        try:
            service.query("deepwalk", [5], 3, tenant="inline")
        finally:
            service.close()
        stats = service.tenant_stats()["inline"]
        assert (stats.admitted, stats.served) == (1, 1)

    def test_quota_rejection_via_service_when_dispatcher_is_busy(self, graph):
        service = GraphService(
            "bingo",
            graph,
            rng=17,
            fuse_limit=1,
            fuse_window_seconds=0.0,
            tenants={"t": TenantQuota(max_pending=2)},
        )
        try:
            # Stall the dispatcher so the lane genuinely fills up.
            original = service._execute_wave
            import time as _time

            service._execute_wave = lambda wave: (_time.sleep(0.2), original(wave))
            tickets = service.submit_many(
                [
                    WalkQuery(application="deepwalk", starts=[0], walk_length=2)
                    for _ in range(2)
                ],
                tenant="t",
            )
            with pytest.raises(QuotaExceededError):
                service.submit_many(
                    [
                        WalkQuery(application="deepwalk", starts=[0], walk_length=2)
                        for _ in range(3)
                    ],
                    tenant="t",
                )
            service._execute_wave = original
            for ticket in tickets:
                ticket.result(timeout=30.0)
        finally:
            service.close()
        assert service.tenant_stats()["t"].rejected == 3


class TestWarming:
    def test_back_buffer_is_warm_at_publication(self, graph):
        from repro.graph.update_stream import UpdateWorkload, generate_update_stream

        stream = generate_update_stream(
            graph.copy(), batch_size=60, num_batches=2,
            workload=UpdateWorkload.MIXED, rng=5,
        )
        warm = GraphService(
            "bingo", stream.initial_graph, rng=23, warm_on_publish=True
        )
        try:
            for batch in stream.batches:
                warm.ingest(batch)
            warm.flush()
            front = warm._buffers[warm._front]
            # The published snapshot's fused tables were built by the
            # writer *before* the flip — no query has run yet.
            assert front.engine.frontier_tables.full_builds == 1
            assert warm.stats.epochs_warmed == 2
            assert warm.stats.warm_seconds > 0
        finally:
            warm.close()

        cold = GraphService(
            "bingo", stream.initial_graph, rng=23, warm_on_publish=False
        )
        try:
            cold.ingest(stream.batches[0])
            cold.flush()
            assert cold._buffers[cold._front].engine.frontier_tables.full_builds == 0
            assert cold.stats.epochs_warmed == 0
        finally:
            cold.close()

    def test_warming_does_not_change_results(self, graph):
        from repro.graph.update_stream import UpdateWorkload, generate_update_stream

        stream = generate_update_stream(
            graph.copy(), batch_size=60, num_batches=2,
            workload=UpdateWorkload.MIXED, rng=5,
        )
        matrices = []
        for warm_on_publish in (False, True):
            service = GraphService(
                "bingo",
                stream.initial_graph,
                rng=23,
                warm_on_publish=warm_on_publish,
            )
            try:
                for batch in stream.batches:
                    service.ingest(batch)
                service.flush()
                result = service.query(
                    "deepwalk", [0, 1, 2, 3], 6, rng=99, timeout=30.0
                )
                matrices.append(result.walks.matrix)
            finally:
                service.close()
        assert (matrices[0] == matrices[1]).all()

    def test_flowwalker_has_nothing_to_warm_but_still_serves(self, graph):
        """Engines without a fused-table cache pass through warming cleanly."""
        from repro.graph.update_stream import UpdateWorkload, generate_update_stream

        stream = generate_update_stream(
            graph.copy(), batch_size=40, num_batches=1,
            workload=UpdateWorkload.MIXED, rng=5,
        )
        service = GraphService(
            "flowwalker", stream.initial_graph, rng=23, warm_on_publish=True
        )
        try:
            service.ingest(stream.batches[0])
            service.flush()
            result = service.query("deepwalk", [0, 1], 4, timeout=30.0)
            assert result.walks.num_walks == 2
            # Warming ran (and was counted) even though there was no cache
            # to build.
            assert service.stats.epochs_warmed == 1
        finally:
            service.close()
