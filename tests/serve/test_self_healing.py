"""Writer self-healing: quarantine, dead-letter, health, and close races."""

import pytest

from repro.bench.datasets import build_dataset
from repro.errors import DuplicateEdgeError, InjectedFault, ServeError
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.serve import (
    FaultInjector,
    FaultPlan,
    GraphService,
    TenantQuota,
    WalkQuery,
    serve_event_loop,
)


@pytest.fixture(scope="module")
def stream():
    graph = build_dataset("AM", rng=13)
    # Insert-only batches are mutually independent, so quarantining one
    # must not poison its successors.
    return generate_update_stream(
        graph,
        batch_size=60,
        num_batches=4,
        workload=UpdateWorkload.INSERTION,
        rng=13,
    )


def make_service(stream, plan, **kwargs):
    injector = FaultInjector(plan)
    service = GraphService(
        "bingo",
        stream.initial_graph,
        rng=19,
        service_seed=21,
        fault_injector=injector,
        **kwargs,
    )
    return service, injector


class TestQuarantine:
    def test_poisoned_batch_is_dropped_and_the_next_publishes(self, stream):
        service, injector = make_service(
            stream, FaultPlan().fail("writer.apply", 0, message="chaos")
        )
        try:
            service.ingest(stream.batches[0])
            service.flush()
            assert service.epoch == 0  # nothing published
            dead = service.dead_letter()
            assert len(dead) == 1
            assert dead[0]["updates"] == len(stream.batches[0])
            assert "chaos" in dead[0]["error"]

            service.ingest(stream.batches[1])
            service.flush()
            assert service.epoch == 1
            # The healthy batch's inserts are served; the poisoned one's
            # are gone.
            engine = service.engine
            batch1 = stream.batches[1]
            assert engine.has_edge(int(batch1.src[0]), int(batch1.dst[0]))
            batch0 = stream.batches[0]
            assert not engine.has_edge(int(batch0.src[0]), int(batch0.dst[0]))
            assert injector.history() == [("writer.apply", 0, "raise")]
        finally:
            service.close()

    def test_recovery_counters_and_mttr_are_recorded(self, stream):
        service, _ = make_service(
            stream, FaultPlan().fail("writer.apply", 1)
        )
        try:
            service.ingest(stream.batches[0])
            service.ingest(stream.batches[1])  # poisoned
            service.ingest(stream.batches[2])
            service.flush()
            stats = service.stats_snapshot()
            assert stats["writer_recoveries"] == 1
            assert stats["batches_quarantined"] == 1
            assert stats["recovery_seconds"] > 0
            assert stats["epochs_published"] == 2
            assert len(stats["dead_letter"]) == 1
        finally:
            service.close()

    def test_queries_keep_resolving_across_a_recovery(self, stream):
        service, _ = make_service(
            stream, FaultPlan().fail("writer.apply", 0)
        )
        try:
            tickets = service.submit_many(
                [WalkQuery("deepwalk", [1, 2, 3], 5) for _ in range(4)]
            )
            service.ingest(stream.batches[0])  # poisoned
            service.ingest(stream.batches[1])
            service.flush()
            for ticket in tickets:
                assert ticket.result(timeout=120.0).walks.num_walks == 3
            result = service.query("deepwalk", [1, 2, 3], 5, timeout=120.0)
            assert result.epoch == 1
        finally:
            service.close()

    def test_dead_letter_list_is_bounded(self, stream):
        plan = FaultPlan()
        for index in range(3):
            plan.fail("writer.apply", index)
        service, _ = make_service(
            stream, plan, dead_letter_limit=2, writer_recovery_limit=5
        )
        try:
            for batch in stream.batches[:3]:
                service.ingest(batch)
            service.flush()
            stats = service.stats_snapshot()
            assert stats["batches_quarantined"] == 3
            assert len(service.dead_letter()) == 2  # oldest entry fell off
        finally:
            service.close()

    def test_consecutive_failures_past_the_limit_latch(self, stream):
        plan = FaultPlan().fail("writer.apply", 0).fail("writer.apply", 1)
        service, _ = make_service(stream, plan, writer_recovery_limit=1)
        try:
            service.ingest(stream.batches[0])  # quarantined (streak 1)
            service.ingest(stream.batches[1])  # streak 2 > limit: latch
            with pytest.raises(ServeError, match="writer failed"):
                service.flush()
            with pytest.raises(ServeError):
                service.ingest(stream.batches[2])
        finally:
            service.close()

    def test_healthy_apply_resets_the_failure_streak(self, stream):
        plan = FaultPlan().fail("writer.apply", 0).fail("writer.apply", 2)
        service, _ = make_service(stream, plan, writer_recovery_limit=1)
        try:
            service.ingest(stream.batches[0])  # quarantined (streak 1)
            service.ingest(stream.batches[1])  # healthy: streak resets
            service.ingest(stream.batches[2])  # quarantined (streak 1 again)
            service.flush()  # no latch
            assert service.stats_snapshot()["writer_recoveries"] == 2
            assert service.epoch == 1
        finally:
            service.close()

    def test_sync_mode_raises_inline_and_never_quarantines(self, stream):
        service = GraphService("bingo", stream.initial_graph, sync=True)
        try:
            service.ingest(stream.batches[0])
            with pytest.raises(DuplicateEdgeError):
                service.ingest(stream.batches[0])  # duplicate inserts
            assert service.dead_letter() == []
        finally:
            service.close()


class TestHealth:
    def test_healthy_service_reports_healthy(self, stream):
        service, _ = make_service(stream, FaultPlan())
        try:
            health = service.health()
            assert health["healthy"] is True
            assert health["reasons"] == []
            assert health["epoch"] == 0
        finally:
            service.close()

    def test_latched_failure_reports_unhealthy(self, stream):
        service, _ = make_service(
            stream,
            FaultPlan().fail("writer.apply", 0),
            writer_recovery_limit=0,
        )
        try:
            service.ingest(stream.batches[0])
            with pytest.raises(ServeError):
                service.flush()
            health = service.health()
            assert health["healthy"] is False
            assert any("latched" in reason for reason in health["reasons"])
        finally:
            service.close()

    def test_closed_service_reports_unhealthy(self, stream):
        service, _ = make_service(stream, FaultPlan())
        service.close()
        health = service.health()
        assert health["healthy"] is False
        assert any("closed" in reason for reason in health["reasons"])


class TestHealthzHTTP:
    def test_healthz_returns_503_with_reasons_when_latched(self, stream):
        import urllib.error
        import urllib.request

        service, _ = make_service(
            stream,
            FaultPlan().fail("writer.apply", 0),
            writer_recovery_limit=0,
            default_quota=TenantQuota(max_pending=64),
        )
        server, _thread = serve_event_loop(service)
        try:
            service.ingest(stream.batches[0])
            with pytest.raises(ServeError):
                service.flush()
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(server.url + "/v1/healthz", timeout=30)
            assert info.value.code == 503
            import json

            body = json.loads(info.value.read())
            assert body["status"] == "unhealthy"
            assert any("latched" in reason for reason in body["reasons"])
            assert info.value.headers.get("Retry-After") is not None
        finally:
            server.shutdown()
            service.close()

    def test_stats_endpoint_surfaces_the_dead_letter(self, stream):
        import json
        import urllib.request

        service, _ = make_service(
            stream,
            FaultPlan().fail("writer.apply", 0, message="chaos"),
            default_quota=TenantQuota(max_pending=64),
        )
        server, _thread = serve_event_loop(service)
        try:
            service.ingest(stream.batches[0])
            service.flush()
            with urllib.request.urlopen(server.url + "/v1/stats", timeout=30) as resp:
                body = json.loads(resp.read())
            assert body["writer_recoveries"] == 1
            assert len(body["dead_letter"]) == 1
            assert "chaos" in body["dead_letter"][0]["error"]
        finally:
            server.shutdown()
            service.close()


class TestCloseDuringFaultRaces:
    def test_close_drain_during_recovery_resolves_every_ticket(self, stream):
        # The recovery warm is delayed so close(drain=True) lands while
        # the writer is still mid-rebuild.
        plan = (
            FaultPlan()
            .fail("writer.apply", 0)
            .delay("writer.warm", 0, 0.3)
        )
        service, _ = make_service(stream, plan, warm_on_publish=True)
        tickets = service.submit_many(
            [WalkQuery("deepwalk", [1, 2, 3, 4], 6) for _ in range(6)]
        )
        service.ingest(stream.batches[0])  # poisoned: recovery starts
        service.close(drain=True)
        for ticket in tickets:
            assert ticket.done
            try:
                result = ticket.result(timeout=1.0)
            except ServeError:
                continue  # a clean error honours the contract too
            assert result.walks.num_walks == 4

    def test_injected_dispatcher_fault_fails_the_wave_cleanly(self, stream):
        service, _ = make_service(
            stream, FaultPlan().fail("dispatcher.wave", 0, message="wave chaos")
        )
        try:
            tickets = service.submit_many(
                [WalkQuery("deepwalk", [1, 2], 4) for _ in range(2)]
            )
            for ticket in tickets:
                with pytest.raises(InjectedFault):
                    ticket.result(timeout=120.0)
            # The next wave is untouched.
            result = service.query("deepwalk", [1, 2], 4, timeout=120.0)
            assert result.walks.num_walks == 2
        finally:
            service.close()
