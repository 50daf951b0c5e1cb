"""Shutdown and tenancy edges: stragglers, quota races, closed-mid-request.

``close(timeout=...)`` used to return as if the service had shut down even
when a worker thread outlived the join; now it raises, and these tests
drive the surrounding races: a quota-full rejection racing
``close(drain=True)``, and the event-loop front-end's behaviour when the
service closes under an in-flight request.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.bench.datasets import build_dataset
from repro.errors import (
    QuotaExceededError,
    ServeError,
    ServiceClosedError,
)
from repro.serve import GraphService, TenantQuota, serve_event_loop


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=19)


def _slow_wave(service, seconds):
    """Make every wave execution linger, keeping the dispatcher busy."""
    original = service._execute_wave

    def slowed(wave):
        time.sleep(seconds)
        original(wave)

    service._execute_wave = slowed
    return original


class TestCloseTimeout:
    def test_straggling_dispatcher_raises_instead_of_silent_success(self, graph):
        service = GraphService(
            "bingo", graph, rng=29, fuse_limit=1, fuse_window_seconds=0.0
        )
        _slow_wave(service, 1.0)
        ticket = service.submit("deepwalk", [0], 3)
        time.sleep(0.05)  # let the dispatcher enter the slow wave
        with pytest.raises(ServeError, match="still running"):
            service.close(timeout=0.1)
        # The service is closed for submitters even though a thread
        # straggled; the in-flight ticket still resolves once the slow
        # wave finishes.
        with pytest.raises(ServiceClosedError):
            service.submit("deepwalk", [0], 3)
        assert ticket.result(timeout=10.0).walks.num_walks == 1
        # A second close is idempotent and must not raise again.
        service.close(timeout=10.0)

    def test_generous_timeout_does_not_raise(self, graph):
        service = GraphService("bingo", graph, rng=29)
        service.submit("deepwalk", [0, 1], 4)
        service.close(timeout=30.0)


class TestQuotaRacingClose:
    def test_quota_full_rejection_racing_drain_close(self, graph):
        """Submitters racing close() either get a clean quota/closed error
        or their ticket resolves — nothing hangs, nothing dangles."""
        service = GraphService(
            "bingo",
            graph,
            rng=29,
            fuse_limit=1,
            fuse_window_seconds=0.0,
            tenants={"t": TenantQuota(max_pending=2)},
        )
        _slow_wave(service, 0.05)
        outcomes = []
        tickets = []
        lock = threading.Lock()

        def submitter():
            for _ in range(6):
                try:
                    ticket = service.submit("deepwalk", [0], 3, tenant="t")
                    with lock:
                        tickets.append(ticket)
                except (QuotaExceededError, ServiceClosedError) as exc:
                    with lock:
                        outcomes.append(type(exc).__name__)

        threads = [
            threading.Thread(target=submitter, name=f"submitter-{index}")
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.03)
        service.close(drain=True, timeout=30.0)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        # Every admitted ticket resolved one way or the other: drained
        # tickets carry walks, raced ones a clean closed error.
        for ticket in tickets:
            assert ticket._event.wait(timeout=10.0)
            try:
                assert ticket.result(timeout=0.0).walks.num_walks == 1
            except ServiceClosedError:
                pass
        # At least one submission hit a bounded-queue or closed rejection
        # (18 submissions against a 2-deep lane and a 50 ms wave).
        assert outcomes

    def test_drain_false_cancels_with_closed_error(self, graph):
        service = GraphService(
            "bingo", graph, rng=29, fuse_limit=1, fuse_window_seconds=0.0
        )
        _slow_wave(service, 0.1)
        tickets = [service.submit("deepwalk", [0], 3) for _ in range(5)]
        service.close(drain=False, timeout=30.0)
        resolved, cancelled = 0, 0
        for ticket in tickets:
            try:
                ticket.result(timeout=10.0)
                resolved += 1
            except ServiceClosedError:
                cancelled += 1
        assert resolved + cancelled == 5
        assert cancelled >= 1


class TestHTTPClosedService:
    def test_query_against_closed_service_returns_503(self, graph):
        service = GraphService(
            "bingo", graph, rng=29, default_quota=TenantQuota(max_pending=64)
        )
        server, _ = serve_event_loop(service)
        service.close()
        try:
            request = urllib.request.Request(
                server.url + "/v1/query",
                data=json.dumps(
                    {"application": "deepwalk", "starts": [0], "walk_length": 3}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
            assert (
                json.loads(excinfo.value.read())["error"]["code"]
                == "service_closed"
            )
        finally:
            server.shutdown()

    def test_service_closed_mid_request_returns_503(self, graph):
        """A request waiting on its ticket sees the cancellation as 503."""
        service = GraphService(
            "bingo",
            graph,
            rng=29,
            fuse_limit=1,
            fuse_window_seconds=0.0,
            default_quota=TenantQuota(max_pending=64),
        )
        _slow_wave(service, 0.5)
        server, _ = serve_event_loop(service)
        responses = []

        def client():
            request = urllib.request.Request(
                server.url + "/v1/query",
                data=json.dumps(
                    {"application": "deepwalk", "starts": [0], "walk_length": 3}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as resp:
                    responses.append(resp.status)
            except urllib.error.HTTPError as error:
                responses.append(error.code)

        threads = [
            threading.Thread(target=client, name=f"client-{index}")
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # handlers submitted; first wave is in its sleep
        service.close(drain=False, timeout=30.0)
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        server.shutdown()
        assert len(responses) == 3
        # The in-flight wave may finish (200); every cancelled ticket maps
        # to a clean 503, never a hang or a 500.
        assert set(responses) <= {200, 503}
        assert 503 in responses
