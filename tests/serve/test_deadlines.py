"""Query deadlines: validation, dispatcher drop-on-expiry, HTTP 504s."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.bench.datasets import build_dataset
from repro.errors import QueryExpiredError, QueryValidationError
from repro.serve import (
    FaultInjector,
    FaultPlan,
    GraphService,
    TenantQuota,
    WalkQuery,
    deadline_in,
    serve_event_loop,
)


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=37)


class TestDeadlineValidation:
    def test_deadline_in_is_a_future_monotonic_timestamp(self):
        before = time.monotonic()
        deadline = deadline_in(5.0)
        assert deadline >= before + 5.0

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_deadline_in_rejects_non_positive_seconds(self, seconds):
        with pytest.raises(QueryValidationError, match="positive"):
            deadline_in(seconds)

    def test_query_rejects_non_positive_deadlines(self):
        with pytest.raises(QueryValidationError, match="deadline_in"):
            WalkQuery("deepwalk", [0], 4, deadline=0.0)

    def test_expired_is_false_without_a_deadline(self):
        query = WalkQuery("deepwalk", [0], 4)
        assert query.expired() is False

    def test_expired_compares_against_monotonic_now(self):
        query = WalkQuery("deepwalk", [0], 4, deadline=100.0)
        assert query.expired(now=99.9) is False
        assert query.expired(now=100.0) is True


class TestDispatcherDropOnExpiry:
    def test_an_already_passed_deadline_fails_without_walking(self, graph):
        service = GraphService("bingo", graph, rng=41)
        try:
            # time.monotonic() is far past this, so the query reaches the
            # dispatcher pre-expired and must be dropped before fusing.
            ticket = service.submit("deepwalk", [0, 1], 5, deadline=1e-9)
            with pytest.raises(QueryExpiredError, match="retry"):
                ticket.result(timeout=30.0)
            assert service.stats_snapshot()["queries_expired"] == 1
        finally:
            service.close()

    def test_expiry_while_queued_behind_a_slow_wave(self, graph):
        # The first wave is held for 0.5s by an injected delay; the
        # deadlined query sits in its tenant lane past its 50ms budget.
        injector = FaultInjector(FaultPlan().delay("dispatcher.wave", 0, 0.5))
        service = GraphService("bingo", graph, rng=41, fault_injector=injector)
        try:
            blocker = service.submit("deepwalk", [0, 1], 5)
            time.sleep(0.1)  # let the dispatcher fuse the blocker alone
            deadlined = service.submit(
                "deepwalk", [2, 3], 5, deadline=deadline_in(0.05)
            )
            patient = service.submit("deepwalk", [4, 5], 5)
            assert blocker.result(timeout=30.0).walks.num_walks == 2
            with pytest.raises(QueryExpiredError):
                deadlined.result(timeout=30.0)
            # Only the expired query is dropped; lane-mates still walk.
            assert patient.result(timeout=30.0).walks.num_walks == 2
            assert service.stats_snapshot()["queries_expired"] == 1
        finally:
            service.close()

    def test_a_generous_deadline_does_not_expire(self, graph):
        service = GraphService("bingo", graph, rng=41)
        try:
            result = service.query(
                "deepwalk", [0, 1, 2], 5, timeout=30.0, deadline=deadline_in(60.0)
            )
            assert result.walks.num_walks == 3
            assert service.stats_snapshot()["queries_expired"] == 0
        finally:
            service.close()


class TestHTTPDeadlines:
    @pytest.fixture(scope="class")
    def server(self, graph):
        service = GraphService(
            "bingo", graph, rng=43, default_quota=TenantQuota(max_pending=64)
        )
        server, _thread = serve_event_loop(service)
        yield server
        server.shutdown()
        service.close()

    def _call(self, server, payload):
        request = urllib.request.Request(
            server.url + "/v1/query",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), json.loads(
                    response.read()
                )
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())

    @pytest.mark.parametrize("bad", ["soon", 0, -2])
    def test_bad_deadline_seconds_is_a_400(self, server, bad):
        status, _headers, body = self._call(
            server,
            {
                "application": "deepwalk",
                "starts": [0],
                "walk_length": 4,
                "deadline_seconds": bad,
            },
        )
        assert status == 400
        assert "deadline_seconds" in body["error"]["message"]

    def test_expired_query_is_a_504_with_retry_after(self, server):
        status, headers, body = self._call(
            server,
            {
                "application": "deepwalk",
                "starts": [0, 1],
                "walk_length": 4,
                "deadline_seconds": 1e-6,
            },
        )
        assert status == 504
        assert "deadline" in body["error"]["message"]
        assert float(headers["Retry-After"]) > 0

    def test_deadline_seconds_within_budget_succeeds(self, server):
        status, _headers, body = self._call(
            server,
            {
                "application": "deepwalk",
                "starts": [0, 1],
                "walk_length": 4,
                "deadline_seconds": 60,
            },
        )
        assert status == 200
        assert body["num_walks"] == 2
