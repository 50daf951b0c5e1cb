"""The retrying HTTP client: backoff schedule, Retry-After, idempotency."""

import json
import socket
import threading

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.errors import ServeError
from repro.serve import (
    FaultInjector,
    FaultPlan,
    GraphService,
    ServiceClient,
    ServiceConfig,
    ServiceHTTPError,
    ServiceUnreachableError,
    TenantQuota,
    serve_event_loop,
)


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=47)


@pytest.fixture()
def faulty_server(graph, request):
    """A front-end whose handler fails at the occurrences the test picks."""

    def start(plan, retry_after_seconds=0.05):
        service = _service(graph)
        server, _thread = serve_event_loop(
            service,
            config=ServiceConfig(retry_after_seconds=retry_after_seconds),
            fault_injector=FaultInjector(plan),
        )
        request.addfinalizer(service.close)
        request.addfinalizer(server.shutdown)
        return server

    return start


def _service(graph):
    # The event loop submits from its only thread: the lane must reject.
    return GraphService(
        "bingo", graph, rng=53, default_quota=TenantQuota(max_pending=64)
    )


def make_client(server, **kwargs):
    sleeps = []
    kwargs.setdefault("backoff_seconds", 0.001)
    kwargs.setdefault("backoff_cap_seconds", 0.01)
    client = ServiceClient(server.url, sleep=sleeps.append, **kwargs)
    return client, sleeps


class TestConstruction:
    def test_negative_retries_rejected(self):
        with pytest.raises(ServeError, match="non-negative"):
            ServiceClient("http://localhost:1", max_retries=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [{"backoff_seconds": 0.0}, {"backoff_cap_seconds": -1.0}],
    )
    def test_non_positive_backoff_rejected(self, kwargs):
        with pytest.raises(ServeError, match="positive"):
            ServiceClient("http://localhost:1", **kwargs)


class TestRetries:
    def test_clean_query_needs_no_retry(self, faulty_server):
        client, sleeps = make_client(faulty_server(FaultPlan()))
        body = client.query("deepwalk", [0, 1, 2], 5)
        assert body["num_walks"] == 3
        assert client.retries_performed == 0
        assert sleeps == []

    def test_transient_503_is_retried_until_success(self, faulty_server):
        server = faulty_server(
            FaultPlan().fail("http.handler", 0).fail("http.handler", 1)
        )
        client, sleeps = make_client(server, max_retries=3)
        body = client.query("deepwalk", [0, 1], 5)
        assert body["num_walks"] == 2
        assert client.retries_performed == 2
        assert len(sleeps) == 2

    def test_retry_after_hint_raises_the_backoff(self, faulty_server):
        server = faulty_server(
            FaultPlan().fail("http.handler", 0), retry_after_seconds=0.5
        )
        client, sleeps = make_client(server)  # planned backoff is 1ms
        client.query("deepwalk", [0], 4)
        assert sleeps == [0.5]

    def test_backoff_doubles_and_caps_without_a_hint(self, faulty_server):
        server = faulty_server(
            FaultPlan()
            .fail("http.handler", 0)
            .fail("http.handler", 1)
            .fail("http.handler", 2),
            retry_after_seconds=0.001,
        )
        client, sleeps = make_client(
            server, max_retries=3, backoff_seconds=0.002, backoff_cap_seconds=0.004
        )
        client.query("deepwalk", [0], 4)
        assert sleeps == [0.002, 0.004, 0.004]  # 2ms, 4ms, capped at 4ms

    def test_exhausted_retries_raise_with_status(self, faulty_server):
        plan = FaultPlan()
        for occurrence in range(4):
            plan.fail("http.handler", occurrence)
        client, sleeps = make_client(faulty_server(plan), max_retries=1)
        with pytest.raises(ServiceHTTPError) as info:
            client.query("deepwalk", [0], 4)
        assert info.value.status == 503
        assert info.value.retry_after == 0.05
        assert client.retries_performed == 1
        assert len(sleeps) == 1

    def test_client_errors_are_not_retried(self, faulty_server):
        client, sleeps = make_client(faulty_server(FaultPlan()), max_retries=3)
        with pytest.raises(ServiceHTTPError) as info:
            client.query("not-an-app", [0], 4)
        assert info.value.status == 400
        assert sleeps == []


class TestIdempotency:
    def test_ingest_is_never_retried(self, faulty_server):
        # A replayed /ingest could double-apply a batch whose first
        # attempt landed; the client must surface the failure instead.
        server = faulty_server(FaultPlan().fail("http.handler", 0))
        client, sleeps = make_client(server, max_retries=5)
        with pytest.raises(ServiceHTTPError) as info:
            client.ingest([{"src": 0, "dst": 1, "kind": "insert"}])
        assert info.value.status == 503
        assert client.retries_performed == 0
        assert sleeps == []

    def test_ingest_succeeds_on_a_healthy_server(self, graph, request):
        service = _service(graph)
        server, _thread = serve_event_loop(service)
        request.addfinalizer(service.close)
        request.addfinalizer(server.shutdown)
        client, _sleeps = make_client(server)
        free = graph.num_vertices - 1
        body = client.ingest(
            [{"src": free, "dst": 0, "kind": "insert"}], flush=True
        )
        assert body["queued_updates"] == 1


class TestUnreachable:
    def test_unreachable_server_retries_then_raises(self):
        sleeps = []
        client = ServiceClient(
            "http://127.0.0.1:9",  # discard port: connection refused
            max_retries=2,
            backoff_seconds=0.001,
            timeout=2.0,
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnreachableError):
            client.stats()
        assert client.retries_performed == 2
        assert len(sleeps) == 2


class _OneRequestThenCloseServer(threading.Thread):
    """A keep-alive server that silently closes after every response.

    It answers one request per connection with ``Connection: keep-alive``
    and then drops the socket without warning — exactly what a stale
    keep-alive connection looks like from the client's side: the *next*
    request riding the dead socket fails mid-exchange.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.requests_served = 0
        self._stop = False

    def run(self):
        while not self._stop:
            try:
                sock, _addr = self.listener.accept()
            except OSError:
                return
            with sock:
                try:
                    self._serve_one(sock)
                except OSError:
                    continue

    def _serve_one(self, sock):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return
            data += chunk
        head, _sep, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(body) < length:
            body += sock.recv(65536)
        payload = json.dumps({"served": self.requests_served}).encode()
        sock.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Connection: keep-alive\r\nContent-Length: %d\r\n\r\n%s"
            % (len(payload), payload)
        )
        self.requests_served += 1
        # ...and hang up without telling the client (no Connection: close).

    def shutdown(self):
        self._stop = True
        self.listener.close()


@pytest.fixture()
def stale_server(request):
    server = _OneRequestThenCloseServer()
    server.start()
    request.addfinalizer(server.shutdown)
    return server


class TestPersistentConnection:
    def test_many_requests_reuse_one_connection(self, graph, request):
        service = _service(graph)
        server, _thread = serve_event_loop(service)
        request.addfinalizer(service.close)
        request.addfinalizer(server.shutdown)
        client, _sleeps = make_client(server)
        for _ in range(3):
            client.query("deepwalk", [0, 1], 4)
        client.stats()
        client.health()
        assert client.connections_opened == 1
        client.close()
        client.stats()  # reopened on demand after an explicit close
        assert client.connections_opened == 2

    def test_stale_keep_alive_is_reconnected_transparently(self, stale_server):
        client = ServiceClient(stale_server.url, max_retries=0)
        # Request 1 opens the connection; the server then silently drops
        # it.  Request 2 rides the stale socket, hits the disconnect, and
        # must be resent on a fresh connection — without burning a retry.
        assert client.stats()["served"] == 0
        assert client.stats()["served"] == 1
        assert client.connections_opened == 2
        assert client.retries_performed == 0

    def test_ingest_is_resent_on_a_stale_connection(self, stale_server):
        # A server that closed an idle connection never processed the
        # request riding it, so even /ingest gets the one resend.
        client = ServiceClient(stale_server.url, max_retries=0)
        client.stats()  # poison: the connection is now stale
        body = client.ingest([{"src": 0, "dst": 1, "kind": "insert"}])
        assert body["served"] == 1
        assert client.connections_opened == 2
        assert client.retries_performed == 0

    def test_context_manager_closes_the_connection(self, stale_server):
        with ServiceClient(stale_server.url) as client:
            client.stats()
            assert client.connections_opened == 1
        assert client._connection is None


class TestBinaryQueries:
    def test_binary_query_returns_decoded_walks(self, graph, request):
        service = _service(graph)
        server, _thread = serve_event_loop(service)
        request.addfinalizer(service.close)
        request.addfinalizer(server.shutdown)
        client, _sleeps = make_client(server)
        decoded = client.query("deepwalk", [0, 1, 2], 5, binary=True)
        assert decoded.matrix.shape == (3, 6)
        assert decoded.matrix.dtype == np.int64
        assert decoded.matrix[:, 0].tolist() == [0, 1, 2]
        assert decoded.fused_with >= 1
        # JSON endpoints still decode as dicts on the same client.
        assert client.stats()["engine"] == "bingo"
        assert client.connections_opened == 1

    def test_binary_errors_still_raise_with_json_payload(self, graph, request):
        service = _service(graph)
        server, _thread = serve_event_loop(service)
        request.addfinalizer(service.close)
        request.addfinalizer(server.shutdown)
        client, _sleeps = make_client(server)
        with pytest.raises(ServiceHTTPError) as info:
            client.query("deepwalk", [999999], 4, binary=True)
        assert info.value.status == 400
        assert "999999" in str(info.value.payload["error"]["message"])


class TestHealth:
    def test_health_returns_ok_payload(self, faulty_server):
        client, _sleeps = make_client(faulty_server(FaultPlan()))
        assert client.health()["status"] == "ok"

    def test_health_returns_unhealthy_payload_instead_of_raising(
        self, graph, request
    ):
        service = _service(graph)
        server, _thread = serve_event_loop(service)
        request.addfinalizer(server.shutdown)
        service.close()
        client, _sleeps = make_client(server)
        body = client.health()
        assert body["status"] == "unhealthy"
        assert any("closed" in reason for reason in body["reasons"])
