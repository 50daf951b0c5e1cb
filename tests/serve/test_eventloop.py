"""The event-loop front-end: endpoints, error mapping, pipelining,
admission wiring, disconnects."""

import http.client
import json
import socket
import struct
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.errors import ServeError
from repro.serve import (
    GraphService,
    ServiceClient,
    ServiceConfig,
    TenantQuota,
    serve_event_loop,
)


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=23)


@pytest.fixture(scope="module")
def server(graph):
    # The event loop needs *rejecting* admission (a blocking lane would
    # park the loop thread itself) — same wiring the CLI and bench use.
    service = GraphService(
        "bingo",
        graph,
        rng=31,
        warm_on_publish=True,
        default_quota=TenantQuota(max_pending=256),
        tenants={"alice": TenantQuota(max_pending=32, weight=2.0)},
    )
    server, _thread = serve_event_loop(service)
    yield server
    server.shutdown()
    service.close()


def _call(server, path, payload=None, headers=None, timeout=30):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _connect(server):
    host, port = server.server_address[:2]
    sock = socket.create_connection((host, port), timeout=10)
    return sock


def _read_response(reader):
    """Parse one HTTP response (Content-Length or chunked) off a reader."""
    status_line = reader.readline()
    assert status_line, "server closed before sending a status line"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = b""
        while True:
            size = int(reader.readline().strip(), 16)
            if size == 0:
                reader.readline()
                break
            body += reader.read(size)
            reader.readline()
    else:
        body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def _query_request(payload=None, path="/v1/query"):
    body = json.dumps(
        payload
        if payload is not None
        else {"application": "deepwalk", "starts": [0, 1], "walk_length": 4}
    ).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json"
        f"\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestEndpointParity:
    """The /v1 endpoints, routed through the shared protocol module."""

    def test_healthz(self, server):
        status, body = _call(server, "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["epoch"] >= 0

    def test_query_returns_walks_and_epoch(self, server, graph):
        status, body = _call(
            server,
            "/v1/query",
            {"application": "deepwalk", "starts": [0, 1, 2], "walk_length": 5},
        )
        assert status == 200
        assert body["num_walks"] == 3
        assert len(body["walks"]) == 3
        assert len(body["walks"][0]) == 6
        assert body["walks"][0][0] == 0
        for row in body["walks"]:
            for vertex in row:
                assert -1 <= vertex < graph.num_vertices
        assert body["fused_with"] >= 1
        assert body["latency_seconds"] > 0

    def test_query_params_reach_the_application(self, server):
        status, body = _call(
            server,
            "/v1/query",
            {
                "application": "ppr",
                "starts": [4],
                "walk_length": 6,
                "params": {"termination_probability": 1.0},
            },
        )
        assert status == 200
        # Termination probability 1 kills the walker before its first step.
        assert body["total_steps"] == 0

    def test_null_timeout_uses_server_default(self, server):
        status, body = _call(
            server,
            "/v1/query",
            {
                "application": "deepwalk",
                "starts": [0],
                "walk_length": 3,
                "timeout": None,
            },
        )
        assert status == 200
        assert body["num_walks"] == 1

    def test_tenant_header_routes_to_lane(self, server):
        _call(
            server,
            "/v1/query",
            {"application": "deepwalk", "starts": [5], "walk_length": 3},
            headers={"X-Tenant": "alice"},
        )
        status, stats = _call(server, "/v1/stats")
        assert status == 200
        assert stats["tenants"]["alice"]["served"] >= 1
        assert stats["tenants"]["alice"]["latency_p99_seconds"] > 0

    def test_stats_reports_service_counters(self, server):
        _call(
            server,
            "/v1/query",
            {"application": "deepwalk", "starts": [0], "walk_length": 2},
        )
        status, body = _call(server, "/v1/stats")
        assert status == 200
        assert body["engine"] == "bingo"
        assert body["queries_served"] >= 1
        assert body["epochs_warmed"] >= 0
        assert "default" in body["tenants"]

    def test_ingest_with_flush_publishes_before_answering(self, server, graph):
        # The deferred-flush path: the loop holds the 202 until the
        # update queue drains, then restamps the epoch it published.
        _status, before = _call(server, "/v1/stats")
        new_vertex = graph.num_vertices + 7
        status, body = _call(
            server,
            "/v1/ingest",
            {
                "updates": [{"src": new_vertex, "dst": 0, "kind": "insert"}],
                "flush": True,
            },
        )
        assert status == 202
        assert body["queued_updates"] == 1
        assert body["epoch"] > before["epoch"]
        status, body = _call(
            server,
            "/v1/query",
            {"application": "deepwalk", "starts": [new_vertex], "walk_length": 2},
        )
        assert status == 200
        assert body["walks"][0][:2] == [new_vertex, 0]

    def test_ingest_applies_updates(self, server, graph):
        # Without ``flush`` the 202 answers at once; the update becomes
        # visible with the next published epoch.
        new_vertex = graph.num_vertices + 1
        status, body = _call(
            server,
            "/v1/ingest",
            {
                "updates": [
                    {"src": new_vertex, "dst": 0, "kind": "insert", "bias": 2.0}
                ],
            },
        )
        assert status == 202
        assert body["queued_updates"] == 1
        # A later flushing ingest (of an unrelated edge) publishes both.
        status, _body = _call(
            server,
            "/v1/ingest",
            {
                "updates": [{"src": new_vertex + 1, "dst": 1, "kind": "insert"}],
                "flush": True,
            },
        )
        assert status == 202
        status, body = _call(
            server,
            "/v1/query",
            {"application": "deepwalk", "starts": [new_vertex], "walk_length": 2},
        )
        assert status == 200
        assert body["walks"][0][:2] == [new_vertex, 0]

    def test_unknown_path_is_404(self, server):
        assert _call(server, "/nope", {})[0] == 404
        assert _call(server, "/nope")[0] == 404
        assert _call(server, "/v1/nope", {})[0] == 404

    def test_missing_fields_are_400(self, server):
        status, body = _call(server, "/v1/query", {"application": "deepwalk"})
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_invalid_start_vertex_is_400_with_message(self, server):
        status, body = _call(
            server,
            "/v1/query",
            {"application": "deepwalk", "starts": [999999], "walk_length": 3},
        )
        assert status == 400
        assert body["error"]["code"] == "query_validation"
        assert "999999" in body["error"]["message"]

    def test_scalar_starts_are_400_not_500(self, server):
        status, body = _call(
            server,
            "/v1/query",
            {"application": "deepwalk", "starts": 5, "walk_length": 3},
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_bad_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/query",
            data=b"not json {",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_timeout_values_are_400(self, server):
        for timeout in ("abc", -1, 0):
            status, body = _call(
                server,
                "/v1/query",
                {
                    "application": "deepwalk",
                    "starts": [0],
                    "walk_length": 3,
                    "timeout": timeout,
                },
            )
            assert status == 400, timeout
            assert body["error"]["code"] == "bad_request", timeout

    def test_unknown_application_is_400(self, server):
        status, body = _call(
            server,
            "/v1/query",
            {"application": "pagerank", "starts": [0], "walk_length": 3},
        )
        assert status == 400
        assert "pagerank" in body["error"]["message"]

    def test_malformed_ingest_is_400(self, server):
        for payload in (
            {"updates": []},
            {"updates": [{"src": 1}]},
            {"updates": [{"src": 1, "dst": 2, "kind": "upsert"}]},
            {},
        ):
            status, body = _call(server, "/v1/ingest", payload)
            assert status == 400, payload
            assert body["error"]["code"] == "bad_request", payload


class TestBinaryWire:
    def test_binary_query_decodes_to_the_json_matrix(self, server):
        client = ServiceClient(server.url, max_retries=0)
        try:
            json_body = client.query("deepwalk", [0, 1, 2], 5)
            decoded = client.query("deepwalk", [0, 1, 2], 5, binary=True)
            assert decoded.matrix.shape == (3, 6)
            assert decoded.matrix.dtype == np.int64
            # Same starts column as the JSON path (walk tails differ by rng).
            assert decoded.matrix[:, 0].tolist() == [
                row[0] for row in json_body["walks"]
            ]
            assert decoded.num_walks == json_body["num_walks"]
        finally:
            client.close()

    def test_binary_empty_start_query_is_header_only(self, server):
        client = ServiceClient(server.url, max_retries=0)
        try:
            decoded = client.query("deepwalk", [], 7, binary=True)
            assert decoded.matrix.shape == (0, 8)
            assert decoded.total_steps == 0
        finally:
            client.close()

    def test_streamed_response_is_chunked_and_complete(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/query",
                body=json.dumps(
                    {
                        "application": "deepwalk",
                        "starts": [0, 1],
                        "walk_length": 4,
                        "stream": True,
                    }
                ),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            body = json.loads(response.read())
            assert body["num_walks"] == 2
        finally:
            connection.close()


class TestConnectionHandling:
    def test_keep_alive_serves_many_requests_on_one_connection(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
                response.read()
        finally:
            connection.close()

    def test_pipelined_requests_answered_in_order(self, server):
        sock = _connect(server)
        try:
            first = _query_request(
                {"application": "deepwalk", "starts": [0], "walk_length": 3}
            )
            second = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            sock.sendall(first + second)
            reader = sock.makefile("rb")
            status, _headers, body = _read_response(reader)
            assert status == 200
            assert json.loads(body)["num_walks"] == 1  # /query first
            status, _headers, body = _read_response(reader)
            assert status == 200
            assert json.loads(body)["status"] == "ok"  # then /healthz
        finally:
            sock.close()

    def test_request_split_at_every_byte_boundary_still_parses(self, server):
        request = _query_request(
            {"application": "deepwalk", "starts": [1], "walk_length": 2}
        )
        sock = _connect(server)
        try:
            for offset in range(len(request)):
                sock.sendall(request[offset : offset + 1])
            status, _headers, body = _read_response(sock.makefile("rb"))
            assert status == 200
            assert json.loads(body)["num_walks"] == 1
        finally:
            sock.close()

    def test_oversized_content_length_is_413_before_the_body(self, server):
        sock = _connect(server)
        try:
            sock.sendall(
                b"POST /v1/ingest HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 99999999999\r\n\r\n"
            )  # no body byte ever sent
            status, headers, body = _read_response(sock.makefile("rb"))
            assert status == 413
            assert json.loads(body)["error"]["code"] == "payload_too_large"
            assert headers["connection"] == "close"
        finally:
            sock.close()

    def test_malformed_request_line_is_400_and_closes(self, server):
        sock = _connect(server)
        try:
            sock.sendall(b"TOTALLY BOGUS\r\n\r\n")
            status, headers, body = _read_response(sock.makefile("rb"))
            assert status == 400
            assert headers["connection"] == "close"
        finally:
            sock.close()

    def test_stalled_partial_request_is_timed_out_with_400(self, graph):
        service = GraphService(
            "bingo", graph, rng=41, default_quota=TenantQuota(max_pending=64)
        )
        server, _thread = serve_event_loop(
            service, config=ServiceConfig(body_timeout=0.2)
        )
        try:
            sock = _connect(server)
            try:
                # Declare a body, never deliver it.
                sock.sendall(
                    b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 50\r\n\r\n{"
                )
                status, headers, _body = _read_response(sock.makefile("rb"))
                assert status == 400
                assert headers["connection"] == "close"
            finally:
                sock.close()
        finally:
            server.shutdown()
            service.close()


def _slowed(service, seconds):
    original = service._execute_wave

    def run(wave):
        time.sleep(seconds)
        original(wave)

    service._execute_wave = run


class TestAdmissionWiring:
    """The loop submits from its only thread: a full lane must reject."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},  # no tenancy: the implicit back-pressure lane
            {"default_quota": TenantQuota(max_pending=2, block_when_full=True)},
            {
                "default_quota": TenantQuota(max_pending=2),
                "tenants": {"bulk": TenantQuota(block_when_full=True)},
            },
        ],
    )
    def test_blocking_lane_is_refused_with_the_fix_named(self, graph, kwargs):
        service = GraphService(
            "bingo", graph, rng=67, max_pending_queries=2, fuse_limit=1, **kwargs
        )
        try:
            with pytest.raises(ServeError, match="default_quota=.*tenants="):
                serve_event_loop(service)
        finally:
            service.close()

    def test_full_rejecting_lane_answers_429_and_never_stalls_the_loop(
        self, graph
    ):
        service = GraphService(
            "bingo",
            graph,
            rng=67,
            fuse_limit=1,
            fuse_window_seconds=0.0,
            default_quota=TenantQuota(max_pending=2),
        )
        _slowed(service, 0.8)
        server, _thread = serve_event_loop(service)
        flood = _connect(server)
        try:
            request = _query_request(
                {"application": "deepwalk", "starts": [0], "walk_length": 2}
            )
            flood.sendall(request * 8)
            # Wait until the loop has admitted or rejected the whole burst.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                lane = service.tenant_summaries().get("default", {})
                if lane.get("admitted", 0) + lane.get("rejected", 0) == 8:
                    break
                time.sleep(0.01)
            probe = _connect(server)
            try:
                begin = time.monotonic()
                probe.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                status, _headers, _body = _read_response(probe.makefile("rb"))
                elapsed = time.monotonic() - begin
            finally:
                probe.close()
            assert status == 200
            # A parked loop would hold the probe for at least one 0.8 s wave.
            assert elapsed < 0.8, f"healthz waited {elapsed:.2f}s behind the flood"
            reader = flood.makefile("rb")
            codes = [_read_response(reader)[0] for _ in range(8)]
            assert 429 in codes
            assert set(codes) <= {200, 429}
        finally:
            flood.close()
            server.shutdown()
            service.close()

    def test_quota_exhaustion_is_429(self, graph):
        # A named tenant's lane fills independently of the default lane.
        service = GraphService(
            "bingo",
            graph,
            rng=37,
            fuse_limit=1,
            fuse_window_seconds=0.0,
            default_quota=TenantQuota(max_pending=64),
            tenants={"tiny": TenantQuota(max_pending=1)},
        )
        _slowed(service, 0.3)
        server, _thread = serve_event_loop(service)
        sock = _connect(server)
        try:
            body = json.dumps(
                {"application": "deepwalk", "starts": [0], "walk_length": 2}
            ).encode()
            request = (
                f"POST /v1/query HTTP/1.1\r\nHost: t\r\nX-Tenant: tiny\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
            sock.sendall(request * 4)
            reader = sock.makefile("rb")
            responses = [_read_response(reader) for _ in range(4)]
            codes = [status for status, _headers, _body in responses]
            assert 429 in codes
            assert set(codes) <= {200, 429}
            for status, headers, raw in responses:
                if status == 429:
                    assert json.loads(raw)["error"]["code"] == "quota_exceeded"
                    assert "retry-after" in headers
            _status, stats = _call(server, "/v1/stats")
            tiny = stats["tenants"]["tiny"]
            assert tiny["rejected"] == codes.count(429)
            assert tiny["admitted"] == codes.count(200)
            assert stats["tenants"].get("default", {}).get("admitted", 0) == 0
        finally:
            sock.close()
            server.shutdown()
            service.close()


class TestTransportConfig:
    """Every transport setting reaches the loop from ``ServiceConfig``."""

    @pytest.mark.parametrize(
        "config",
        [
            None,  # no config: the ServiceConfig defaults
            ServiceConfig(
                query_timeout=7.5,
                body_timeout=3.0,
                retry_after_seconds=0.25,
                max_body_bytes=4096,
            ),
        ],
    )
    def test_config_fields_flow_through_to_the_server(self, graph, config):
        service = GraphService(
            "bingo", graph, rng=71, default_quota=TenantQuota(max_pending=8)
        )
        server, _thread = serve_event_loop(service, config=config)
        expected = config or ServiceConfig()
        try:
            assert server.server_address[0] == expected.host
            assert server.query_timeout == expected.query_timeout
            assert server.body_timeout == expected.body_timeout
            assert server.retry_after_seconds == expected.retry_after_seconds
            assert server.max_body_bytes == expected.max_body_bytes
            assert server.log_requests is expected.log_requests
            status, _body = _call(server, "/v1/healthz")
            assert status == 200
        finally:
            server.shutdown()
            service.close()

    def test_config_body_limit_is_enforced(self, graph):
        service = GraphService(
            "bingo", graph, rng=71, default_quota=TenantQuota(max_pending=8)
        )
        server, _thread = serve_event_loop(
            service, config=ServiceConfig(max_body_bytes=64)
        )
        try:
            small = {"application": "deepwalk", "starts": [0], "walk_length": 2}
            assert _call(server, "/v1/query", small)[0] == 200
            large = dict(small, starts=list(range(40)))
            status, body = _call(server, "/v1/query", large)
            assert status == 413
            assert body["error"]["code"] == "payload_too_large"
        finally:
            server.shutdown()
            service.close()


class TestQueryTimeouts:
    def test_slow_query_gets_504_and_the_server_keeps_serving(self, graph):
        service = GraphService(
            "bingo", graph, rng=43, default_quota=TenantQuota(max_pending=64)
        )
        _slowed(service, 0.5)
        server, _thread = serve_event_loop(
            service, config=ServiceConfig(retry_after_seconds=0.1)
        )
        try:
            status, body = _call(
                server,
                "/v1/query",
                {
                    "application": "deepwalk",
                    "starts": [0],
                    "walk_length": 3,
                    "timeout": 0.05,
                },
            )
            assert status == 504
            assert body["error"]["code"] == "query_timeout"
            # The late ticket completion is dropped, not double-sent, and
            # the loop keeps answering (generous timeout this time).
            status, body = _call(
                server,
                "/v1/query",
                {
                    "application": "deepwalk",
                    "starts": [0],
                    "walk_length": 3,
                    "timeout": 20,
                },
            )
            assert status == 200
        finally:
            server.shutdown()
            service.close()

    def test_504_carries_retry_after(self, graph):
        service = GraphService(
            "bingo", graph, rng=47, default_quota=TenantQuota(max_pending=64)
        )
        _slowed(service, 0.5)
        server, _thread = serve_event_loop(
            service, config=ServiceConfig(retry_after_seconds=0.25)
        )
        try:
            request = urllib.request.Request(
                server.url + "/v1/query",
                data=json.dumps(
                    {
                        "application": "deepwalk",
                        "starts": [0],
                        "walk_length": 3,
                        "timeout": 0.05,
                    }
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 504
            assert excinfo.value.headers["Retry-After"] == "0.25"
        finally:
            server.shutdown()
            service.close()


def _rst_close(sock):
    """Close with an RST so the peer's next read/write fails immediately."""
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    sock.close()


def _await_disconnect_count(server, minimum, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, stats = _call(server, "/v1/stats")
        if stats["client_disconnects"] >= minimum:
            return stats["client_disconnects"]
        time.sleep(0.05)
    raise AssertionError(
        f"client_disconnects never reached {minimum} within {timeout}s"
    )


class TestClientDisconnects:
    """A peer hanging up mid-response is counted, not a traceback."""

    def test_mid_query_hangup_increments_the_counter(self, graph):
        service = GraphService(
            "bingo", graph, rng=59, default_quota=TenantQuota(max_pending=64)
        )
        _slowed(service, 0.4)
        server, _thread = serve_event_loop(service)
        try:
            host, port = server.server_address[:2]
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(_query_request())
            time.sleep(0.1)  # let the server read + submit the query
            _rst_close(sock)  # vanish while the response is still owed
            assert _await_disconnect_count(server, 1) >= 1
        finally:
            server.shutdown()
            service.close()


class TestLifecycle:
    def test_shutdown_is_idempotent_and_closes_connections(self, graph):
        service = GraphService(
            "bingo", graph, rng=61, default_quota=TenantQuota(max_pending=64)
        )
        server, thread = serve_event_loop(service)
        try:
            sock = _connect(server)
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            _read_response(sock.makefile("rb"))
            server.shutdown()
            server.shutdown()  # second call is a no-op
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert server.connection_count() == 0
            sock.close()
        finally:
            service.close()
