"""Serve-boundary bugfix sweep: raw-socket HTTP edges, tenancy races,
and the epoch-delta warming stats.

urllib cannot produce a malformed Content-Length or an under-delivered
body, so these tests speak raw HTTP over a socket.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.graph.generators import power_law_graph
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.serve import GraphService, ServiceConfig, TenantQuota, serve_event_loop
from repro.serve.protocol import MAX_BODY_BYTES
from repro.serve.tenancy import FairShareQueue


# --------------------------------------------------------------------- #
# raw-socket HTTP plumbing
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def server():
    graph = power_law_graph(60, 3, rng=2)
    service = GraphService(
        "knightking", graph, rng=1, default_quota=TenantQuota(max_pending=64)
    )
    server, _thread = serve_event_loop(
        service, config=ServiceConfig(body_timeout=0.75)
    )
    yield server
    server.shutdown()
    service.close()


def _raw_request(server, payload: bytes, timeout: float = 10.0):
    """Send raw bytes, return (status, parsed JSON body)."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.settimeout(timeout)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(body) < length:
            chunk = sock.recv(4096)
            if not chunk:
                break
            body += chunk
        return status, json.loads(body) if body else {}


class TestHTTPBoundary:
    def test_non_numeric_content_length_is_400(self, server):
        request = (
            b"POST /v1/ingest HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: banana\r\n"
            b"\r\n"
        )
        status, body = _raw_request(server, request)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "banana" in body["error"]["message"]

    def test_oversized_body_is_413_without_reading_it(self, server):
        request = (
            b"POST /v1/query HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode() + b"\r\n"
            b"\r\n"
        )
        # No body bytes follow: the handler must answer from the header
        # alone instead of trying to swallow the declared payload.
        status, body = _raw_request(server, request)
        assert status == 413
        assert body["error"]["code"] == "payload_too_large"

    def test_underdelivered_body_times_out_as_400(self, server):
        request = (
            b"POST /v1/ingest HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Length: 500\r\n"
            b"\r\n"
            b'{"updates": ['
        )
        # 13 of the declared 500 bytes arrive; the body timeout (0.75 s
        # on this fixture) must convert the stalled read into a 400
        # rather than holding the connection open.
        status, body = _raw_request(server, request)
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert (
            "timed out" in body["error"]["message"]
            or "ended after" in body["error"]["message"]
        )

    def test_server_still_serves_after_boundary_abuse(self, server):
        request = (
            b"GET /v1/healthz HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"\r\n"
        )
        status, body = _raw_request(server, request)
        assert status == 200
        assert body["status"] == "ok"


# --------------------------------------------------------------------- #
# tenancy: served-after-close race + stats snapshots
# --------------------------------------------------------------------- #
class TestRecordServedRaces:
    def test_unknown_tenant_after_close_is_dropped(self):
        queue = FairShareQueue()
        queue.close()
        queue.record_served("ghost", 0.01)
        assert "ghost" not in queue.tenant_stats()

    def test_strict_mode_drops_unknown_tenant_without_raising(self):
        queue = FairShareQueue({"alice": TenantQuota()}, strict=True)
        queue.record_served("ghost", 0.01)
        assert "ghost" not in queue.tenant_stats()

    def test_known_lane_still_records_after_close(self):
        queue = FairShareQueue({"alice": TenantQuota()})
        queue.close()
        queue.record_served("alice", 0.5)
        stats = queue.tenant_stats()["alice"]
        assert stats.served == 1
        assert list(stats.latencies) == [0.5]

    def test_tenant_stats_returns_stable_copies(self):
        queue = FairShareQueue({"alice": TenantQuota()})
        queue.record_served("alice", 0.5)
        snapshot = queue.tenant_stats()
        queue.record_served("alice", 0.7)
        # The snapshot is frozen at the time of the call...
        assert snapshot["alice"].served == 1
        assert list(snapshot["alice"].latencies) == [0.5]
        # ...and mutating it cannot corrupt the live counters.
        snapshot["alice"].latencies.append(9.9)
        assert list(queue.tenant_stats()["alice"].latencies) == [0.5, 0.7]

    def test_percentiles_stay_consistent_under_concurrent_appends(self):
        queue = FairShareQueue()
        queue.note_admitted("hammered", 1)
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                queue.record_served("hammered", 0.001)

        thread = threading.Thread(target=hammer, name="stats-hammer", daemon=True)
        thread.start()
        try:
            for _ in range(300):
                stats = queue.tenant_stats()["hammered"]
                percentiles = stats.latency_percentiles()
                if stats.served:
                    assert percentiles["p50"] == pytest.approx(0.001)
        finally:
            stop.set()
            thread.join(timeout=5)


# --------------------------------------------------------------------- #
# epoch-delta warming stats through the service
# --------------------------------------------------------------------- #
def test_delta_warm_stats_count_touched_vertices():
    graph = power_law_graph(120, 3, rng=5)
    service = GraphService("bingo", graph, rng=7, warm_on_publish=True)
    try:
        flips = 3
        for position in range(flips):
            # A brand-new source vertex per batch: exactly one touched
            # vertex per flip, never a duplicate edge.
            service.ingest(
                [
                    GraphUpdate(
                        UpdateKind.INSERT, 150 + position, 0, 2.0, position
                    )
                ]
            )
            service.flush()
        snapshot = service.stats_snapshot()
        assert snapshot["epochs_warmed"] >= flips
        assert snapshot["warm_full_rebuilds"] == 0
        # Each flip warms the touched vertex, plus at most one catch-up
        # replay per lagging buffer — never the whole vertex set.
        assert 0 < snapshot["warm_vertices"] <= 3 * flips
    finally:
        service.close()
