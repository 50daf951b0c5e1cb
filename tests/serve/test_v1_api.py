"""The versioned /v1 API: the one route table and one error envelope.

The acceptance bar: the canonical ``{"error": {"code", "message",
"retry_after"}}`` envelope must be byte-compatible across both served
shapes — the single-process service and the shard-router-backed one,
each behind the event loop.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.bench.datasets import build_dataset
from repro.serve import (
    GraphService,
    RouterService,
    ServiceClient,
    ServiceHTTPError,
    TenantQuota,
    serve_event_loop,
)

V1_ROUTES = ("/v1/query", "/v1/ingest", "/v1/stats", "/v1/healthz")
LEGACY_ROUTES = ("/query", "/ingest", "/stats", "/healthz")


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=23)


@pytest.fixture(scope="module")
def front_ends(graph):
    """Both server shapes the envelope must agree across."""
    # The event loop submits from its only thread, so its default lane
    # must reject (429) rather than block.
    loop_service = GraphService(
        "bingo",
        graph,
        rng=31,
        warm_on_publish=True,
        default_quota=TenantQuota(max_pending=256),
    )
    loop, _ = serve_event_loop(loop_service)
    router_service = RouterService(
        "bingo", graph, shards=2, rng=31, default_quota=TenantQuota(max_pending=256)
    )
    routed, _ = serve_event_loop(router_service)
    servers = {"eventloop": loop, "router": routed}
    yield servers
    for server, service in ((loop, loop_service), (routed, router_service)):
        server.shutdown()
        service.close()


def _call(server, path, payload=None, headers=None, method=None, timeout=30):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json", **(headers or {})},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


QUERY = {"application": "deepwalk", "starts": [0, 1, 2], "walk_length": 5}


class TestV1Routes:
    def test_v1_query_on_every_front_end(self, front_ends):
        for name, server in front_ends.items():
            status, body, headers = _call(server, "/v1/query", QUERY)
            assert status == 200, name
            assert body["num_walks"] == 3
            assert len(body["walks"][0]) == 6
            assert "Deprecation" not in headers, name
            assert "Link" not in headers, name

    def test_v1_ingest_on_every_front_end(self, front_ends, graph):
        for offset, (name, server) in enumerate(front_ends.items()):
            new_vertex = graph.num_vertices + 100 + offset
            status, body, headers = _call(
                server,
                "/v1/ingest",
                {
                    "updates": [
                        {"kind": "insert", "src": 0, "dst": new_vertex, "bias": 1.0}
                    ],
                    "flush": True,
                },
            )
            assert status == 202, name
            assert body["queued_updates"] == 1
            assert body["epoch"] >= 1
            assert "Deprecation" not in headers, name

    def test_v1_stats_and_healthz_on_every_front_end(self, front_ends):
        for name, server in front_ends.items():
            status, body, headers = _call(server, "/v1/healthz")
            assert status == 200 and body["status"] == "ok", name
            assert "Deprecation" not in headers, name
            status, body, _ = _call(server, "/v1/stats")
            assert status == 200, name
            assert "queries_served" in body, name

    def test_router_front_end_reports_shards_in_stats(self, front_ends):
        _, body, _ = _call(front_ends["router"], "/v1/stats")
        assert body["shards"] == 2
        assert all(body["shards_alive"])


class TestUnversionedRoutes:
    @pytest.mark.parametrize("route", LEGACY_ROUTES)
    def test_old_unversioned_paths_are_not_found_envelopes(self, front_ends, route):
        bodies = {"/query": QUERY, "/ingest": {"updates": [{"src": 1, "dst": 2}]}}
        for name, server in front_ends.items():
            status, body, _ = _call(server, route, bodies.get(route))
            assert status == 404, name
            assert body == {
                "error": {
                    "code": "not_found",
                    "message": f"unknown path {route}",
                    "retry_after": None,
                }
            }, name


class TestErrorEnvelope:
    def test_validation_error_envelope_shape(self, front_ends):
        for name, server in front_ends.items():
            status, body, _ = _call(
                server,
                "/v1/query",
                {"application": "deepwalk", "starts": [-5], "walk_length": 5},
            )
            assert status == 400, name
            assert set(body) == {"error"}, name
            assert set(body["error"]) == {"code", "message", "retry_after"}, name
            assert body["error"]["code"] == "query_validation", name

    @pytest.mark.parametrize(
        "application, params",
        [
            ("node2vec", {"p": float("nan"), "q": 1.0}),
            ("node2vec", {"p": "2"}),
            ("ppr", {"termination_probability": 0.0}),
            ("ppr", {"max_steps": -4}),
        ],
    )
    def test_bad_hyper_parameters_are_validation_envelopes(
        self, front_ends, application, params
    ):
        payload = {
            "application": application,
            "starts": [0, 1],
            "walk_length": 5,
            "params": params,
        }
        for name, server in front_ends.items():
            status, body, _ = _call(server, "/v1/query", payload)
            assert status == 400, name
            assert body["error"]["code"] == "query_validation", name

    def test_unknown_route_is_a_not_found_envelope(self, front_ends):
        for name, server in front_ends.items():
            status, body, _ = _call(server, "/v1/nope")
            assert status == 404, name
            assert body["error"]["code"] == "not_found", name

    def test_unsupported_method_is_an_envelope_too(self, front_ends):
        for name, server in front_ends.items():
            status, body, _ = _call(server, "/v1/query", QUERY, method="PUT")
            assert status == 501, name
            assert body["error"]["code"] == "method_not_allowed", name

    def test_envelopes_are_identical_across_front_ends(self, front_ends):
        probes = [
            ("/v1/query", {"application": "deepwalk", "starts": [-5], "walk_length": 3}),
            ("/v1/query", {"application": "nope", "starts": [1], "walk_length": 3}),
            ("/v1/nowhere", None),
        ]
        for path, payload in probes:
            outcomes = {}
            for name, server in front_ends.items():
                status, body, _ = _call(server, path, payload)
                outcomes[name] = (status, body["error"]["code"], frozenset(body["error"]))
            assert len(set(outcomes.values())) == 1, (path, outcomes)

    def test_bad_json_body_is_a_bad_request_envelope(self, front_ends):
        server = front_ends["eventloop"]
        request = urllib.request.Request(
            server.url + "/v1/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        body = json.loads(excinfo.value.read())
        assert excinfo.value.code == 400
        assert body["error"]["code"] == "bad_request"


class TestClient:
    def test_client_speaks_v1_natively(self, front_ends):
        for name, server in front_ends.items():
            with ServiceClient(server.url) as client:
                assert client.health()["status"] == "ok", name
                result = client.query("deepwalk", [0, 1], walk_length=4)
                assert result["num_walks"] == 2, name
                binary = client.query("deepwalk", [0, 1], walk_length=4, binary=True)
                assert binary.matrix.shape[0] == 2, name

    def test_client_surfaces_the_envelope_code(self, front_ends):
        with ServiceClient(front_ends["eventloop"].url, max_retries=0) as client:
            with pytest.raises(ServiceHTTPError) as excinfo:
                client.query("deepwalk", [-5], walk_length=4)
        assert excinfo.value.status == 400
        assert excinfo.value.error_code == "query_validation"
