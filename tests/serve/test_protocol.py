"""The shared protocol layer: incremental parser, framing limits, errors."""

import json

import numpy as np
import pytest

from repro.errors import (
    QueryTimeoutError,
    QueryValidationError,
    QuotaExceededError,
    ServiceClosedError,
    UpdateError,
)
from repro.graph.update_batch import GraphUpdate, UpdateBatch, UpdateKind
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    BadRequest,
    HTTPParseError,
    HTTPRequestParser,
    PayloadTooLarge,
    Response,
    error_response,
    parse_json_body,
    parse_updates,
    status_for_error,
    wants_binary,
)
from repro.serve.wire import WIRE_CONTENT_TYPE

QUERY_BODY = json.dumps(
    {"application": "deepwalk", "starts": [0, 1], "walk_length": 4}
).encode()

QUERY_REQUEST = (
    b"POST /query HTTP/1.1\r\n"
    b"Host: test\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: %d\r\n"
    b"\r\n" % len(QUERY_BODY)
) + QUERY_BODY

HEALTH_REQUEST = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


class TestWholeRequests:
    def test_single_request_parses_completely(self):
        parser = HTTPRequestParser()
        requests = parser.feed(QUERY_REQUEST)
        assert len(requests) == 1
        request = requests[0]
        assert request.method == "POST"
        assert request.target == "/query"
        assert request.version == "HTTP/1.1"
        assert request.headers["content-type"] == "application/json"
        assert request.body == QUERY_BODY
        assert request.keep_alive is True
        assert parser.idle

    def test_bodyless_request_has_empty_body(self):
        parser = HTTPRequestParser()
        (request,) = parser.feed(HEALTH_REQUEST)
        assert request.method == "GET"
        assert request.body == b""

    def test_header_names_are_lowercased(self):
        parser = HTTPRequestParser()
        (request,) = parser.feed(
            b"GET /stats HTTP/1.1\r\nX-TENANT: alice\r\nAccept: x\r\n\r\n"
        )
        assert request.headers["x-tenant"] == "alice"
        assert request.headers["accept"] == "x"


class TestByteBoundaries:
    def test_byte_by_byte_feed_produces_one_request(self):
        parser = HTTPRequestParser()
        seen = []
        for offset in range(len(QUERY_REQUEST)):
            seen.extend(parser.feed(QUERY_REQUEST[offset : offset + 1]))
            if offset < len(QUERY_REQUEST) - 1:
                assert seen == []
                assert not parser.idle
        assert len(seen) == 1
        assert seen[0].body == QUERY_BODY
        assert parser.idle

    @pytest.mark.parametrize(
        "split",
        [1, 10, 16, len(QUERY_REQUEST) - len(QUERY_BODY), len(QUERY_REQUEST) - 1],
    )
    def test_any_split_point_yields_the_same_request(self, split):
        parser = HTTPRequestParser()
        first = parser.feed(QUERY_REQUEST[:split])
        second = parser.feed(QUERY_REQUEST[split:])
        assert first == []
        assert len(second) == 1
        assert second[0].body == QUERY_BODY

    def test_split_inside_the_body_buffers_until_complete(self):
        head_length = len(QUERY_REQUEST) - len(QUERY_BODY)
        parser = HTTPRequestParser()
        assert parser.feed(QUERY_REQUEST[: head_length + 3]) == []
        assert not parser.idle
        (request,) = parser.feed(QUERY_REQUEST[head_length + 3 :])
        assert request.body == QUERY_BODY


class TestPipelining:
    def test_two_pipelined_requests_in_one_feed(self):
        parser = HTTPRequestParser()
        requests = parser.feed(QUERY_REQUEST + HEALTH_REQUEST)
        assert [r.target for r in requests] == ["/query", "/healthz"]
        assert requests[0].body == QUERY_BODY
        assert requests[1].body == b""
        assert parser.idle

    def test_pipelined_pair_plus_partial_third_stays_buffered(self):
        parser = HTTPRequestParser()
        data = HEALTH_REQUEST + QUERY_REQUEST + HEALTH_REQUEST[:7]
        requests = parser.feed(data)
        assert [r.target for r in requests] == ["/healthz", "/query"]
        assert not parser.idle
        (third,) = parser.feed(HEALTH_REQUEST[7:])
        assert third.target == "/healthz"
        assert parser.idle


class TestLimits:
    def test_oversized_content_length_is_413_before_any_body_byte(self):
        parser = HTTPRequestParser(max_body_bytes=1024)
        head = (
            b"POST /ingest HTTP/1.1\r\n"
            b"Content-Length: 2048\r\n"
        )
        # Headers incomplete: no verdict yet.
        assert parser.feed(head) == []
        with pytest.raises(HTTPParseError) as info:
            parser.feed(b"\r\n")  # headers complete — body never sent
        assert info.value.status == 413
        assert info.value.error_type == "PayloadTooLarge"

    def test_default_body_cap_matches_the_protocol_constant(self):
        parser = HTTPRequestParser()
        with pytest.raises(HTTPParseError) as info:
            parser.feed(
                b"POST /ingest HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
            )
        assert info.value.status == 413

    def test_unbounded_header_block_is_400(self):
        parser = HTTPRequestParser(max_header_bytes=256)
        with pytest.raises(HTTPParseError) as info:
            parser.feed(b"GET / HTTP/1.1\r\nX-Junk: " + b"a" * 300)
        assert info.value.status == 400


class TestMalformedFraming:
    @pytest.mark.parametrize(
        "raw_length", [b"ten", b"-5", b"1e3", b""]
    )
    def test_bad_content_length_is_400(self, raw_length):
        parser = HTTPRequestParser()
        with pytest.raises(HTTPParseError) as info:
            parser.feed(
                b"POST /query HTTP/1.1\r\nContent-Length: "
                + raw_length
                + b"\r\n\r\n"
            )
        assert info.value.status == 400

    def test_transfer_encoding_is_rejected_with_400(self):
        parser = HTTPRequestParser()
        with pytest.raises(HTTPParseError) as info:
            parser.feed(
                b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert info.value.status == 400
        assert "Content-Length" in str(info.value)

    @pytest.mark.parametrize(
        "line",
        [b"GARBAGE\r\n\r\n", b"GET /\r\n\r\n", b"GET / SPDY/3\r\n\r\n"],
    )
    def test_malformed_request_line_is_400(self, line):
        parser = HTTPRequestParser()
        with pytest.raises(HTTPParseError) as info:
            parser.feed(line)
        assert info.value.status == 400

    def test_malformed_header_line_is_400(self):
        parser = HTTPRequestParser()
        with pytest.raises(HTTPParseError) as info:
            parser.feed(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert info.value.status == 400


class TestKeepAliveNegotiation:
    def test_http11_defaults_to_keep_alive(self):
        (request,) = HTTPRequestParser().feed(b"GET / HTTP/1.1\r\n\r\n")
        assert request.keep_alive is True

    def test_connection_close_wins(self):
        (request,) = HTTPRequestParser().feed(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert request.keep_alive is False

    def test_http10_defaults_to_close(self):
        (request,) = HTTPRequestParser().feed(b"GET / HTTP/1.0\r\n\r\n")
        assert request.keep_alive is False

    def test_http10_opts_into_keep_alive(self):
        (request,) = HTTPRequestParser().feed(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        assert request.keep_alive is True


class TestResponseHelpers:
    def test_wants_binary_reads_the_accept_header(self):
        assert wants_binary({"accept": WIRE_CONTENT_TYPE})
        assert wants_binary({"accept": f"{WIRE_CONTENT_TYPE}, application/json"})
        assert not wants_binary({"accept": "application/json"})
        assert not wants_binary({})

    def test_error_response_carries_retry_after_only_when_retryable(self):
        retryable = error_response(QuotaExceededError("full"), 0.25)
        assert retryable.status == 429
        assert retryable.headers["Retry-After"] == "0.25"
        terminal = error_response(BadRequest("nope"), 0.25)
        assert terminal.status == 400
        assert "Retry-After" not in terminal.headers

    @pytest.mark.parametrize(
        ("error", "status"),
        [
            (BadRequest, 400),
            (PayloadTooLarge, 413),
            (QueryValidationError, 400),
            (QuotaExceededError, 429),
            (ServiceClosedError, 503),
            (QueryTimeoutError, 504),
            (UpdateError, 400),
            (RuntimeError, 500),
        ],
    )
    def test_error_types_map_onto_their_statuses(self, error, status):
        assert status_for_error(error("x")) == status

    def test_parse_json_body_rejects_empty_and_non_objects(self):
        with pytest.raises(BadRequest):
            parse_json_body(None)
        with pytest.raises(BadRequest):
            parse_json_body(b"")
        with pytest.raises(BadRequest):
            parse_json_body(b"[1, 2]")
        with pytest.raises(BadRequest):
            parse_json_body(b"{broken")
        assert parse_json_body(b'{"a": 1}') == {"a": 1}

    def test_response_parts_and_length(self):
        response = Response(200, {"answer": 42})
        parts = response.parts()
        assert json.loads(parts[0]) == {"answer": 42}
        assert response.content_length(parts) == len(parts[0])
        raw = Response(200, body_parts=[b"abc", memoryview(b"defg")])
        assert raw.content_length(raw.parts()) == 7


# --------------------------------------------------------------------- #
# /ingest body parsing
# --------------------------------------------------------------------- #
def _parse_updates_by_record(payload: dict) -> UpdateBatch:
    """The record-at-a-time parse: one GraphUpdate per row, then columns."""
    raw = payload.get("updates")
    if not isinstance(raw, list) or not raw:
        raise BadRequest('body must carry a non-empty "updates" list')
    updates = []
    for position, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise BadRequest(f"updates[{position}] must be an object")
        try:
            kind_name = str(entry.get("kind", "insert")).lower()
            kind = UpdateKind(kind_name)
            src = int(entry["src"])
            dst = int(entry["dst"])
            bias = float(entry.get("bias", 1.0))
        except (KeyError, ValueError, TypeError) as exc:
            raise BadRequest(f"updates[{position}] is malformed: {exc}") from exc
        updates.append(GraphUpdate(kind, src, dst, bias, timestamp=position))
    return UpdateBatch.from_updates(updates)


VALID_ROWS = [
    {"src": 0, "dst": 1},
    {"src": "2", "dst": 3.0, "bias": "2.5", "kind": "DELETE"},
    {"src": 4, "dst": 5, "bias": 0.125, "kind": "Insert", "extra": True},
    {"src": 6, "dst": 7, "kind": "delete"},
]

MALFORMED_BODIES = [
    {},
    {"updates": []},
    {"updates": {"src": 0, "dst": 1}},
    {"updates": [{"src": 0, "dst": 1}, [0, 1]]},
    {"updates": [{"src": 0, "dst": 1}, {"dst": 1}]},
    {"updates": [{"src": 0}]},
    {"updates": [{"src": 0, "dst": 1, "kind": "upsert"}]},
    {"updates": [{"src": 0, "dst": 1, "kind": None}]},
    {"updates": [{"src": "x", "dst": 1}]},
    {"updates": [{"src": 0, "dst": [1]}]},
    {"updates": [{"src": 0, "dst": 1, "bias": "heavy"}]},
    {"updates": [{"src": 0, "dst": 1, "bias": None}]},
    {"updates": [{"src": None, "dst": 1, "kind": "nope"}]},
]


class TestParseUpdates:
    def test_columns_equal_the_record_at_a_time_parse(self):
        body = {"updates": VALID_ROWS * 300}
        got = parse_updates(body)
        want = _parse_updates_by_record(body)
        for column in ("src", "dst", "bias", "insert_mask", "timestamp"):
            assert getattr(got, column).dtype == getattr(want, column).dtype, column
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
        assert got[1] == GraphUpdate(UpdateKind.DELETE, 2, 3, 2.5, timestamp=1)
        assert got[0].bias == 1.0 and got[0].kind is UpdateKind.INSERT

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_rows_fail_with_the_record_at_a_time_text(self, body):
        with pytest.raises(BadRequest) as want:
            _parse_updates_by_record(body)
        with pytest.raises(BadRequest) as got:
            parse_updates(body)
        assert str(got.value) == str(want.value)
