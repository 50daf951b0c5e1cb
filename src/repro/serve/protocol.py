"""Transport-agnostic HTTP protocol layer behind the event-loop front-end.

Everything that defines the *service's* HTTP behaviour lives here, so
the transport (:mod:`repro.serve.eventloop`) only moves bytes:

* **Routing + validation** — :func:`handle_request` maps ``(method,
  path, headers, body)`` onto the :class:`~repro.serve.GraphService`
  API.  Immediate endpoints (``/v1/healthz``, ``/v1/stats``,
  ``/v1/ingest``, every error) return a finished :class:`Response`;
  ``/v1/query`` returns a :class:`PendingQuery` carrying the submitted
  :class:`~repro.serve.queries.QueryTicket` plus a renderer — the event
  loop registers a done-callback and keeps serving other connections.
* **Error mapping** — :func:`status_for_error` and
  :func:`error_response`: 400 validation / 413 oversized / 429 quota /
  503 closed / 504 deadline, with ``Retry-After`` on the transient ones.
  Every failure renders as the one canonical envelope
  ``{"error": {"code", "message", "retry_after"}}`` — the same shape for
  the single-process service and the shard router.
* **One route table** — the API lives under ``/v1`` (``/v1/query``,
  ``/v1/ingest``, ``/v1/stats``, ``/v1/healthz``); any other path,
  including the pre-``/v1`` unversioned ones, is a 404 envelope.
* **Content negotiation** — ``Accept: application/x-walks-bin`` selects
  the zero-copy binary walks format (:mod:`repro.serve.wire`); JSON
  stays the default.  A ``"stream": true`` query field asks for a
  chunked (``Transfer-Encoding: chunked``) response body.
* **Incremental request parsing** — :class:`HTTPRequestParser` turns an
  arbitrary byte stream into pipelined HTTP/1.1 requests: requests may
  arrive split at any byte boundary or several to a single read, and an
  oversized ``Content-Length`` fails with 413 as soon as the *headers*
  are complete, before any body byte arrives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

import numpy as np

from repro.errors import (
    InjectedFault,
    QueryExpiredError,
    QueryTimeoutError,
    QuotaExceededError,
    ReproError,
    ServiceClosedError,
)
from repro.graph.update_batch import UpdateBatch, UpdateKind
from repro.serve import wire
from repro.serve.config import (
    DEFAULT_MAX_BODY_BYTES as MAX_BODY_BYTES,
    DEFAULT_QUERY_TIMEOUT,
    DEFAULT_RETRY_AFTER_SECONDS,
)
from repro.serve.faults import FaultInjector
from repro.serve.queries import DEFAULT_TENANT, QueryTicket, ServeResult, deadline_in
from repro.serve.service import GraphService

#: Request header naming the submitting tenant.
TENANT_HEADER = "X-Tenant"

#: Largest accepted request head (request line + headers).
MAX_HEADER_BYTES = 64 * 1024

#: Statuses that mean "try again later" rather than "fix your request".
RETRYABLE_STATUSES = (429, 503, 504)

JSON_CONTENT_TYPE = "application/json"

#: Versioned API prefix: ``/v1/query`` etc. are the only routes.
API_PREFIX = "/v1"


class BadRequest(Exception):
    """Malformed request body or parameters (always a 400)."""


class PayloadTooLarge(Exception):
    """Request body above :data:`MAX_BODY_BYTES` (always a 413)."""


def status_for_error(error: BaseException) -> int:
    """The HTTP status code a serve-layer failure maps onto."""
    if isinstance(error, BadRequest):
        return 400
    if isinstance(error, PayloadTooLarge):
        return 413
    if isinstance(error, QuotaExceededError):
        return 429
    if isinstance(error, (ServiceClosedError, InjectedFault)):
        return 503
    if isinstance(error, (QueryTimeoutError, QueryExpiredError)):
        return 504
    if isinstance(error, ReproError):
        return 400
    return 500


#: Exception type -> stable machine-readable error code.  Anything not
#: listed falls back to a snake_case rendering of the class name, so new
#: typed errors get a usable code without editing this table.
_ERROR_CODES = {
    "BadRequest": "bad_request",
    "PayloadTooLarge": "payload_too_large",
    "QueryValidationError": "query_validation",
    "QuotaExceededError": "quota_exceeded",
    "ServiceClosedError": "service_closed",
    "InjectedFault": "injected_fault",
    "QueryTimeoutError": "query_timeout",
    "QueryExpiredError": "query_expired",
    "WorkerCrashError": "worker_crash",
}


def error_code(error: BaseException) -> str:
    """The stable ``error.code`` string a failure renders as."""
    name = type(error).__name__
    code = _ERROR_CODES.get(name)
    if code is not None:
        return code
    out = []
    for position, char in enumerate(name):
        if char.isupper() and position and not name[position - 1].isupper():
            out.append("_")
        out.append(char.lower())
    stripped = "".join(out)
    return stripped[: -len("_error")] if stripped.endswith("_error") else stripped


# --------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------- #
@dataclass
class Response:
    """One finished HTTP response, transport-neutral.

    Exactly one of ``payload`` (a JSON-serialisable dict) or
    ``body_parts`` (raw bytes-like chunks, e.g. a wire header plus a
    zero-copy matrix view) carries the body.  ``chunked`` asks the
    transport to frame the parts with ``Transfer-Encoding: chunked``
    instead of ``Content-Length``; ``close`` tells it the connection
    must not be reused (e.g. after a framing error desynchronized the
    stream).
    """

    status: int
    payload: dict | None = None
    body_parts: list[bytes | memoryview] | None = None
    content_type: str = JSON_CONTENT_TYPE
    headers: dict[str, str] = field(default_factory=dict)
    chunked: bool = False
    close: bool = False
    #: Set on a flushing /v1/ingest response: the transport must hold
    #: this response back until :meth:`GraphService.pending_updates`
    #: reaches zero.
    flush_pending: bool = False

    def parts(self) -> list[bytes | memoryview]:
        """The body as a list of bytes-like parts (may be empty)."""
        if self.payload is not None:
            return [json.dumps(self.payload).encode()]
        return list(self.body_parts or [])

    def content_length(self, parts: list[bytes | memoryview]) -> int:
        return sum(memoryview(part).nbytes for part in parts)


def error_envelope(
    code: str, message: str, retry_after: float | None = None
) -> dict:
    """The one canonical error body every front-end answers with."""
    return {
        "error": {
            "code": code,
            "message": message,
            "retry_after": retry_after,
        }
    }


def error_response(
    error: BaseException,
    retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS,
) -> Response:
    """Map a serve-layer failure onto its canonical JSON error response."""
    status = status_for_error(error)
    headers: dict[str, str] = {}
    retry_after: float | None = None
    if status in RETRYABLE_STATUSES:
        retry_after = retry_after_seconds
        headers["Retry-After"] = f"{retry_after_seconds:g}"
    return Response(
        status,
        error_envelope(error_code(error), str(error), retry_after),
        headers=headers,
    )


def not_found(path: str) -> Response:
    return Response(404, error_envelope("not_found", f"unknown path {path}"))


class PendingQuery:
    """A routed ``/v1/query`` whose ticket has not resolved yet.

    The event loop registers ``ticket.add_done_callback`` and later calls
    :meth:`finish` (the ticket is complete, so it never blocks), or
    :meth:`timeout_response` when its own ``timeout`` timer fires first.
    """

    def __init__(
        self,
        ticket: QueryTicket,
        timeout: float | None,
        render: Callable[[ServeResult], Response],
        retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS,
    ) -> None:
        self.ticket = ticket
        self.timeout = timeout
        self.render = render
        self.retry_after_seconds = retry_after_seconds

    def finish(self) -> Response:
        """Render a ticket known to be complete."""
        try:
            result = self.ticket.result(0.0)
        except Exception as exc:  # noqa: BLE001 - mapped onto HTTP statuses
            return error_response(exc, self.retry_after_seconds)
        return self.render(result)

    def timeout_response(self) -> Response:
        """The 504 the event loop sends when its query timer fires first."""
        return error_response(
            QueryTimeoutError("timed out waiting for a walk query result"),
            self.retry_after_seconds,
        )


RouteOutcome = Response | PendingQuery


# --------------------------------------------------------------------- #
# request-side parsing helpers
# --------------------------------------------------------------------- #
def wants_binary(headers: Mapping[str, str]) -> bool:
    """Whether the ``Accept`` header selects the binary walks format."""
    accept = headers.get("accept", "")
    return wire.WIRE_CONTENT_TYPE in accept


def parse_json_body(body: bytes | bytearray | memoryview | None) -> dict:
    """Decode a request body into a JSON object (or raise 400s)."""
    if body is None or not len(body):
        raise BadRequest("request body required")
    try:
        payload = json.loads(bytes(body))
    except json.JSONDecodeError as exc:
        raise BadRequest(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


#: ``kind`` (lowercased) -> whether the update inserts.
_IS_INSERT = {UpdateKind.INSERT.value: True, UpdateKind.DELETE.value: False}


def parse_updates(payload: dict) -> UpdateBatch:
    """Build an :class:`UpdateBatch` from the /ingest JSON body.

    The columns are filled straight from the rows; an update's timestamp
    is its position in the list.
    """
    raw = payload.get("updates")
    if not isinstance(raw, list) or not raw:
        raise BadRequest('body must carry a non-empty "updates" list')
    srcs: list[int] = []
    dsts: list[int] = []
    biases: list[float] = []
    inserts: list[bool] = []
    for position, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise BadRequest(f"updates[{position}] must be an object")
        try:
            kind_name = str(entry.get("kind", "insert")).lower()
            is_insert = _IS_INSERT.get(kind_name)
            if is_insert is None:
                UpdateKind(kind_name)  # raises the enum's ValueError
            src = int(entry["src"])
            dst = int(entry["dst"])
            bias = float(entry.get("bias", 1.0))
        except (KeyError, ValueError, TypeError) as exc:
            raise BadRequest(f"updates[{position}] is malformed: {exc}") from exc
        srcs.append(src)
        dsts.append(dst)
        biases.append(bias)
        inserts.append(is_insert)
    return UpdateBatch(
        np.array(srcs, dtype=np.int64),
        np.array(dsts, dtype=np.int64),
        np.array(biases, dtype=np.float64),
        np.array(inserts, dtype=np.bool_),
    )


# --------------------------------------------------------------------- #
# routing
# --------------------------------------------------------------------- #
def render_walks(
    result: ServeResult,
    *,
    tenant: str,
    binary: bool,
    stream: bool,
) -> Response:
    """One resolved walk query as a JSON or binary HTTP response."""
    if binary:
        parts = wire.encode_walks(
            result.walks.matrix,
            epoch=result.epoch,
            total_steps=result.walks.total_steps,
            latency_seconds=result.latency_seconds,
            fused_with=result.fused_with,
        )
        return Response(
            200,
            body_parts=parts,
            content_type=wire.WIRE_CONTENT_TYPE,
            chunked=stream,
        )
    response = Response(
        200,
        {
            "tenant": tenant,
            "epoch": result.epoch,
            "fused_with": result.fused_with,
            "latency_seconds": result.latency_seconds,
            "num_walks": result.walks.num_walks,
            "total_steps": result.walks.total_steps,
            "walks": result.walks.matrix.tolist(),
        },
    )
    if stream:
        response.body_parts = response.parts()
        response.payload = None
        response.chunked = True
    return response


def _route_query(
    service: GraphService,
    payload: dict,
    headers: Mapping[str, str],
    default_query_timeout: float | None,
    retry_after_seconds: float,
) -> PendingQuery:
    tenant = headers.get(TENANT_HEADER.lower(), DEFAULT_TENANT).strip()
    if not tenant:
        tenant = DEFAULT_TENANT
    try:
        application = str(payload["application"])
        starts = payload["starts"]
        walk_length = int(payload["walk_length"])
    except (KeyError, ValueError, TypeError) as exc:
        raise BadRequest(
            'body must carry "application", "starts" and "walk_length": '
            f"{exc}"
        ) from exc
    if not isinstance(starts, list):
        raise BadRequest('"starts" must be a JSON array of vertex ids')
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest('"params" must be an object')
    # A missing or null timeout falls back to the server default — a
    # client cannot pin a response slot forever.
    timeout = payload.get("timeout")
    if timeout is None:
        timeout = default_query_timeout
    else:
        try:
            timeout = float(timeout)
        except (ValueError, TypeError) as exc:
            raise BadRequest(f'"timeout" must be a number: {exc}') from exc
        if timeout <= 0:
            raise BadRequest('"timeout" must be positive')
    # "deadline_seconds" is relative: the server stamps the absolute
    # monotonic deadline on arrival, so queueing time counts against
    # it but network transit does not.
    deadline = None
    deadline_seconds = payload.get("deadline_seconds")
    if deadline_seconds is not None:
        try:
            deadline_seconds = float(deadline_seconds)
        except (ValueError, TypeError) as exc:
            raise BadRequest(
                f'"deadline_seconds" must be a number: {exc}'
            ) from exc
        if deadline_seconds <= 0:
            raise BadRequest('"deadline_seconds" must be positive')
        deadline = deadline_in(deadline_seconds)
    stream = bool(payload.get("stream", False))
    binary = wants_binary(headers)
    ticket = service.submit(
        application,
        starts,
        walk_length,
        tenant=tenant,
        deadline=deadline,
        **{str(key): value for key, value in params.items()},
    )
    return PendingQuery(
        ticket,
        timeout,
        lambda result: render_walks(
            result, tenant=tenant, binary=binary, stream=stream
        ),
        retry_after_seconds,
    )


def _handle_healthz(service: GraphService) -> Response:
    health = service.health()
    if health["healthy"]:
        return Response(200, {"status": "ok", "epoch": health["epoch"]})
    return Response(
        503,
        {
            "status": "unhealthy",
            "epoch": health["epoch"],
            "reasons": health["reasons"],
        },
    )


def _handle_stats(service: GraphService) -> Response:
    # Snapshots are computed under the service / fair-share locks —
    # reading the live latency deques here would race the dispatcher.
    payload = service.stats_snapshot()
    payload["tenants"] = service.tenant_summaries()
    return Response(200, payload)


def _handle_ingest(service: GraphService, payload: dict) -> Response:
    batch = parse_updates(payload)
    service.ingest(batch)
    # A flushing ingest is answered once pending_updates() drains: the
    # event loop cannot park its only thread in flush(), so it holds the
    # response and restamps the epoch its updates were published under.
    return Response(
        202,
        {"queued_updates": len(batch), "epoch": service.epoch},
        flush_pending=bool(payload.get("flush", False)),
    )


def handle_request(
    service: GraphService,
    method: str,
    path: str,
    headers: Mapping[str, str],
    body: bytes | bytearray | memoryview | None,
    *,
    default_query_timeout: float | None = DEFAULT_QUERY_TIMEOUT,
    retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS,
    fault_injector: FaultInjector | None = None,
) -> RouteOutcome:
    """Route one request; never raises (errors become :class:`Response`).

    ``headers`` must map **lower-cased** header names to values.  Only
    ``/v1/query`` can return a :class:`PendingQuery`; every other outcome
    is a finished :class:`Response`.  A flushing ``/v1/ingest`` returns
    at once with ``flush_pending=True``; the caller owns the flush wait
    (the event loop polls :meth:`GraphService.pending_updates`).  Paths
    outside ``/v1`` are 404s.
    """
    route = path[len(API_PREFIX):] if path.startswith(API_PREFIX + "/") else None
    try:
        if fault_injector is not None:
            # The chaos harness's ``http.handler`` injection point: an
            # InjectedFault raised here maps onto 503 + Retry-After —
            # exactly what a transient front-end failure looks like to
            # the backoff client.
            fault_injector.fire("http.handler")
        if method == "GET":
            if route == "/healthz":
                outcome: RouteOutcome = _handle_healthz(service)
            elif route == "/stats":
                outcome = _handle_stats(service)
            else:
                outcome = not_found(path)
        elif method == "POST":
            payload = parse_json_body(body)
            if route == "/query":
                outcome = _route_query(
                    service,
                    payload,
                    headers,
                    default_query_timeout,
                    retry_after_seconds,
                )
            elif route == "/ingest":
                outcome = _handle_ingest(service, payload)
            else:
                outcome = not_found(path)
        else:
            outcome = Response(
                501,
                error_envelope(
                    "method_not_allowed", f"unsupported method {method}"
                ),
                close=True,
            )
    except Exception as exc:  # noqa: BLE001 - the trust boundary
        outcome = error_response(exc, retry_after_seconds)
    return outcome


# --------------------------------------------------------------------- #
# incremental request parsing
# --------------------------------------------------------------------- #
class HTTPParseError(Exception):
    """A request stream the parser cannot (or will not) continue reading.

    Carries the HTTP ``status`` the transport should answer with (400 or
    413) plus the error ``type`` label the JSON error body uses.  The
    stream is desynchronized after any parse error, so the connection
    must be closed after the error response.
    """

    def __init__(self, status: int, message: str, error_type: str = "BadRequest"):
        super().__init__(message)
        self.status = status
        self.error_type = error_type


@dataclass
class ParsedRequest:
    """One complete request extracted from the byte stream."""

    method: str
    target: str
    version: str
    #: Lower-cased header name -> value (last occurrence wins).
    headers: dict[str, str]
    body: bytes
    #: Whether the client allows the connection to carry another request.
    keep_alive: bool


class HTTPRequestParser:
    """Incremental HTTP/1.1 request parser for a non-blocking stream.

    Feed it whatever ``recv`` produced — half a request line, three
    pipelined requests and a partial fourth, one byte at a time — and it
    returns every request completed so far, buffering the remainder.
    Violations raise :class:`HTTPParseError`:

    * garbage request line / header framing → 400,
    * non-integer or negative ``Content-Length`` → 400,
    * ``Transfer-Encoding`` request bodies → 400 (only ``Content-Length``
      bodies are supported),
    * ``Content-Length`` above ``max_body_bytes`` → **413 the moment the
      headers complete**, before a single body byte is read — a client
      declaring an 8 GiB body cannot make the server buffer it,
    * an unbounded header block → 400 once it passes ``max_header_bytes``.
    """

    def __init__(
        self,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        max_header_bytes: int = MAX_HEADER_BYTES,
    ) -> None:
        self.max_body_bytes = int(max_body_bytes)
        self.max_header_bytes = int(max_header_bytes)
        self._buffer = bytearray()
        self._head: ParsedRequest | None = None
        self._body_length = 0

    @property
    def idle(self) -> bool:
        """True when no partial request is buffered."""
        return self._head is None and not self._buffer

    def feed(self, data: bytes) -> list[ParsedRequest]:
        """Consume ``data``, returning every request it completed."""
        self._buffer += data
        requests: list[ParsedRequest] = []
        while True:
            request = self._next_request()
            if request is None:
                return requests
            requests.append(request)

    def _next_request(self) -> ParsedRequest | None:
        if self._head is None and not self._parse_head():
            return None
        if len(self._buffer) < self._body_length:
            return None
        request = self._head
        assert request is not None
        request.body = bytes(self._buffer[: self._body_length])
        del self._buffer[: self._body_length]
        self._head = None
        self._body_length = 0
        return request

    def _parse_head(self) -> bool:
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(self._buffer) > self.max_header_bytes:
                raise HTTPParseError(
                    400,
                    f"request head exceeds {self.max_header_bytes} bytes",
                )
            return False
        head = bytes(self._buffer[:end]).decode("latin-1")
        del self._buffer[: end + 4]
        lines = head.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise HTTPParseError(400, f"malformed request line {lines[0]!r}")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise HTTPParseError(400, f"unsupported protocol {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator or not name or name != name.strip() or " " in name:
                raise HTTPParseError(400, f"malformed header line {line!r}")
            headers[name.lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise HTTPParseError(
                400,
                "Transfer-Encoding request bodies are not supported; "
                "send a Content-Length body",
            )
        raw_length = headers.get("content-length")
        if raw_length is None:
            length = 0
        else:
            try:
                length = int(raw_length)
            except ValueError as exc:
                # The serve boundary: a garbage header is the client's
                # bug (400), not an unhandled server traceback.
                raise HTTPParseError(
                    400,
                    f"Content-Length is not an integer: {raw_length.strip()!r}",
                ) from exc
            if length < 0:
                raise HTTPParseError(
                    400, f"Content-Length must be non-negative, got {length}"
                )
        if length > self.max_body_bytes:
            # Refused from the header alone: no body byte has been (or
            # will be) buffered for this request.
            raise HTTPParseError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
                error_type="PayloadTooLarge",
            )
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            keep_alive = False
        elif version == "HTTP/1.0":
            keep_alive = "keep-alive" in connection
        else:
            keep_alive = True
        self._head = ParsedRequest(
            method=method,
            target=target,
            version=version,
            headers=headers,
            body=b"",
            keep_alive=keep_alive,
        )
        self._body_length = length
        return True


__all__ = [
    "API_PREFIX",
    "BadRequest",
    "DEFAULT_QUERY_TIMEOUT",
    "DEFAULT_RETRY_AFTER_SECONDS",
    "HTTPParseError",
    "HTTPRequestParser",
    "JSON_CONTENT_TYPE",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "ParsedRequest",
    "PayloadTooLarge",
    "PendingQuery",
    "RETRYABLE_STATUSES",
    "Response",
    "TENANT_HEADER",
    "error_code",
    "error_envelope",
    "error_response",
    "handle_request",
    "not_found",
    "parse_json_body",
    "parse_updates",
    "render_walks",
    "status_for_error",
    "wants_binary",
]
