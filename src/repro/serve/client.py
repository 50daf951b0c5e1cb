"""Stdlib HTTP client for the serve front-end, with capped backoff retries.

The server side (:mod:`repro.serve.eventloop`) marks transient failures
with 429 / 503 / 504 and a ``Retry-After`` header; this client closes
the loop: idempotent requests (``/v1/query``, ``/v1/stats``,
``/v1/healthz``) are retried with capped exponential backoff, sleeping
at least the server's ``Retry-After`` hint when one is present.  The
client speaks the ``/v1`` routes, the server's only route table.
``/v1/ingest`` is **never** retried on an HTTP error — replaying an update
batch whose first attempt may have been applied is exactly the
duplicate-batch bug the writer's dead-letter quarantine exists to catch,
and the client must not manufacture it.

Walk queries are safe to retry because they are reads: a query resolves
against whatever snapshot is published when it fuses and mutates nothing,
so two attempts are two independent reads, not a double-apply.

Transport: one persistent keep-alive ``http.client.HTTPConnection`` per
client, reused across requests instead of a fresh TCP handshake each
time (the old ``urllib.request`` transport's per-request connection cost
dominated small queries).  A stale keep-alive socket — the server timed
the idle connection out between requests and ``getresponse`` raises
``RemoteDisconnected`` — is reconnected transparently, once, for *any*
request including ``/ingest``: a server that closed an idle connection
never processed the request riding it, so the resend cannot double-apply.

``query(..., binary=True)`` negotiates the zero-copy
``application/x-walks-bin`` response (:mod:`repro.serve.wire`) and
returns the decoded :class:`~repro.serve.wire.DecodedWalks`, whose
matrix is an ``np.frombuffer`` view over the response bytes — no
per-cell JSON decode on either side of the wire.

Built on the standard library only, like the servers.  A client instance
serializes its requests with an internal lock (one connection, one
in-flight request); use one client per thread for parallel load.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from collections.abc import Sequence

from repro.errors import ServeError
from repro.serve import wire
from repro.serve.protocol import RETRYABLE_STATUSES, TENANT_HEADER

#: Default attempt budget: 1 initial try + this many retries.
DEFAULT_MAX_RETRIES = 4

#: First backoff sleep (seconds); doubles per retry up to the cap.
DEFAULT_BACKOFF_SECONDS = 0.25

#: Ceiling on any single backoff sleep (seconds).
DEFAULT_BACKOFF_CAP_SECONDS = 8.0

#: Exceptions that mean "the reused keep-alive socket went stale":
#: the server closed the idle connection before (or instead of)
#: answering, so a fresh connection gets one transparent resend.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class ServiceHTTPError(ServeError):
    """A non-2xx response from the serve front-end.

    Carries the HTTP ``status``, the decoded JSON ``payload`` (or ``{}``
    when the body was not JSON) and the parsed ``retry_after`` hint in
    seconds (``None`` when the server sent no header).
    """

    def __init__(
        self,
        status: int,
        payload: dict[str, object],
        retry_after: float | None = None,
    ) -> None:
        envelope = payload.get("error")
        if isinstance(envelope, dict):
            # The canonical /v1 envelope: {"error": {"code", "message", ...}}.
            code = envelope.get("code") or ""
            message = envelope.get("message") or ""
            detail = f"{code}: {message}" if code else message
            self.error_code: str | None = str(code) or None
        else:
            # Pre-/v1 servers sent flat {"error": "...", "type": "..."}.
            detail = envelope or payload.get("status") or ""
            self.error_code = None
        super().__init__(f"serve front-end returned {status}: {detail}")
        self.status = int(status)
        self.payload = payload
        self.retry_after = retry_after


class ServiceUnreachableError(ServeError):
    """The front-end could not be reached (connection or socket failure)."""


def _parse_retry_after(value: str | None) -> float | None:
    """The ``Retry-After`` header in seconds (delta-seconds form only)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


class ServiceClient:
    """A retrying JSON/binary client bound to one serve front-end URL.

    Parameters
    ----------
    base_url:
        The server root, e.g. ``server.url`` from
        :func:`~repro.serve.eventloop.serve_event_loop`.
    tenant:
        Optional tenant id sent in the ``X-Tenant`` header of every
        request (individual calls may override it).
    max_retries:
        Retries after the first attempt for *idempotent* requests that
        fail transiently (retryable status or unreachable server).
        Non-idempotent requests (``/ingest``) always get exactly one
        attempt regardless.
    backoff_seconds / backoff_cap_seconds:
        Capped exponential schedule: retry *n* sleeps
        ``min(backoff_seconds * 2**n, backoff_cap_seconds)``, raised to
        the server's ``Retry-After`` hint when that is larger.
    timeout:
        Socket timeout per attempt (seconds).
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    """

    def __init__(
        self,
        base_url: str,
        *,
        tenant: str | None = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        backoff_cap_seconds: float = DEFAULT_BACKOFF_CAP_SECONDS,
        timeout: float = 30.0,
        sleep=time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ServeError("max_retries must be non-negative")
        if not backoff_seconds > 0 or not backoff_cap_seconds > 0:
            raise ServeError("backoff seconds must be positive")
        self.base_url = base_url.rstrip("/")
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ServeError(f"unsupported URL scheme {split.scheme!r}")
        self._host = split.hostname or "127.0.0.1"
        self._port = split.port or 80
        self.tenant = tenant
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)
        self.backoff_cap_seconds = float(backoff_cap_seconds)
        self.timeout = float(timeout)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._connection: http.client.HTTPConnection | None = None
        #: Transient-failure retries performed over this client's lifetime.
        self.retries_performed = 0
        #: TCP connections opened (1 after any number of keep-alive
        #: requests; +1 per transparent stale-connection reconnect).
        self.connections_opened = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop the persistent connection (reopened on the next request)."""
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def query(
        self,
        application: str,
        starts: Sequence[int],
        walk_length: int,
        *,
        params: dict[str, float] | None = None,
        timeout: float | None = None,
        deadline_seconds: float | None = None,
        tenant: str | None = None,
        binary: bool = False,
    ) -> dict[str, object] | wire.DecodedWalks:
        """Run one walk query; retried on transient failures (a read).

        With ``binary=True`` the request negotiates
        ``Accept: application/x-walks-bin`` and the return value is a
        :class:`~repro.serve.wire.DecodedWalks` (zero-copy matrix view)
        instead of the JSON dict.
        """
        body: dict[str, object] = {
            "application": application,
            "starts": list(starts),
            "walk_length": int(walk_length),
        }
        if params:
            body["params"] = dict(params)
        if timeout is not None:
            body["timeout"] = float(timeout)
        if deadline_seconds is not None:
            body["deadline_seconds"] = float(deadline_seconds)
        return self._request(
            "POST", "/v1/query", body, idempotent=True, tenant=tenant, binary=binary
        )

    def ingest(
        self,
        updates: list[dict[str, object]],
        *,
        flush: bool = False,
        tenant: str | None = None,
    ) -> dict[str, object]:
        """Queue an update batch — **never retried** (not idempotent)."""
        body: dict[str, object] = {"updates": list(updates)}
        if flush:
            body["flush"] = True
        return self._request(
            "POST", "/v1/ingest", body, idempotent=False, tenant=tenant
        )

    def stats(self) -> dict[str, object]:
        return self._request("GET", "/v1/stats", None, idempotent=True)

    def health(self) -> dict[str, object]:
        """The ``/healthz`` payload; unhealthy (503) is returned, not raised."""
        try:
            return self._request("GET", "/v1/healthz", None, idempotent=False)
        except ServiceHTTPError as exc:
            if exc.status == 503 and exc.payload:
                return exc.payload
            raise

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _backoff(self, attempt: int, hint: float | None) -> float:
        planned = min(
            self.backoff_seconds * (2.0**attempt), self.backoff_cap_seconds
        )
        if hint is not None:
            planned = max(planned, hint)
        return planned

    def _request(
        self,
        method: str,
        path: str,
        body: dict[str, object] | None,
        *,
        idempotent: bool,
        tenant: str | None = None,
        binary: bool = False,
    ):
        retries = self.max_retries if idempotent else 0
        attempt = 0
        while True:
            try:
                return self._attempt(method, path, body, tenant, binary)
            except ServiceHTTPError as exc:
                if exc.status not in RETRYABLE_STATUSES or attempt >= retries:
                    raise
                hint = exc.retry_after
            except ServiceUnreachableError:
                if attempt >= retries:
                    raise
                hint = None
            self._sleep(self._backoff(attempt, hint))
            self.retries_performed += 1
            attempt += 1

    def _attempt(
        self,
        method: str,
        path: str,
        body: dict[str, object] | None,
        tenant: str | None,
        binary: bool,
    ):
        data: bytes | None = None
        headers = {
            "Accept": wire.WIRE_CONTENT_TYPE if binary else "application/json"
        }
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        tenant = tenant if tenant is not None else self.tenant
        if tenant:
            headers[TENANT_HEADER] = tenant
        with self._lock:
            status, response_headers, raw = self._exchange(
                method, path, data, headers
            )
        if status >= 300:
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = {}
            retry_after = _parse_retry_after(
                response_headers.get("Retry-After")
            )
            raise ServiceHTTPError(status, payload, retry_after)
        content_type = response_headers.get("Content-Type", "")
        if binary and content_type.startswith(wire.WIRE_CONTENT_TYPE):
            return wire.decode_walks(raw)
        return json.loads(raw.decode("utf-8"))

    def _exchange(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, dict[str, str], bytes]:
        """One request/response over the persistent connection.

        A stale reused connection (server closed it while idle) gets one
        transparent reconnect + resend; everything else socket-fatal
        maps onto :class:`ServiceUnreachableError`.
        """
        reused = self._connection is not None
        try:
            return self._roundtrip(method, path, data, headers)
        except _STALE_CONNECTION_ERRORS as exc:
            self._drop_connection()
            if not reused:
                raise ServiceUnreachableError(
                    f"could not reach {self.base_url}: {exc}"
                ) from exc
        except (http.client.HTTPException, OSError) as exc:
            self._drop_connection()
            raise ServiceUnreachableError(
                f"could not reach {self.base_url}: {exc}"
            ) from exc
        # The stale-keep-alive resend: fresh socket, same request.
        try:
            return self._roundtrip(method, path, data, headers)
        except (http.client.HTTPException, OSError) as exc:
            self._drop_connection()
            raise ServiceUnreachableError(
                f"could not reach {self.base_url}: {exc}"
            ) from exc

    def _roundtrip(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, dict[str, str], bytes]:
        connection = self._connection
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            connection.connect()
            self._connection = connection
            self.connections_opened += 1
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        response_headers = {
            name: value for name, value in response.getheaders()
        }
        if response.will_close:
            # The server asked for Connection: close; do not reuse.
            self._drop_connection()
        return response.status, response_headers, raw

    def _drop_connection(self) -> None:
        connection = self._connection
        self._connection = None
        if connection is not None:
            try:
                connection.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass


__all__ = [
    "DEFAULT_BACKOFF_CAP_SECONDS",
    "DEFAULT_BACKOFF_SECONDS",
    "DEFAULT_MAX_RETRIES",
    "ServiceClient",
    "ServiceHTTPError",
    "ServiceUnreachableError",
]
