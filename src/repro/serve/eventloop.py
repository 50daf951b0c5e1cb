"""Event-loop HTTP front-end: one thread, thousands of connections.

The serve layer's only network front-end.  It holds every connection in
a single ``selectors`` loop instead of spending an OS thread per
connection:

* **Non-blocking everything** — accept, read and write all happen on
  ready sockets only; a slow client costs one ``Connection`` object, not
  a thread.
* **Incremental parsing** — bytes go into a per-connection
  :class:`~repro.serve.protocol.HTTPRequestParser`; requests may arrive
  split at any byte boundary or several per read (pipelining), and an
  oversized ``Content-Length`` is refused at the header boundary.
* **Push-based query completion** — ``/v1/query`` submits to the
  :class:`~repro.serve.GraphService` and registers a
  ``ticket.add_done_callback``; the dispatcher thread's callback drops
  the finished ticket onto a completion queue and tickles a self-pipe,
  which wakes the loop to render and write the response.  The loop never
  blocks on a ticket.
* **Pipelining-safe response slots** — each request reserves an ordered
  slot on its connection; responses are written strictly in request
  order no matter which ticket resolves first.
* **Write queues** — responses (including zero-copy binary walk
  matrices, see :mod:`repro.serve.wire`) are queued as bytes-like parts
  and drained on ``EVENT_WRITE`` readiness; a peer that hangs up
  mid-response increments ``client_disconnects`` instead of printing a
  traceback.

Routing, validation and error mapping are the shared
:mod:`repro.serve.protocol` module.  Every transport setting comes from
one :class:`~repro.serve.config.ServiceConfig`.

Admission control rejects, never blocks: a full tenant lane answers 429
with ``Retry-After`` instead of parking the loop's only thread.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque

from repro.serve import protocol
from repro.serve.config import ServiceConfig
from repro.serve.faults import FaultInjector
from repro.serve.protocol import (
    RETRYABLE_STATUSES,
    HTTPParseError,
    HTTPRequestParser,
    ParsedRequest,
    PendingQuery,
    Response,
)
from repro.serve.service import GraphService

#: Reason phrases for the statuses this server actually emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Slot:
    """One in-order response slot on a connection.

    Requests reserve slots in arrival order; a slot becomes ``ready``
    when its response parts are known, and the connection flushes ready
    slots strictly from the head so pipelined responses cannot reorder.
    """

    __slots__ = ("ready", "parts", "close", "pending", "deadline", "response")

    def __init__(self) -> None:
        self.ready = False
        self.parts: list[bytes | memoryview] = []
        self.close = False
        #: The PendingQuery this slot waits on (None for immediate ones).
        self.pending: PendingQuery | None = None
        #: Monotonic deadline for the server-side query timeout sweep.
        self.deadline: float | None = None
        #: A finished but deferred response (flush_pending ingests).
        self.response: Response | None = None


class _Connection:
    """Per-socket state owned exclusively by the loop thread."""

    __slots__ = (
        "sock",
        "fd",
        "parser",
        "out",
        "out_offset",
        "slots",
        "eof",
        "closed",
        "discard_input",
        "keep_alive",
        "want_write",
        "last_activity",
    )

    def __init__(self, sock: socket.socket, parser: HTTPRequestParser) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.parser = parser
        #: Bytes-like chunks awaiting the socket, head partially written.
        self.out: deque[bytes | memoryview] = deque()
        self.out_offset = 0
        #: Ordered response slots (head = oldest outstanding request).
        self.slots: deque[_Slot] = deque()
        self.eof = False
        self.closed = False
        #: Set after a parse error: later bytes are noise on a dead stream.
        self.discard_input = False
        self.keep_alive = True
        self.want_write = False
        self.last_activity = time.monotonic()


class EventLoopHTTPServer:
    """A single-threaded ``selectors`` HTTP server over a GraphService.

    Transport settings (address, query / body timeouts, ``Retry-After``
    hint, body limit, access log) come from ``config``; an incomplete
    request idle for ``body_timeout`` seconds is answered with 400 and
    closed.  Use :func:`serve_event_loop` to run it on a background
    thread.
    """

    def __init__(
        self,
        service: GraphService,
        config: ServiceConfig | None = None,
        *,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        config = config if config is not None else ServiceConfig()
        self.service = service
        self.query_timeout = config.query_timeout
        self.body_timeout = config.body_timeout
        self.log_requests = config.log_requests
        self.fault_injector = fault_injector
        self.retry_after_seconds = config.retry_after_seconds
        self.max_body_bytes = config.max_body_bytes

        self._listener = socket.create_server(
            (config.host, config.port), backlog=1024
        )
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()

        # The self-pipe: ticket callbacks run on dispatcher / writer
        # threads; they enqueue the completion and poke the write end to
        # wake a loop that is parked in select().
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)

        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, None)

        self._connections: dict[int, _Connection] = {}
        self._completions: deque[tuple[_Connection, _Slot]] = deque()
        self._completion_lock = threading.Lock()
        #: Connections holding unresolved query slots (timeout sweep).
        self._waiting: set[_Connection] = set()
        #: Connections holding deferred flush_pending responses.
        self._flush_waiters: set[_Connection] = set()
        #: Connections with a partially-read request (stall sweep).
        self._partial: set[_Connection] = set()

        self._stop = False
        self._done = threading.Event()

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        """Stop the loop and close every connection (idempotent)."""
        self._stop = True
        self._wake()
        self._done.wait(timeout=10.0)

    def connection_count(self) -> int:
        """Open client connections (loop-thread accurate, others racy-ok)."""
        return len(self._connections)

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        try:
            while not self._stop:
                # Sweeps (query timeouts, flush polls, stalled bodies)
                # need a finite select timeout only when there is
                # something to sweep.
                if self._flush_waiters:
                    timeout = 0.02
                elif self._waiting or self._partial:
                    timeout = 0.05
                else:
                    timeout = 0.5
                events = self._selector.select(timeout)
                for key, _mask in events:
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.fileobj is self._wake_recv:
                        self._drain_wake()
                    else:
                        conn = key.data
                        if conn is None or conn.closed:
                            continue
                        if _mask & selectors.EVENT_READ:
                            self._read_ready(conn)
                        if not conn.closed and _mask & selectors.EVENT_WRITE:
                            self._write_ready(conn)
                self._drain_completions()
                self._sweep(time.monotonic())
        finally:
            self._teardown()

    # ------------------------------------------------------------------ #
    # accept / read
    # ------------------------------------------------------------------ #
    def _accept(self) -> None:
        # Accept in a loop: one READ event may announce many connections.
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP sockets
                pass
            conn = _Connection(
                sock, HTTPRequestParser(max_body_bytes=self.max_body_bytes)
            )
            self._connections[conn.fd] = conn
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _read_ready(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._disconnect(conn)
            return
        if not data:
            conn.eof = True
            # Keep the connection only while responses are still owed.
            if not conn.slots and not conn.out:
                self._close(conn)
            return
        conn.last_activity = time.monotonic()
        if conn.discard_input:
            return
        try:
            requests = conn.parser.feed(data)
        except HTTPParseError as exc:
            self._parse_failure(conn, exc)
            return
        if conn.parser.idle:
            self._partial.discard(conn)
        else:
            self._partial.add(conn)
        for request in requests:
            if conn.closed:
                break
            self._handle_request(conn, request)

    def _parse_failure(self, conn: _Connection, exc: HTTPParseError) -> None:
        # The stream is desynchronized: answer, then close after flush.
        conn.discard_input = True
        self._partial.discard(conn)
        error: Exception
        if exc.error_type == "PayloadTooLarge":
            error = protocol.PayloadTooLarge(str(exc))
        else:
            error = protocol.BadRequest(str(exc))
        response = protocol.error_response(error, self.retry_after_seconds)
        response.close = True
        slot = _Slot()
        conn.slots.append(slot)
        self._fill_slot(conn, slot, response)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _handle_request(self, conn: _Connection, request: ParsedRequest) -> None:
        if self.log_requests:
            print(
                f"eventloop: {request.method} {request.target} "
                f"({len(request.body)}B body)",
                flush=True,
            )
        slot = _Slot()
        slot.close = not request.keep_alive
        conn.slots.append(slot)
        outcome = protocol.handle_request(
            self.service,
            request.method,
            request.target,
            request.headers,
            request.body or None,
            default_query_timeout=self.query_timeout,
            retry_after_seconds=self.retry_after_seconds,
            fault_injector=self.fault_injector,
        )
        if isinstance(outcome, PendingQuery):
            slot.pending = outcome
            if outcome.timeout is not None:
                slot.deadline = time.monotonic() + outcome.timeout
            self._waiting.add(conn)
            # The callback may fire on the dispatcher thread, the writer
            # thread, or inline right now (sync service / already-failed
            # ticket) — every path goes through the completion queue so
            # connection state is only ever touched by the loop thread.
            outcome.ticket.add_done_callback(
                lambda _ticket, conn=conn, slot=slot: self._on_ticket_done(
                    conn, slot
                )
            )
            return
        if outcome.flush_pending:
            # A flushing /ingest: hold the finished response until the
            # update queue drains, then restamp the epoch.
            slot.response = outcome
            self._flush_waiters.add(conn)
            return
        self._fill_slot(conn, slot, outcome)

    def _on_ticket_done(self, conn: _Connection, slot: _Slot) -> None:
        """Ticket callback — runs on whatever thread completed the ticket."""
        with self._completion_lock:
            self._completions.append((conn, slot))
        self._wake()

    def _drain_completions(self) -> None:
        while True:
            with self._completion_lock:
                if not self._completions:
                    return
                conn, slot = self._completions.popleft()
            if conn.closed or slot.ready:
                # Connection died, or the timeout sweep already answered
                # 504 for this slot; the late result is dropped.
                continue
            assert slot.pending is not None
            self._fill_slot(conn, slot, slot.pending.finish())

    # ------------------------------------------------------------------ #
    # responses / writing
    # ------------------------------------------------------------------ #
    def _fill_slot(
        self, conn: _Connection, slot: _Slot, response: Response
    ) -> None:
        keep_alive = not (slot.close or response.close)
        slot.parts = self._encode(response, keep_alive)
        slot.close = not keep_alive
        slot.ready = True
        slot.pending = None
        slot.deadline = None
        slot.response = None
        if not any(s.pending is not None for s in conn.slots):
            self._waiting.discard(conn)
        self._flush_ready(conn)

    def _encode(
        self, response: Response, keep_alive: bool
    ) -> list[bytes | memoryview]:
        parts = response.parts()
        reason = _REASONS.get(response.status, "Unknown")
        head = [f"HTTP/1.1 {response.status} {reason}\r\n"]
        head.append(f"Content-Type: {response.content_type}\r\n")
        headers = dict(response.headers)
        if (
            response.status in RETRYABLE_STATUSES
            and "Retry-After" not in headers
        ):
            headers["Retry-After"] = f"{self.retry_after_seconds:g}"
        for name, value in headers.items():
            head.append(f"{name}: {value}\r\n")
        head.append(
            "Connection: keep-alive\r\n" if keep_alive else "Connection: close\r\n"
        )
        if response.chunked:
            head.append("Transfer-Encoding: chunked\r\n\r\n")
            encoded: list[bytes | memoryview] = [
                "".join(head).encode("latin-1")
            ]
            for part in parts:
                view = memoryview(part)
                if view.nbytes:
                    encoded.append(b"%x\r\n" % view.nbytes)
                    encoded.append(view)
                    encoded.append(b"\r\n")
            encoded.append(b"0\r\n\r\n")
            return encoded
        length = response.content_length(parts)
        head.append(f"Content-Length: {length}\r\n\r\n")
        encoded = ["".join(head).encode("latin-1")]
        encoded.extend(part for part in parts if memoryview(part).nbytes)
        return encoded

    def _flush_ready(self, conn: _Connection) -> None:
        """Move ready head slots into the write queue, then write."""
        close_after = False
        while conn.slots and conn.slots[0].ready:
            slot = conn.slots.popleft()
            conn.out.extend(slot.parts)
            slot.parts = []
            if slot.close:
                close_after = True
                conn.slots.clear()
                break
        if close_after:
            conn.keep_alive = False
        self._write_ready(conn)

    def _write_ready(self, conn: _Connection) -> None:
        try:
            while conn.out:
                head = conn.out[0]
                view = memoryview(head)
                if conn.out_offset:
                    view = view[conn.out_offset :]
                sent = conn.sock.send(view)
                if sent < view.nbytes:
                    conn.out_offset += sent
                    self._set_want_write(conn, True)
                    return
                conn.out.popleft()
                conn.out_offset = 0
        except (BlockingIOError, InterruptedError):
            self._set_want_write(conn, True)
            return
        except OSError:
            # BrokenPipe / ConnectionReset / anything else socket-fatal:
            # the peer hung up mid-response.
            self._disconnect(conn)
            return
        self._set_want_write(conn, False)
        if not conn.keep_alive and not conn.slots:
            self._close(conn)
        elif conn.eof and not conn.slots:
            self._close(conn)

    def _set_want_write(self, conn: _Connection, want: bool) -> None:
        if conn.closed or want == conn.want_write:
            return
        conn.want_write = want
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
        self._selector.modify(conn.sock, events, conn)

    # ------------------------------------------------------------------ #
    # sweeps (timeouts, flush polls)
    # ------------------------------------------------------------------ #
    def _sweep(self, now: float) -> None:
        if self._waiting:
            for conn in list(self._waiting):
                if conn.closed:
                    self._waiting.discard(conn)
                    continue
                for slot in list(conn.slots):
                    if (
                        slot.pending is not None
                        and slot.deadline is not None
                        and now >= slot.deadline
                    ):
                        # Server-side query timeout: answer 504 now; the
                        # late ticket completion is dropped in
                        # _drain_completions because the slot is ready.
                        pending = slot.pending
                        slot.pending = None
                        self._fill_slot(conn, slot, pending.timeout_response())
        if self._flush_waiters and self.service.pending_updates() == 0:
            for conn in list(self._flush_waiters):
                self._flush_waiters.discard(conn)
                if conn.closed:
                    continue
                for slot in list(conn.slots):
                    if slot.response is not None and not slot.ready:
                        response = slot.response
                        try:
                            # Queue is drained; surface any writer
                            # failure exactly like a blocking flush().
                            self.service.flush()
                        except Exception as exc:  # noqa: BLE001
                            response = protocol.error_response(
                                exc, self.retry_after_seconds
                            )
                        else:
                            if response.payload is not None:
                                response.payload["epoch"] = self.service.epoch
                        self._fill_slot(conn, slot, response)
        if self._partial and self.body_timeout is not None:
            deadline = now - self.body_timeout
            for conn in list(self._partial):
                if conn.closed or conn.parser.idle:
                    self._partial.discard(conn)
                    continue
                if conn.last_activity <= deadline:
                    self._parse_failure(
                        conn,
                        HTTPParseError(
                            400,
                            "timed out reading the request (fewer bytes "
                            "sent than declared)",
                        ),
                    )

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #
    def _disconnect(self, conn: _Connection) -> None:
        """A peer vanished with work still owed — count it, then close."""
        if not conn.closed and (conn.out or conn.slots):
            self.service.note_client_disconnect()
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._connections.pop(conn.fd, None)
        self._waiting.discard(conn)
        self._flush_waiters.discard(conn)
        self._partial.discard(conn)
        conn.out.clear()
        conn.slots.clear()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\x01")
        except (BlockingIOError, InterruptedError):
            pass  # pipe already full: the loop is awake anyway
        except OSError:
            pass  # torn down concurrently

    def _drain_wake(self) -> None:
        while True:
            try:
                if not self._wake_recv.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return

    def _teardown(self) -> None:
        for conn in list(self._connections.values()):
            self._close(conn)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._selector.unregister(self._wake_recv)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._wake_recv.close()
        self._wake_send.close()
        self._selector.close()
        self._done.set()


def serve_event_loop(
    service: GraphService,
    *,
    config: ServiceConfig | None = None,
    fault_injector: FaultInjector | None = None,
) -> tuple[EventLoopHTTPServer, threading.Thread]:
    """Start the event-loop front-end on a daemon thread.

    Returns the bound server (``server.url`` has the resolved port;
    ``config.port=0`` lets the OS pick) and the loop thread;
    ``server.shutdown()`` stops it without closing the service.
    """
    server = EventLoopHTTPServer(service, config, fault_injector=fault_injector)
    thread = threading.Thread(
        target=server.serve_forever, name="graph-service-eventloop", daemon=True
    )
    thread.start()
    return server, thread


__all__ = [
    "EventLoopHTTPServer",
    "serve_event_loop",
]
