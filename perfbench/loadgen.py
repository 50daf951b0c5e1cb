"""Single-threaded ``selectors`` load generator over two keep-alive connections.

Queries travel pipelined on one connection and ingests (plus the few
``GET`` control reads between phases) on the other, so ingests reach the
server in FIFO order and batch *k* publishes epoch *k*.  The server's
ordered response slots make pipelining safe: replies come back in request
order per connection.  Request bytes are encoded before timing starts;
the loop only writes them at their due time and decodes replies.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from inputs import Request, get_request

#: The ``application/x-walks-bin`` header: magic, version, dtype, epoch,
#: rows, cols, total_steps, latency, fused_with, reserved.
WIRE_HEADER = struct.Struct("<8sIIqqqqdII")
WIRE_MAGIC = b"BINGOWLK"
WIRE_CONTENT_TYPE = "application/x-walks-bin"

#: Ingest requests outstanding at once in a closed loop.
INGEST_OUTSTANDING = 2


class ProtocolError(Exception):
    """A reply the benchmark cannot account to a request."""


@dataclass
class Outcome:
    """What happened to one request."""

    request: Request
    phase: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    epoch: int = -1
    steps: int = 0
    payload: object = None


@dataclass
class Reply:
    status: int
    headers: dict[str, str]
    body: bytes


class ResponseParser:
    """Incremental HTTP/1.1 response parser for ``Content-Length`` bodies."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._head: tuple[int, dict[str, str]] | None = None
        self._need = 0

    def feed(self, data: bytes) -> list[Reply]:
        self._buffer += data
        replies: list[Reply] = []
        while True:
            if self._head is None:
                end = self._buffer.find(b"\r\n\r\n")
                if end < 0:
                    return replies
                lines = bytes(self._buffer[:end]).decode("latin-1").split("\r\n")
                del self._buffer[: end + 4]
                headers = {}
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                if "transfer-encoding" in headers:
                    raise ProtocolError("chunked reply to a request that did not ask for one")
                self._head = (int(lines[0].split()[1]), headers)
                self._need = int(headers.get("content-length", "0"))
            if len(self._buffer) < self._need:
                return replies
            body = bytes(self._buffer[: self._need])
            del self._buffer[: self._need]
            replies.append(Reply(self._head[0], self._head[1], body))
            self._head = None


def decode_walks(reply: Reply) -> tuple[int, np.ndarray, int]:
    """``(epoch, matrix, total_steps)`` of a binary or JSON walk reply."""
    if reply.headers.get("content-type") == WIRE_CONTENT_TYPE:
        body = reply.body
        if len(body) < WIRE_HEADER.size:
            raise ProtocolError(f"binary walk reply of {len(body)} bytes")
        magic, _version, _dtype, epoch, rows, cols, steps, _lat, _fused, _ = (
            WIRE_HEADER.unpack_from(body)
        )
        if magic != WIRE_MAGIC or len(body) != WIRE_HEADER.size + rows * cols * 8:
            raise ProtocolError("malformed binary walk reply")
        matrix = np.frombuffer(body, "<i8", offset=WIRE_HEADER.size).reshape(rows, cols)
        return epoch, matrix, steps
    payload = json.loads(reply.body)
    walks = payload["walks"]
    matrix = np.array(walks, dtype=np.int64)
    if matrix.ndim != 2:
        matrix = matrix.reshape(len(walks), -1)
    return int(payload["epoch"]), matrix, int(payload["total_steps"])


class _Connection:
    def __init__(self, port: int, selector: selectors.BaseSelector) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out: deque[memoryview] = deque()
        self.inflight: deque[Outcome] = deque()
        self.parser = ResponseParser()
        self.writing = False
        self.selector = selector
        selector.register(self.sock, selectors.EVENT_READ, self)

    def flush(self) -> None:
        while self.out:
            head = self.out[0]
            try:
                sent = self.sock.send(head)
            except BlockingIOError:
                break
            if sent < len(head):
                self.out[0] = head[sent:]
                break
            self.out.popleft()
        want = bool(self.out)
        if want != self.writing:
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
            self.selector.modify(self.sock, events, self)
            self.writing = want

    def close(self) -> None:
        self.selector.unregister(self.sock)
        self.sock.close()


class LoadGenerator:
    """Drives one server.

    ``handle(outcome, reply)`` decodes each reply, stamps ``outcome.done``
    as soon as it is decoded, and only then checks it, so checking never
    counts toward latency.
    """

    def __init__(self, port: int, handle: Callable[[Outcome, Reply], None]) -> None:
        self._selector = selectors.DefaultSelector()
        self._queries = _Connection(port, self._selector)
        self._ingests = _Connection(port, self._selector)
        self._handle = handle

    def close(self) -> None:
        for conn in (self._queries, self._ingests):
            conn.close()
        self._selector.close()

    def _conn(self, request: Request) -> _Connection:
        return self._queries if request.kind == "query" else self._ingests

    def _send(self, outcome: Outcome) -> None:
        conn = self._conn(outcome.request)
        outcome.sent = perf_counter()
        conn.out.append(memoryview(outcome.request.payload))
        conn.inflight.append(outcome)
        conn.flush()

    def outstanding(self) -> int:
        return len(self._queries.inflight) + len(self._ingests.inflight)

    def pump(self, timeout: float) -> None:
        for key, mask in self._selector.select(timeout):
            conn: _Connection = key.data
            if mask & selectors.EVENT_WRITE:
                conn.flush()
            if not mask & selectors.EVENT_READ:
                continue
            try:
                data = conn.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not data:
                raise ProtocolError("the server closed a keep-alive connection")
            for reply in conn.parser.feed(data):
                if not conn.inflight:
                    raise ProtocolError("a reply arrived for no outstanding request")
                outcome = conn.inflight.popleft()
                outcome.status = reply.status
                self._handle(outcome, reply)

    def _drain(self, deadline: float) -> None:
        while self.outstanding() and perf_counter() < deadline:
            self.pump(min(0.05, max(0.0, deadline - perf_counter())))

    def open_loop(
        self, schedule: list[tuple[float, Request]], start: float, phase: str, grace: float
    ) -> list[Outcome]:
        """Send each request at ``start + offset`` whatever the replies do."""
        outcomes = [Outcome(request, phase, start + offset) for offset, request in schedule]
        for outcome in outcomes:
            wait = outcome.due - perf_counter()
            while wait > 0:
                self.pump(wait)
                wait = outcome.due - perf_counter()
            self._send(outcome)
        self._drain(perf_counter() + grace)
        return outcomes

    def closed_loop(
        self, requests: list[Request], outstanding: int, phase: str, grace: float
    ) -> list[Outcome]:
        """Keep ``outstanding`` queries in flight until every request is answered."""
        outcomes: list[Outcome] = []
        deadline = perf_counter() + grace
        for request in requests:
            limit = outstanding if request.kind == "query" else INGEST_OUTSTANDING
            while len(self._conn(request).inflight) >= limit:
                if perf_counter() > deadline:
                    return outcomes
                self.pump(0.05)
            outcome = Outcome(request, phase, perf_counter())
            outcomes.append(outcome)
            self._send(outcome)
        self._drain(deadline)
        return outcomes

    def get_json(self, path: str, timeout: float = 30.0) -> dict:
        """One control ``GET`` on the ingest connection (between phases)."""
        outcome = Outcome(Request("control", get_request(path)), "control", perf_counter())
        self._send(outcome)
        self._drain(perf_counter() + timeout)
        if not outcome.done:
            raise ProtocolError(f"GET {path} was not answered within {timeout}s")
        if outcome.status != 200:
            raise ProtocolError(f"GET {path} answered {outcome.status}")
        return outcome.payload
