"""Query and result types for the streaming serve layer.

A :class:`WalkQuery` describes one walk request (application, start
vertices, length and hyper-parameters); :class:`GraphService.submit`
wraps it in a :class:`QueryTicket` — a tiny future the caller waits on —
and the dispatcher fuses compatible queries into one frontier run.  The
resolved :class:`ServeResult` carries the dense walk matrix plus the
epoch of the snapshot that served it, which is what the consistency
tests check snapshot isolation against.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.errors import (
    QueryTimeoutError,
    QueryValidationError,
    ReproError,
    ServeError,
)
from repro.utils.rng import AnyRngSource
from repro.walks.frontier import BatchedWalks

#: Applications the serve layer understands (the paper's Table 3 set).
SERVE_APPLICATIONS = ("deepwalk", "ppr", "node2vec")

#: Tenant id used when the caller does not name one.
DEFAULT_TENANT = "default"


def deadline_in(seconds: float) -> float:
    """An absolute :class:`WalkQuery` deadline ``seconds`` from now.

    Deadlines are absolute ``time.monotonic()`` timestamps so they keep
    meaning while a query sits in a tenant lane — the dispatcher drops
    expired queries *before* fusing them (see
    :class:`~repro.errors.QueryExpiredError`).
    """
    if not seconds > 0:
        raise QueryValidationError("deadline seconds must be positive")
    return time.monotonic() + float(seconds)


def validate_starts(starts, num_vertices: int) -> list[int]:
    """Check query start vertices against the serving snapshot.

    The serve boundary is the trust boundary: the walk kernels downstream
    assume in-range int64 vertex ids, and violations do not crash — they
    produce garbage (an out-of-range id is served as ``[[9999, -1]]``, a
    negative id wraps onto some other vertex's tables, a float is silently
    truncated).  Reject all three shapes with a clean
    :class:`~repro.errors.QueryValidationError` naming the offending value.

    Returns the starts as a plain list of Python ints (possibly empty).
    """
    items = list(starts)
    array = np.asarray(items)
    if array.ndim != 1:
        raise QueryValidationError(
            "start vertices must be a flat sequence of vertex ids, got an "
            f"array of shape {array.shape}"
        )
    if array.size == 0:
        return []
    if not np.issubdtype(array.dtype, np.integer):
        if not np.issubdtype(array.dtype, np.floating):
            raise QueryValidationError(
                "start vertices must be integers, got "
                f"{array.dtype} ({items[0]!r}, ...)"
            )
        integral = np.isfinite(array) & (array == np.floor(array))
        if not integral.all():
            offender = float(array[~integral][0])
            raise QueryValidationError(
                f"non-integral start vertex {offender!r}: start vertices "
                "must be whole numbers, not truncated floats"
            )
        array = array.astype(np.int64)
    in_range = (array >= 0) & (array < num_vertices)
    if not in_range.all():
        offender = int(array[~in_range][0])
        raise QueryValidationError(
            f"start vertex {offender} does not exist in the serving snapshot "
            f"(valid ids: 0 .. {num_vertices - 1})"
        )
    return [int(v) for v in array]


def _number(name: str, value) -> float:
    """``value`` as a float, or :class:`QueryValidationError` if it is no number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise QueryValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass
class WalkQuery:
    """One walk request against the currently published snapshot.

    ``params`` carries the application hyper-parameters; missing entries
    are resolved to the paper defaults the benchmark harness uses
    (node2vec ``p=0.5, q=2``; PPR termination ``1/walk_length`` with a
    ``4 * walk_length`` step cap) so service queries and harness walks
    stay comparable.
    """

    application: str
    starts: Sequence[int]
    walk_length: int
    #: Walk randomness.  Live generators are only honoured when the query
    #: runs alone (sync mode / unfused); fused groups draw from a stream
    #: derived from the service seed.
    rng: AnyRngSource = None
    params: dict[str, float] = field(default_factory=dict)
    #: Absolute ``time.monotonic()`` deadline (see :func:`deadline_in`).
    #: The dispatcher fails queries whose deadline passed while queued with
    #: :class:`~repro.errors.QueryExpiredError` instead of fusing them.
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.application not in SERVE_APPLICATIONS:
            raise QueryValidationError(
                f"unknown application {self.application!r}; available: "
                + ", ".join(SERVE_APPLICATIONS)
            )
        if self.walk_length < 1:
            raise QueryValidationError("walk_length must be positive")
        self._check_params()
        if self.deadline is not None and not float(self.deadline) > 0:
            raise QueryValidationError(
                "deadline must be a positive time.monotonic() timestamp; "
                "use repro.serve.deadline_in(seconds)"
            )

    def _check_params(self) -> None:
        """Reject hyper-parameters the walk drivers would only trip on late.

        A NaN node2vec ``p`` otherwise runs every rejection round before
        failing, and a string one fails inside the dispatcher.
        """
        params = self.params
        if self.application == "node2vec":
            for name in ("p", "q"):
                if name in params and not 0 < _number(name, params[name]) < math.inf:
                    raise QueryValidationError(
                        f"node2vec {name} must be positive and finite, got {params[name]!r}"
                    )
        elif self.application == "ppr":
            name = "termination_probability"
            if name in params and not 0 < _number(name, params[name]) <= 1:
                raise QueryValidationError(
                    f"ppr {name} must lie in (0, 1], got {params[name]!r}"
                )
            steps = params.get("max_steps", 1)
            integral = isinstance(steps, numbers.Integral) or (
                isinstance(steps, float) and steps.is_integer()
            )
            if isinstance(steps, bool) or not integral or steps < 1:
                raise QueryValidationError(
                    f"ppr max_steps must be a positive integer, got {steps!r}"
                )

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline passed (always ``False`` without one)."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def resolved_params(self) -> dict[str, float]:
        """Hyper-parameters with the paper defaults filled in."""
        params = dict(self.params)
        if self.application == "node2vec":
            params.setdefault("p", 0.5)
            params.setdefault("q", 2.0)
        elif self.application == "ppr":
            params.setdefault("termination_probability", 1.0 / self.walk_length)
            params.setdefault("max_steps", 4 * self.walk_length)
        return params

    def fuse_key(self) -> tuple:
        """Queries with equal keys may share one fused frontier run."""
        return (
            self.application,
            self.walk_length,
            tuple(sorted(self.resolved_params().items())),
        )


@dataclass
class ServeResult:
    """The resolved output of one walk query."""

    walks: BatchedWalks
    #: Epoch of the snapshot the query ran against.
    epoch: int
    #: Wall-clock seconds from submission to completion (includes queueing).
    latency_seconds: float
    #: How many queries shared the fused frontier run (1 = ran alone).
    fused_with: int = 1


class QueryTicket:
    """A waitable handle for one submitted :class:`WalkQuery`.

    ``tenant`` names the submitting tenant — admission, fair-share
    scheduling and the per-tenant latency windows key off it.

    Completion is observable two ways: pull (:meth:`result` blocks on an
    event — what in-process callers do) and push
    (:meth:`add_done_callback` — what the event-loop front-end uses to
    resume a connection without parking a thread per request).
    """

    def __init__(self, query: WalkQuery, tenant: str = DEFAULT_TENANT) -> None:
        self.query = query
        self.tenant = tenant
        self.submitted_at = time.perf_counter()
        self._event = threading.Event()
        self._result: ServeResult | None = None
        self._error: BaseException | None = None
        self._callback_lock = threading.Lock()
        self._callbacks: list = []

    # ------------------------------------------------------------------ #
    # dispatcher side
    # ------------------------------------------------------------------ #
    def resolve(self, walks: BatchedWalks, epoch: int, fused_with: int) -> float:
        """Complete the ticket; returns the measured latency.

        First completion wins — a ticket failed by a racing ``close()``
        stays failed.
        """
        latency = time.perf_counter() - self.submitted_at
        with self._callback_lock:
            if self._event.is_set():
                return latency
            self._result = ServeResult(
                walks=walks,
                epoch=epoch,
                latency_seconds=latency,
                fused_with=fused_with,
            )
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._invoke_callback(callback)
        return latency

    def fail(self, error: BaseException) -> None:
        with self._callback_lock:
            if self._event.is_set():
                return
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._invoke_callback(callback)

    def _invoke_callback(self, callback) -> None:
        # A broken completion callback must never wedge the thread that
        # completed the ticket (the dispatcher or the writer) — the
        # ticket is already resolved, the callback is best-effort.
        try:
            callback(self)
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # caller side
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self._event.is_set()

    def add_done_callback(self, callback) -> None:
        """Call ``callback(ticket)`` exactly once when the ticket completes.

        Fires immediately (on the registering thread) when the ticket is
        already complete; otherwise fires on whichever thread completes
        it — the dispatcher for resolved walks, the dispatcher/writer/
        closer for failures.  Registration and completion are serialized
        under one lock, so a callback registered concurrently with
        :meth:`resolve`/:meth:`fail` fires exactly once, never zero or
        two times.  Exceptions raised by the callback are swallowed: a
        broken consumer cannot wedge the dispatcher.
        """
        with self._callback_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        self._invoke_callback(callback)

    def result(self, timeout: float | None = None) -> ServeResult:
        """Block until the query resolves and return its result."""
        if not self._event.wait(timeout):
            raise QueryTimeoutError("timed out waiting for a walk query result")
        if self._error is not None:
            if isinstance(self._error, ReproError):
                raise self._error
            raise ServeError(f"walk query failed: {self._error!r}") from self._error
        assert self._result is not None
        return self._result


#: Most recent per-query samples kept for the latency/fusion windows.  A
#: long-lived service serves unbounded queries; the percentile windows stay
#: bounded (~0.5 MB) while the scalar counters remain exact and cumulative.
STATS_WINDOW = 65_536


@dataclass
class ServeStats:
    """Cumulative execution statistics of one :class:`GraphService`.

    Busy times are per-thread CPU seconds (``time.thread_time``), so the
    writer and query figures can be compared as if each ran on its own
    device — the same critical-path convention the shard-parallel scale
    experiment and the fig12 batched-update model use.  ``latencies`` and
    ``fused_sizes`` are sliding windows of the most recent
    :data:`STATS_WINDOW` samples; every other field is exact.
    """

    epochs_published: int = 0
    batches_ingested: int = 0
    #: Logical updates applied (each batch counted once).
    updates_applied: int = 0
    #: Updates replayed onto the trailing buffer by double-buffer catch-up.
    catchup_updates: int = 0
    queries_served: int = 0
    fused_groups: int = 0
    fused_sizes: deque[int] = field(
        default_factory=lambda: deque(maxlen=STATS_WINDOW)
    )
    total_walk_steps: int = 0
    #: Writer-thread CPU seconds inside apply/catch-up/publish.
    update_busy_seconds: float = 0.0
    #: Writer-thread CPU seconds pre-building fused frontier tables.
    warm_seconds: float = 0.0
    #: Epochs whose back buffer was warmed before publication.
    epochs_warmed: int = 0
    #: Vertex slices re-derived by warming (the published epoch deltas).
    warm_vertices: int = 0
    #: Of the warmed epochs: how many were a cold full table build (a
    #: fresh or recovered engine) instead of a delta.
    warm_full_rebuilds: int = 0
    #: Of which: the router's shard flip broadcast before each commit.
    refresh_seconds: float = 0.0
    #: Dispatcher-thread CPU seconds inside fused walk execution.
    query_busy_seconds: float = 0.0
    #: Writer failures survived by quarantine + back-buffer rebuild.
    writer_recoveries: int = 0
    #: Update batches quarantined into the dead-letter list (dropped).
    batches_quarantined: int = 0
    #: Wall seconds the writer spent rebuilding after failures (MTTR sum).
    recovery_seconds: float = 0.0
    #: Dead shard serve processes the router replaced.
    worker_respawns: int = 0
    #: Fused waves retried once after a worker crash.
    wave_retries: int = 0
    #: Queries dropped because their deadline passed before fusing.
    queries_expired: int = 0
    #: Peers that closed mid-response (``BrokenPipeError`` /
    #: ``ConnectionResetError`` while a front-end wrote to them).  A
    #: client hanging up is its prerogative, not a server traceback.
    client_disconnects: int = 0
    latencies: deque[float] = field(
        default_factory=lambda: deque(maxlen=STATS_WINDOW)
    )

    def mean_fused_queries(self) -> float:
        if not self.fused_sizes:
            return 0.0
        return float(np.mean(self.fused_sizes))

    def latency_percentiles(self) -> dict[str, float]:
        """p50 / p99 query latency in seconds (zeros when nothing ran)."""
        if not self.latencies:
            return {"p50": 0.0, "p99": 0.0}
        samples = np.asarray(self.latencies, dtype=np.float64)
        return {
            "p50": float(np.percentile(samples, 50)),
            "p99": float(np.percentile(samples, 99)),
        }
