"""Multi-tenant admission and fair-share query scheduling.

The streaming service of PR 4 fused whatever landed on one shared queue —
which means a tenant flooding 500 queries pushes every other tenant's
latency behind its backlog.  This module gives :class:`~repro.serve.GraphService`
the serving-system answer:

* **Per-tenant bounded queues.**  Every tenant owns a lane with its own
  :class:`TenantQuota`; a full lane rejects further submissions with a
  clean :class:`~repro.errors.QuotaExceededError` (the legacy single-tenant
  default lane keeps the PR 4 blocking back-pressure instead).

* **Deficit-round-robin fair-share fusing.**  The dispatcher asks
  :meth:`FairShareQueue.get_wave` for the next fused wave; the wave is
  drained in *weighted turns* across the pending lanes, so a flooding
  tenant's backlog and a light tenant's single query share every fused
  frontier in proportion to their weights.  The light tenant's p99 tracks
  the wave time, not the flood's queue depth.

* **Per-tenant stats.**  Admitted / rejected / served counters plus a
  bounded latency window per lane, surfaced by ``GET /stats`` on the HTTP
  front-end and by the fairness benchmark.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Mapping

import numpy as np

from repro.errors import QuotaExceededError, ServeError, ServiceClosedError
from repro.serve.queries import DEFAULT_TENANT, STATS_WINDOW, QueryTicket


@dataclass(frozen=True)
class TenantQuota:
    """Admission and scheduling policy for one tenant.

    Parameters
    ----------
    max_pending:
        Bound of the tenant's query lane, in queries.  Submissions beyond
        it raise :class:`~repro.errors.QuotaExceededError` — unless
        ``block_when_full`` is set, in which case the submitter blocks
        (the single-tenant back-pressure mode the PR 4 service shipped
        with, kept for the implicit default lane).
    weight:
        Relative fair-share weight.  Each scheduling turn refills the
        lane's deficit counter by ``weight`` queries, so a weight-2 tenant
        gets twice the slots of a weight-1 tenant in every fused wave both
        are contending for.
    """

    max_pending: int = 64
    weight: float = 1.0
    block_when_full: bool = False

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ServeError("tenant quota max_pending must be positive")
        if not self.weight > 0:
            raise ServeError("tenant quota weight must be positive")


@dataclass
class TenantStats:
    """Cumulative per-tenant serving statistics."""

    admitted: int = 0
    rejected: int = 0
    served: int = 0
    failed: int = 0
    latencies: deque[float] = field(
        default_factory=lambda: deque(maxlen=STATS_WINDOW)
    )

    def latency_percentiles(self) -> dict[str, float]:
        """p50 / p99 query latency in seconds (zeros when nothing ran)."""
        if not self.latencies:
            return {"p50": 0.0, "p99": 0.0}
        samples = np.asarray(self.latencies, dtype=np.float64)
        return {
            "p50": float(np.percentile(samples, 50)),
            "p99": float(np.percentile(samples, 99)),
        }


class _TenantLane:
    """One tenant's bounded queue plus its deficit counter."""

    __slots__ = ("name", "quota", "queue", "deficit", "stats")

    def __init__(self, name: str, quota: TenantQuota) -> None:
        self.name = name
        self.quota = quota
        self.queue: deque[QueryTicket] = deque()
        self.deficit = 0.0
        self.stats = TenantStats()


#: How long blocked submitters / wave getters wait before re-checking flags.
_POLL_SECONDS = 0.05


class FairShareQueue:
    """Per-tenant bounded lanes drained by a deficit-round-robin fuser.

    Thread-safe: submitters call :meth:`put` concurrently while the
    service dispatcher pulls fused waves with :meth:`get_wave` /
    :meth:`drain_now`.  Lanes for unknown tenants are created on first
    submission with ``default_quota`` unless ``strict`` is set, in which
    case unknown tenants are rejected outright.
    """

    def __init__(
        self,
        quotas: Mapping[str, TenantQuota] | None = None,
        *,
        default_quota: TenantQuota | None = None,
        strict: bool = False,
    ) -> None:
        self._cond = threading.Condition()
        self._default_quota = default_quota or TenantQuota()
        self._strict = bool(strict)
        self._closed = False
        self._lanes: dict[str, _TenantLane] = {}
        #: Round-robin order over lanes with pending work.
        self._round: deque[_TenantLane] = deque()
        for name, quota in (quotas or {}).items():
            self._lanes[name] = _TenantLane(name, quota)

    # ------------------------------------------------------------------ #
    # lanes and stats
    # ------------------------------------------------------------------ #
    def _lane(self, tenant: str) -> _TenantLane:
        lane = self._lanes.get(tenant)
        if lane is None:
            if self._strict:
                raise QuotaExceededError(
                    f"unknown tenant {tenant!r}: the service was configured "
                    "with a fixed tenant set"
                )
            lane = _TenantLane(tenant, self._default_quota)
            self._lanes[tenant] = lane
        return lane

    def tenant_stats(self) -> dict[str, TenantStats]:
        """Consistent per-tenant stats snapshots, keyed by tenant id.

        Returns *copies* taken under the queue lock: handing out the live
        :class:`TenantStats` objects lets callers iterate a latency deque
        the dispatcher is concurrently appending to, and a deque mutated
        mid-iteration raises ``RuntimeError`` (or silently skews the
        percentiles).  The copies are stable — percentile math on them
        needs no further locking.
        """
        with self._cond:
            return {
                name: TenantStats(
                    admitted=lane.stats.admitted,
                    rejected=lane.stats.rejected,
                    served=lane.stats.served,
                    failed=lane.stats.failed,
                    latencies=deque(lane.stats.latencies, maxlen=STATS_WINDOW),
                )
                for name, lane in self._lanes.items()
            }

    def tenant_summaries(self) -> dict[str, dict[str, float]]:
        """Per-tenant counters + latency percentiles as plain dicts.

        Computed under the queue lock, so it is safe to call while the
        dispatcher is concurrently appending latencies (the live deques in
        :meth:`tenant_stats` are not safe to iterate unlocked).
        """
        with self._cond:
            summaries = {}
            for name, lane in self._lanes.items():
                percentiles = lane.stats.latency_percentiles()
                summaries[name] = {
                    "admitted": lane.stats.admitted,
                    "rejected": lane.stats.rejected,
                    "served": lane.stats.served,
                    "failed": lane.stats.failed,
                    "pending": len(lane.queue),
                    "latency_p50_seconds": percentiles["p50"],
                    "latency_p99_seconds": percentiles["p99"],
                }
            return summaries

    def blocks_when_full(self) -> bool:
        """Whether a full lane (declared or default) parks its submitter."""
        with self._cond:
            quotas = [lane.quota for lane in self._lanes.values()]
        quotas.append(self._default_quota)
        return any(quota.block_when_full for quota in quotas)

    def pending_count(self, tenant: str | None = None) -> int:
        with self._cond:
            if tenant is not None:
                lane = self._lanes.get(tenant)
                return len(lane.queue) if lane is not None else 0
            return sum(len(lane.queue) for lane in self._lanes.values())

    # ------------------------------------------------------------------ #
    # submission side
    # ------------------------------------------------------------------ #
    def put(self, tenant: str, tickets: list[QueryTicket]) -> None:
        """Admit ``tickets`` into the tenant's lane (all-or-nothing).

        Rejecting lanes raise :class:`~repro.errors.QuotaExceededError`
        when the lane cannot hold the whole submission.  Back-pressure
        lanes (``block_when_full``) instead block while the lane is at
        capacity and then admit the wave whole — waves are never split,
        so a wave larger than ``max_pending`` is admitted once the lane
        has drained below capacity (the PR 4 wave-queue contract, whose
        bound counted waves rather than queries).
        """
        if not tickets:
            return
        with self._cond:
            lane = self._lane(tenant)
            if lane.quota.block_when_full:
                while len(lane.queue) >= lane.quota.max_pending:
                    if self._closed:
                        raise ServiceClosedError("the graph service is closed")
                    self._cond.wait(_POLL_SECONDS)
            else:
                if len(tickets) > lane.quota.max_pending:
                    lane.stats.rejected += len(tickets)
                    raise QuotaExceededError(
                        f"tenant {tenant!r} submitted {len(tickets)} queries at "
                        f"once; its quota admits at most {lane.quota.max_pending}"
                    )
                if len(lane.queue) + len(tickets) > lane.quota.max_pending:
                    lane.stats.rejected += len(tickets)
                    raise QuotaExceededError(
                        f"tenant {tenant!r} has {len(lane.queue)} queries "
                        f"pending (quota {lane.quota.max_pending}); retry later"
                    )
            if self._closed:
                raise ServiceClosedError("the graph service is closed")
            if not lane.queue:
                self._round.append(lane)
            lane.queue.extend(tickets)
            lane.stats.admitted += len(tickets)
            self._cond.notify_all()

    def note_admitted(self, tenant: str, count: int) -> None:
        """Count inline (sync-mode) submissions that bypass the lanes."""
        with self._cond:
            self._lane(tenant).stats.admitted += count

    def record_served(self, tenant: str, latency_seconds: float) -> None:
        """Account one completed query against the tenant's lane.

        Completions can race ``close()``: a fused run that was already
        executing keeps resolving tickets after admissions stopped.  A
        missing lane at that point must neither create one (resurrecting
        a closed tenant in ``tenant_stats()``) nor raise out of the
        dispatcher (strict mode's ``_lane`` rejects unknown tenants) —
        the completion is simply dropped from the per-tenant counters.
        """
        with self._cond:
            lane = self._lanes.get(tenant)
            if lane is None:
                if self._closed or self._strict:
                    return
                lane = self._lane(tenant)
            lane.stats.served += 1
            lane.stats.latencies.append(latency_seconds)

    def record_failed(self, tenant: str) -> None:
        with self._cond:
            lane = self._lanes.get(tenant)
            if lane is not None:
                lane.stats.failed += 1

    # ------------------------------------------------------------------ #
    # dispatcher side
    # ------------------------------------------------------------------ #
    def get_wave(
        self, limit: int, timeout: float | None = None
    ) -> list[QueryTicket] | None:
        """Block until work is pending, then drain one fused wave.

        Returns ``None`` once the queue is closed *and* empty (the
        dispatcher's exit signal), or an empty list when ``timeout``
        elapses with nothing pending.
        """
        with self._cond:
            while not self._round:
                if self._closed:
                    return None
                if not self._cond.wait(timeout if timeout is not None else _POLL_SECONDS):
                    if timeout is not None:
                        return []
            return self._drain_locked(limit)

    def drain_now(self, limit: int) -> list[QueryTicket]:
        """Non-blocking drain (tops up a lingering wave after the window)."""
        if limit <= 0:
            return []
        with self._cond:
            return self._drain_locked(limit)

    def drain_pending(self) -> list[QueryTicket]:
        """Remove and return every queued ticket (shutdown settlement)."""
        with self._cond:
            leftovers: list[QueryTicket] = []
            for lane in self._lanes.values():
                leftovers.extend(lane.queue)
                lane.queue.clear()
                lane.deficit = 0.0
            self._round.clear()
            self._cond.notify_all()
            return leftovers

    def _drain_locked(self, limit: int) -> list[QueryTicket]:
        """Deficit round robin over the pending lanes.

        Each turn refills the lane's deficit by its quota weight and moves
        queries into the wave while the deficit covers them, so over any
        contended stretch tenant ``t`` receives ``weight_t / sum(weights)``
        of the fused slots regardless of queue depths.
        """
        wave: list[QueryTicket] = []
        while self._round and len(wave) < limit:
            lane = self._round.popleft()
            lane.deficit += lane.quota.weight
            while lane.queue and lane.deficit >= 1.0 and len(wave) < limit:
                wave.append(lane.queue.popleft())
                lane.deficit -= 1.0
            if lane.queue:
                self._round.append(lane)
            else:
                lane.deficit = 0.0
        if wave:
            self._cond.notify_all()
        return wave

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def close(self) -> None:
        """Stop admissions and wake every blocked submitter / wave getter."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


__all__ = [
    "DEFAULT_TENANT",
    "FairShareQueue",
    "TenantQuota",
    "TenantStats",
]
