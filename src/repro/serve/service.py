"""The streaming serve layer: concurrent ingest + snapshot-isolated walks.

Prior layers run updates and walks in strict alternation — ingest a batch,
then walk, then ingest again.  :class:`GraphService` overlaps the two the
way the paper's serving scenario demands:

* **Epoch-based snapshots.**  The concurrent service keeps *two*
  engines built from the same seed over copies of the same graph.  Queries
  always run against the published *front* engine, which is never mutated
  while it is published; the writer thread applies each
  :class:`~repro.graph.update_batch.UpdateBatch` to the *back* engine
  (replaying any batches it missed first — the double-buffer catch-up) and
  then atomically swaps the buffers, bumping the epoch.  A per-buffer
  reader count keeps the writer from touching a buffer that still serves
  in-flight queries, so every query sees one consistent snapshot even
  while an epoch flips underneath it.

* **Fair-share fused query batching.**  Queries land on per-tenant
  bounded lanes (:mod:`repro.serve.tenancy`); the dispatcher drains the
  next wave in deficit-round-robin weighted turns across the pending
  tenants, groups compatible requests (same application / length /
  hyper-parameters) and runs each group as **one** fused walk frontier —
  the PR 1 kernels get frontiers of ``sum(len(starts))`` walkers instead
  of one small frontier per caller, and no tenant's flood can exclude
  another tenant from the wave.

* **Back-buffer warming (epoch deltas).**  With ``warm_on_publish`` the
  writer brings the back buffer's fused tables up to date before each
  epoch flips, flattening the post-flip p99 spike the first fused query
  otherwise pays.  Warming ships a *delta*: the engines track the
  vertices each batch touched in a dirty-set, catch-up replays union
  their dirty-sets into it, and the repair re-derives only those
  per-vertex slices — O(touched) per flip instead of the O(V)
  re-concatenation the first serve layer performed.

* **Scale-out.**  This class runs every walk in-process.  Multi-process
  serving is :class:`~repro.serve.router.RouterService` (``shards > 1``),
  which subclasses it and fans each fused wave out to shard processes.

* **Sync mode.**  ``sync=True`` runs everything inline on the calling
  thread with a single engine: ``ingest`` applies immediately and every
  query executes unfused with its own rng.  This mode is **bitwise
  identical** to the serial frontier drivers for all four engines — the
  equivalence tests pin that down — which makes the async mode's results
  auditable: same code path, minus the overlap.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence

import numpy as np

from repro.engines.registry import create_engine
from repro.errors import QueryExpiredError, ServeError, ServiceClosedError
from repro.serve.faults import FaultInjector
from repro.graph.update_batch import UpdateBatch
from repro.serve.queries import (
    DEFAULT_TENANT,
    QueryTicket,
    ServeResult,
    ServeStats,
    WalkQuery,
    validate_starts,
)
from repro.serve.tenancy import FairShareQueue, TenantQuota, TenantStats
from repro.utils.rng import AnyRngSource, RandomSource, ensure_rng
from repro.utils.validation import check_positive_int
from repro.walks.frontier import (
    BatchedWalks,
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)

#: Sentinel objects for the writer / dispatcher queues.
_STOP = object()

#: How long blocking queue reads wait before re-checking shutdown flags.
_POLL_SECONDS = 0.05


def execute_walk(engine, application, starts, walk_length, params, rng):
    """Run one fused group of walks: the deepwalk / ppr / node2vec dispatch.

    :class:`GraphService` runs it on its published snapshot engine and
    every shard serve worker runs it on its shard engine, so a served
    walk takes the same path on both.  It lives here, not in
    :mod:`repro.walks.frontier`, because ``perfbench --trace 1`` times
    served walks by wrapping this module's ``run_frontier_*`` names.
    """
    if application == "deepwalk":
        return run_frontier_deepwalk(engine, starts, walk_length, rng=rng)
    if application == "ppr":
        return run_frontier_ppr(
            engine,
            starts,
            termination_probability=params["termination_probability"],
            max_steps=int(params["max_steps"]),
            rng=rng,
        )
    return run_frontier_node2vec(
        engine, starts, walk_length, p=params["p"], q=params["q"], rng=rng
    )


@dataclass
class _EngineBuffer:
    """One snapshot buffer: an engine, its epoch, and reader bookkeeping."""

    engine: object
    epoch: int = 0
    #: In-flight fused runs currently reading this buffer.
    readers: int = 0
    #: Batches published on the other buffer that this one has not seen yet.
    pending: list[UpdateBatch] = field(default_factory=list)


class GraphService:
    """A streaming walk service over one dynamic graph.

    Parameters
    ----------
    engine_name:
        Registered engine (``bingo`` / ``knightking`` / ``gsampler`` /
        ``flowwalker``).
    graph:
        The initial :class:`~repro.graph.dynamic_graph.DynamicGraph`.  The
        service copies it per buffer; the caller's object is not adopted.
    rng:
        Engine-construction randomness.  The async double-buffered mode
        needs a deterministic seed (``int``) so both buffers build
        identical sampler state; sync mode also accepts a live
        ``random.Random`` (the benchmark harness hands its shared
        generator through).
    sync:
        Run single-threaded: ingest applies immediately, queries execute
        inline and unfused.  Bitwise-identical to the serial frontier.
    max_pending_queries:
        Bound of the implicit default tenant's query lane; :meth:`submit`
        blocks when it is full (back-pressure instead of unbounded memory
        growth).  Tenants configured through ``tenants`` /
        ``default_quota`` get *rejection* semantics instead — a full lane
        raises :class:`~repro.errors.QuotaExceededError`.
    fuse_limit:
        Maximum queries fused into one frontier run.
    fuse_window_seconds:
        How long the dispatcher lingers after the first query of a wave to
        let concurrent submitters join the fused batch.
    tenants:
        Optional mapping of tenant id to :class:`~repro.serve.tenancy.TenantQuota`.
        Queries are drained across tenant lanes in deficit-round-robin
        weighted turns, so one tenant's flood cannot monopolise the fused
        waves.
    default_quota:
        Quota for tenants not named in ``tenants`` (lanes are created on
        first submission).  Defaults to the legacy blocking lane when no
        tenancy is configured, and to a rejecting 64-query lane otherwise.
    strict_tenants:
        Reject submissions from tenants not named in ``tenants`` instead
        of creating a lane with ``default_quota``.
    warm_on_publish:
        Pre-build the back buffer's fused frontier tables (the
        concatenated sampling structures the first fused query otherwise
        pays for) on the writer thread *before* each epoch flips, so a
        query landing right after publication starts warm.  Applies to the
        double-buffered mode; sync mode builds its tables lazily inline.
    fault_injector:
        Optional :class:`~repro.serve.faults.FaultInjector` threading the
        chaos harness's named injection points through the writer
        (``writer.apply`` / ``writer.warm``) and the dispatcher
        (``dispatcher.wave``); :class:`~repro.serve.router.RouterService`
        adds ``router.dispatch``.
        ``None`` (the default) costs nothing on the production path.
    dead_letter_limit:
        Bound of the dead-letter list holding quarantined update batches
        (oldest entries fall off).  Surfaced by :meth:`dead_letter` and in
        :meth:`stats_snapshot`.
    writer_recovery_limit:
        How many *consecutive* writer failures the self-healing path
        absorbs by quarantine + back-buffer rebuild before latching the
        fatal failure (a healthy apply resets the streak).  Recovery only
        exists in the double-buffered async mode: sync mode raises inline.
    """

    def __init__(
        self,
        engine_name: str,
        graph,
        *,
        rng: RandomSource = 2025,
        engine_kwargs: dict | None = None,
        sync: bool = False,
        max_pending_queries: int = 64,
        fuse_limit: int = 8,
        fuse_window_seconds: float = 0.002,
        service_seed: int = 0,
        tenants: Mapping[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        strict_tenants: bool = False,
        warm_on_publish: bool = False,
        fault_injector: FaultInjector | None = None,
        dead_letter_limit: int = 16,
        writer_recovery_limit: int = 3,
    ) -> None:
        check_positive_int(max_pending_queries, "max_pending_queries")
        check_positive_int(fuse_limit, "fuse_limit")
        check_positive_int(dead_letter_limit, "dead_letter_limit")
        self.engine_name = engine_name
        self.sync = bool(sync)
        self.fuse_limit = int(fuse_limit)
        self.fuse_window_seconds = float(fuse_window_seconds)
        self.service_seed = int(service_seed)
        self.warm_on_publish = bool(warm_on_publish)
        self._engine_kwargs = dict(engine_kwargs or {})
        self._faults = fault_injector
        self.writer_recovery_limit = int(writer_recovery_limit)
        self._dead_letter: deque[dict[str, object]] = deque(
            maxlen=dead_letter_limit
        )
        self._writer_failures = 0
        self.stats = ServeStats()
        if default_quota is None:
            # No tenancy configured: the implicit default lane keeps the
            # legacy single-queue back-pressure contract.  Configured
            # services get quota *rejection* for unknown tenants instead.
            default_quota = TenantQuota(
                max_pending=max_pending_queries,
                block_when_full=not tenants,
            )
        self._tenancy = FairShareQueue(
            tenants, default_quota=default_quota, strict=strict_tenants
        )

        self._cond = threading.Condition()
        self._accepting = True
        self._closed = False
        self._cancel_pending = False
        self._failure: BaseException | None = None
        self._epoch = 0
        self._group_counter = 0

        if not self.sync and not isinstance(rng, (int, np.integer)):
            raise ServeError(
                "the concurrent service double-buffers engine state and needs "
                "an integer engine seed; pass rng=<int> (or sync=True)"
            )
        # Writer self-healing rebuilds the back engine from this seed over
        # the front snapshot's graph (async mode guarantees an int above).
        self._engine_rng = rng

        def build_engine():
            source = rng if isinstance(rng, (int, np.integer)) else ensure_rng(rng)
            engine = create_engine(engine_name, rng=source, **self._engine_kwargs)
            engine.build(graph.copy())
            return engine

        # Sync mode keeps a single engine; the concurrent mode
        # double-buffers two identically seeded engines.
        double_buffered = not self.sync
        buffers = [_EngineBuffer(engine=build_engine())]
        if double_buffered:
            buffers.append(_EngineBuffer(engine=build_engine()))
        self._buffers = buffers
        self._front = 0

        if self.warm_on_publish and double_buffered:
            # Serve the very first query warm too, not just post-flip ones.
            # Sync mode builds its fused tables lazily inline.
            for buffer in self._buffers:
                self._warm_engine(buffer.engine)
        self._update_queue: queue.Queue = queue.Queue()
        self._writer: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        if not self.sync:
            self._writer = threading.Thread(
                target=self._writer_loop, name="graph-service-writer", daemon=True
            )
            self._dispatcher = threading.Thread(
                target=self._dispatcher_loop, name="graph-service-query", daemon=True
            )
            self._writer.start()
            self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls, config, graph, *, fault_injector=None, rng=None, default_quota=None
    ):
        """Build the service from one frozen :class:`ServiceConfig`.

        This is the preferred constructor: the sprawling keyword surface
        of ``__init__`` predates :class:`~repro.serve.config.ServiceConfig`
        and is kept as a deprecation shim for existing callers.  ``rng``
        overrides ``config.seed`` when a live generator must be threaded
        through (sync-mode benchmarking); ``default_quota`` overrides the
        implicit unknown-tenant lane (the event-loop front-end needs a
        rejecting one when ``config.tenants`` is empty).
        """
        return cls(
            config.engine,
            graph,
            rng=config.seed if rng is None else rng,
            engine_kwargs=config.engine_kwargs,
            sync=config.sync,
            max_pending_queries=config.max_pending_queries,
            fuse_limit=config.fuse_limit,
            fuse_window_seconds=config.fuse_window_seconds,
            service_seed=config.service_seed,
            tenants=config.tenant_quotas(),
            default_quota=default_quota,
            strict_tenants=config.strict_tenants,
            warm_on_publish=config.warm_on_publish,
            fault_injector=fault_injector,
            dead_letter_limit=config.dead_letter_limit,
            writer_recovery_limit=config.writer_recovery_limit,
        )

    @property
    def epoch(self) -> int:
        """Epoch of the currently published snapshot."""
        with self._cond:
            return self._epoch

    @property
    def engine(self):
        """The currently published snapshot engine (reporting / inspection)."""
        with self._cond:
            return self._buffers[self._front].engine

    def ingest(self, updates) -> None:
        """Queue one update batch for ingestion (applies inline in sync mode)."""
        batch = UpdateBatch.coerce(updates)
        self._require_accepting()
        if self.sync:
            self._apply_sync(batch)
            return
        self._raise_failure()
        self._update_queue.put(batch)

    def flush(self) -> None:
        """Block until every queued update batch has been published."""
        if not self.sync:
            self._update_queue.join()
        self._raise_failure()

    def admission_blocks(self) -> bool:
        """Whether a full admission lane blocks its submitter (no 429).

        The event-loop front-end refuses such a service: the submitter
        there is the loop's only thread.
        """
        return self._tenancy.blocks_when_full()

    def pending_updates(self) -> int:
        """Queued update batches not yet published (0 in sync mode).

        A non-blocking progress probe: the event-loop front-end polls it
        to answer ``/ingest`` ``flush=True`` requests without parking its
        only thread in :meth:`flush`.
        """
        if self.sync:
            return 0
        with self._update_queue.all_tasks_done:
            return int(self._update_queue.unfinished_tasks)

    def note_client_disconnect(self) -> None:
        """Record a peer that hung up mid-response (front-end bookkeeping)."""
        with self._cond:
            self.stats.client_disconnects += 1

    def submit(
        self,
        application: str,
        starts: Sequence[int],
        walk_length: int,
        *,
        rng: AnyRngSource = None,
        tenant: str = DEFAULT_TENANT,
        deadline: float | None = None,
        **params,
    ) -> QueryTicket:
        """Submit one walk query; returns a waitable :class:`QueryTicket`.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp (use
        :func:`~repro.serve.queries.deadline_in`); a query whose deadline
        passes while it waits in its tenant lane is failed with
        :class:`~repro.errors.QueryExpiredError` instead of being fused.
        """
        query = WalkQuery(
            application=application,
            starts=list(starts),
            walk_length=walk_length,
            rng=rng,
            params=params,
            deadline=deadline,
        )
        return self._submit_tickets([QueryTicket(query, tenant)])[0]

    def submit_many(
        self, queries: Sequence[WalkQuery], *, tenant: str = DEFAULT_TENANT
    ) -> list[QueryTicket]:
        """Submit a wave of queries as one queue item (fused together).

        In sync mode the wave executes sequentially instead — each query
        alone with its own rng — preserving the bitwise sync guarantee.
        """
        if not queries:
            return []
        tickets = [QueryTicket(query, tenant) for query in queries]
        return self._submit_tickets(tickets)

    def query(
        self,
        application: str,
        starts: Sequence[int],
        walk_length: int,
        *,
        rng: AnyRngSource = None,
        timeout: float | None = None,
        tenant: str = DEFAULT_TENANT,
        deadline: float | None = None,
        **params,
    ) -> ServeResult:
        """Submit one query and wait for its result."""
        ticket = self.submit(
            application,
            starts,
            walk_length,
            rng=rng,
            tenant=tenant,
            deadline=deadline,
            **params,
        )
        return ticket.result(timeout)

    def tenant_stats(self) -> dict[str, TenantStats]:
        """Per-tenant admission / latency statistics, keyed by tenant id."""
        return self._tenancy.tenant_stats()

    def tenant_summaries(self) -> dict[str, dict[str, float]]:
        """Per-tenant counters + percentiles, computed under the lane lock."""
        return self._tenancy.tenant_summaries()

    def stats_snapshot(self) -> dict[str, object]:
        """Service counters + latency percentiles as one consistent dict.

        Taken under the service lock, so it is safe to call while the
        dispatcher resolves queries (reading :attr:`stats`'s latency
        windows unlocked is not — a concurrent append can fault the
        percentile iteration).  This is what ``GET /stats`` serves.
        ``frontier_kernel`` says whether walks run in the compiled kernel
        or fell back to NumPy.
        """
        frontier_kernel = self.engine.frontier_kernel
        with self._cond:
            stats = self.stats
            percentiles = stats.latency_percentiles()
            return {
                "epoch": self._epoch,
                "engine": self.engine_name,
                "frontier_kernel": frontier_kernel,
                "queries_served": stats.queries_served,
                "fused_groups": stats.fused_groups,
                "mean_fused_queries": stats.mean_fused_queries(),
                "epochs_published": stats.epochs_published,
                "epochs_warmed": stats.epochs_warmed,
                "batches_ingested": stats.batches_ingested,
                "updates_applied": stats.updates_applied,
                "catchup_updates": stats.catchup_updates,
                "total_walk_steps": stats.total_walk_steps,
                "update_busy_seconds": stats.update_busy_seconds,
                "query_busy_seconds": stats.query_busy_seconds,
                "warm_seconds": stats.warm_seconds,
                "warm_vertices": stats.warm_vertices,
                "warm_full_rebuilds": stats.warm_full_rebuilds,
                "writer_recoveries": stats.writer_recoveries,
                "batches_quarantined": stats.batches_quarantined,
                "recovery_seconds": stats.recovery_seconds,
                "worker_respawns": stats.worker_respawns,
                "wave_retries": stats.wave_retries,
                "queries_expired": stats.queries_expired,
                "client_disconnects": stats.client_disconnects,
                "dead_letter": [dict(entry) for entry in self._dead_letter],
                "latency_p50_seconds": percentiles["p50"],
                "latency_p99_seconds": percentiles["p99"],
            }

    def dead_letter(self) -> list[dict[str, object]]:
        """Quarantined update batches (most recent last, bounded list).

        Each entry names the batch size, the stringified failure, and the
        epoch that was serving when the writer quarantined it.  The batch
        itself is *dropped* — the service keeps serving the un-poisoned
        stream — so callers that must not lose updates should re-submit a
        corrected batch.
        """
        with self._cond:
            return [dict(entry) for entry in self._dead_letter]

    def health(self) -> dict[str, object]:
        """Liveness truth for ``GET /healthz``: healthy only when serving.

        Unhealthy when the fatal writer failure is latched, the service is
        closed, or a worker thread died without latching anything (an
        escaped ``KeyboardInterrupt``/``SystemExit`` kills the loop
        without setting ``_failure``).
        """
        with self._cond:
            closed = self._closed
            epoch = self._epoch
        failure = self._failure
        reasons: list[str] = []
        if closed:
            reasons.append("service is closed")
        if failure is not None:
            reasons.append(f"writer failure latched: {failure!r}")
        if not closed and not self.sync:
            if self._writer is not None and not self._writer.is_alive():
                reasons.append("writer thread is dead")
            if self._dispatcher is not None and not self._dispatcher.is_alive():
                reasons.append("dispatcher thread is dead")
        return {"healthy": not reasons, "reasons": reasons, "epoch": epoch}

    def close(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the service.

        ``drain=True`` (the default) finishes every queued update batch and
        resolves every pending query before shutting down; ``drain=False``
        cancels pending queries with a :class:`ServiceClosedError`.

        Raises :class:`ServeError` when a worker thread is still alive
        after ``timeout`` seconds — a straggling writer or dispatcher means
        the service did *not* shut down, and silently returning would leave
        callers believing it did.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._accepting = False
            cancel = not drain
        stragglers: list[str] = []
        if not self.sync:
            self._cancel_pending = cancel
            self._update_queue.put(_STOP)
            if self._writer is not None:
                self._writer.join(timeout)
            # Closing the fair-share queue wakes the dispatcher, which
            # drains (or cancels) the remaining waves before exiting.
            self._tenancy.close()
            if self._dispatcher is not None:
                self._dispatcher.join(timeout)
            self._drain_raced_items()
            stragglers = [
                thread.name
                for thread in (self._writer, self._dispatcher)
                if thread is not None and thread.is_alive()
            ]
        if stragglers:
            raise ServeError(
                "service worker thread(s) still running after the "
                f"{timeout}s close timeout: {', '.join(stragglers)}"
            )

    def _drain_raced_items(self) -> None:
        """Settle work that raced past the shutdown signals.

        A ``submit``/``ingest`` that passed the accepting-check just before
        ``close()`` can land after the worker threads exited.  Fail those
        tickets (instead of leaving a caller blocked forever) and account
        the batches so a later ``flush()`` can never hang on
        ``Queue.join``.
        """
        for ticket in self._tenancy.drain_pending():
            ticket.fail(ServiceClosedError("the graph service is closed"))
        dropped = 0
        while True:
            try:
                item = self._update_queue.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP:
                dropped += 1
            self._update_queue.task_done()
        if dropped and self._failure is None:
            self._failure = ServeError(
                f"{dropped} update batch(es) submitted during shutdown were "
                "not applied"
            )

    def __enter__(self) -> GraphService:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # submission plumbing
    # ------------------------------------------------------------------ #
    def _require_accepting(self) -> None:
        with self._cond:
            if not self._accepting:
                raise ServiceClosedError("the graph service is closed")

    def _raise_failure(self) -> None:
        if self._failure is not None:
            raise ServeError(
                f"the service writer failed: {self._failure}"
            ) from self._failure

    def _submit_tickets(self, tickets: list[QueryTicket]) -> list[QueryTicket]:
        self._require_accepting()
        # The serve boundary is the trust boundary: check every start
        # vertex against the serving snapshot before anything is queued,
        # so garbage ids fail the submitter instead of producing garbage
        # walks (or wrapping onto another vertex's tables downstream).
        snapshot_vertices = self.engine.num_vertices()
        for ticket in tickets:
            ticket.query.starts = validate_starts(
                ticket.query.starts, snapshot_vertices
            )
        if self.sync:
            # Sync contract: every query executes alone with its own rng
            # (bitwise-identical to the serial frontier), so a sync wave is
            # sequential, never fused.
            for ticket in tickets:
                self._tenancy.note_admitted(ticket.tenant, 1)
                self._execute_wave([ticket])
            return tickets
        by_tenant: dict[str, list[QueryTicket]] = {}
        for ticket in tickets:
            by_tenant.setdefault(ticket.tenant, []).append(ticket)
        for tenant, lane_tickets in by_tenant.items():
            self._tenancy.put(tenant, lane_tickets)
        # submit and close() can race: if close() finished settling before
        # this put landed, the dispatcher is gone and nobody would ever
        # resolve these tickets — re-check and fail them ourselves.
        with self._cond:
            abandoned = self._closed
        if abandoned:
            for ticket in tickets:
                if not ticket.done:
                    ticket.fail(ServiceClosedError("the graph service is closed"))
        return tickets

    # ------------------------------------------------------------------ #
    # writer side (ingest + epoch publication)
    # ------------------------------------------------------------------ #
    def _writer_loop(self) -> None:
        while True:
            item = self._update_queue.get()
            try:
                if item is _STOP:
                    return
                if self._failure is None:
                    self._apply_and_publish(item)
                    self._writer_failures = 0
            except (KeyboardInterrupt, SystemExit):
                # Interpreter-level signals are not graph faults: never
                # swallow them into _failure.  The loop dies (task_done
                # runs below) and /healthz reports the dead writer.
                raise
            except BaseException as exc:
                self._handle_writer_failure(item, exc)
            finally:
                self._update_queue.task_done()

    def _handle_writer_failure(self, batch: UpdateBatch, exc: BaseException) -> None:
        """Quarantine + rebuild if the failure is survivable, else latch.

        Self-healing exists only in the double-buffered mode, where the
        published front buffer is a pristine snapshot to rebuild from.
        Sync mode raises inline and never reaches here.  Repeated back-to-back failures (more than
        ``writer_recovery_limit`` without a healthy apply in between)
        latch too — a poisoned *service* should fail loudly, not thrash.
        """
        self._writer_failures += 1
        recoverable = (
            not self.sync and self._writer_failures <= self.writer_recovery_limit
        )
        if not recoverable:
            self._failure = exc  # surface on flush()/ingest()
            return
        started = time.perf_counter()
        try:
            self._recover_back_buffer(batch, exc)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as rebuild_exc:
            # Recovery itself failed: latch the rebuild error (chained to
            # the original) — the service cannot promise a consistent
            # back buffer any more.
            rebuild_exc.__cause__ = exc
            self._failure = rebuild_exc
            return
        with self._cond:
            self.stats.writer_recoveries += 1
            self.stats.recovery_seconds += time.perf_counter() - started

    def _recover_back_buffer(self, batch: UpdateBatch, exc: BaseException) -> None:
        """Drop the poisoned batch and rebuild the back engine from front.

        The failed apply (or warm) may have left the back engine
        half-applied; the front buffer is untouched — it is published and
        only the writer mutates engines.  Re-seeding a fresh engine over a
        copy of the front graph therefore restores the exact double-buffer
        invariant (back == front state, nothing pending), regardless of
        whether the failure hit the new batch or a catch-up replay.  The
        follow-up warm ships a full-rebuild FrontierDelta — the PR 6 delta
        machinery has no incremental dirty-set for a from-scratch engine.
        """
        back = self._buffers[1 - self._front]
        with self._cond:
            self._dead_letter.append(
                {
                    "updates": len(batch),
                    "error": repr(exc),
                    "epoch": self._epoch,
                }
            )
            self.stats.batches_quarantined += 1
            # The apply path waited for readers before mutating, but wait
            # again: recovery must never rebuild under an in-flight read.
            while back.readers > 0:
                self._cond.wait(_POLL_SECONDS)
            front_engine = self._buffers[self._front].engine
        fresh = create_engine(
            self.engine_name, rng=self._engine_rng, **self._engine_kwargs
        )
        fresh.build(front_engine.graph.copy())
        if self.warm_on_publish:
            if self._faults is not None:
                self._faults.fire("writer.warm")
            self._warm_engine(fresh)
        with self._cond:
            back.engine = fresh
            back.pending.clear()

    def _apply_sync(self, batch: UpdateBatch) -> None:
        buffer = self._buffers[0]
        started = time.thread_time()
        buffer.engine.apply_batch(batch)
        self._publish(buffer, batch, started)

    def _apply_and_publish(self, batch: UpdateBatch) -> None:
        back = self._buffers[1 - self._front]
        # Never mutate a buffer that still serves in-flight queries: the
        # buffer published two epochs ago is usually idle by now, but a
        # long fused run can still hold it.
        with self._cond:
            while back.readers > 0:
                self._cond.wait(_POLL_SECONDS)
        started = time.thread_time()
        for lagged in back.pending:
            back.engine.apply_batch(lagged)
            self.stats.catchup_updates += len(lagged)
        back.pending.clear()
        if self._faults is not None:
            # One occurrence per queued batch (catch-up replays above are
            # the same logical updates again, not new occurrences).
            self._faults.fire("writer.apply")
        back.engine.apply_batch(batch)
        if self.warm_on_publish:
            # Delta warming: repair the fused tables on the writer thread
            # while the buffer is still the *back* one, so the first fused
            # query after the flip pays a gather, not a table build.  The
            # repair covers exactly the dirty-set — the union of this
            # batch's touched vertices and those of the catch-up replays
            # above — so the published delta costs O(touched), not O(V).
            if self._faults is not None:
                self._faults.fire("writer.warm")
            warm_start = time.thread_time()
            delta = self._warm_engine(back.engine)
            with self._cond:
                self.stats.warm_seconds += time.thread_time() - warm_start
                self.stats.epochs_warmed += 1
                if delta is not None:
                    self.stats.warm_vertices += delta.vertices
                    if delta.full_rebuild:
                        self.stats.warm_full_rebuilds += 1
        self._publish(back, batch, started)

    @staticmethod
    def _warm_engine(engine):
        """Bring the engine's fused frontier tables up to date now.

        Engines with fused tables expose ``warm_frontier_tables`` and
        return the :class:`~repro.engines.sliced_tables.FrontierDelta`
        the repair shipped (dirty vertex count + whether it was a cold
        full build).  Engines without fused tables (FlowWalker samples
        straight off the adjacency views) have nothing to warm.
        """
        warm = getattr(engine, "warm_frontier_tables", None)
        return warm() if warm is not None else None

    def _publish(self, buffer: _EngineBuffer, batch: UpdateBatch, started: float) -> None:
        """Atomically make ``buffer`` the published snapshot (epoch + 1)."""
        self._commit_publish(buffer, batch, time.thread_time() - started, 0.0)

    def _commit_publish(
        self,
        buffer: _EngineBuffer,
        batch: UpdateBatch,
        busy: float,
        refresh_seconds: float,
    ) -> None:
        with self._cond:
            front = self._buffers[self._front]
            if front is not buffer:
                front.pending.append(batch)
                self._front = 1 - self._front
            self._epoch += 1
            buffer.epoch = self._epoch
            self.stats.epochs_published += 1
            self.stats.batches_ingested += 1
            self.stats.updates_applied += len(batch)
            self.stats.update_busy_seconds += busy
            self.stats.refresh_seconds += refresh_seconds
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # dispatcher side (fused query execution)
    # ------------------------------------------------------------------ #
    def _dispatcher_loop(self) -> None:
        while True:
            wave = self._tenancy.get_wave(self.fuse_limit)
            if wave is None:
                # Closed and drained: nothing will ever arrive again.
                return
            if self.fuse_window_seconds > 0.0 and len(wave) < self.fuse_limit:
                # Linger briefly so a concurrent wave of submitters lands in
                # the same fused frontier instead of N singleton runs.
                time.sleep(self.fuse_window_seconds)
                wave.extend(self._tenancy.drain_now(self.fuse_limit - len(wave)))
            if self._cancel_pending:
                for ticket in wave:
                    ticket.fail(ServiceClosedError("the graph service was closed"))
                continue
            self._execute_wave(wave)

    def _drop_expired(self, wave: list[QueryTicket]) -> list[QueryTicket]:
        """Drop-on-expiry: fail stale tickets before any fusing happens.

        A query whose deadline passed while it sat in its tenant lane is
        answered with :class:`~repro.errors.QueryExpiredError` — walking
        it anyway would burn fused-kernel time on a result the caller has
        already abandoned.
        """
        now = time.monotonic()
        live: list[QueryTicket] = []
        expired = 0
        for ticket in wave:
            if ticket.query.expired(now):
                ticket.fail(
                    QueryExpiredError(
                        "query deadline passed before the dispatcher fused "
                        "it; retry with a later deadline"
                    )
                )
                self._tenancy.record_failed(ticket.tenant)
                expired += 1
            else:
                live.append(ticket)
        if expired:
            with self._cond:
                self.stats.queries_expired += expired
        return live

    def _execute_wave(self, wave: list[QueryTicket]) -> None:
        """Group a wave by fuse key and run each group as one frontier."""
        wave = self._drop_expired(wave)
        if not wave:
            return
        if self._faults is not None:
            try:
                self._faults.fire("dispatcher.wave")
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                for ticket in wave:
                    ticket.fail(exc)
                    self._tenancy.record_failed(ticket.tenant)
                return
        groups: dict[tuple, list[QueryTicket]] = {}
        for ticket in wave:
            groups.setdefault(ticket.query.fuse_key(), []).append(ticket)
        for tickets in groups.values():
            self._execute_group(tickets)

    def _group_rng(self, tickets: list[QueryTicket]):
        """The generator driving one fused run.

        A query running alone keeps its caller-provided rng (this is what
        makes sync mode bitwise-identical to the serial frontier); fused
        groups draw from a deterministic service stream instead, because
        no single caller owns the shared frontier.
        """
        if len(tickets) == 1 and tickets[0].query.rng is not None:
            return tickets[0].query.rng
        with self._cond:
            stream = self._group_counter
            self._group_counter += 1
        return np.random.default_rng([self.service_seed, stream])

    def _execute_group(self, tickets: list[QueryTicket]) -> None:
        try:
            rng = self._group_rng(tickets)
            query = tickets[0].query
            params = query.resolved_params()
            starts: list[int] = []
            offsets = [0]
            for ticket in tickets:
                starts.extend(ticket.query.starts)
                offsets.append(len(starts))
            walks, epoch, busy = self._execute_walks(query, params, starts, rng)
            matrix = walks.matrix
            with self._cond:
                self.stats.fused_groups += 1
                self.stats.fused_sizes.append(len(tickets))
                self.stats.queries_served += len(tickets)
                self.stats.total_walk_steps += walks.total_steps
                self.stats.query_busy_seconds += busy
            for position, ticket in enumerate(tickets):
                rows = matrix[offsets[position] : offsets[position + 1]]
                latency = ticket.resolve(
                    BatchedWalks(matrix=rows), epoch, fused_with=len(tickets)
                )
                self._tenancy.record_served(ticket.tenant, latency)
                with self._cond:
                    self.stats.latencies.append(latency)
        except BaseException as exc:
            for ticket in tickets:
                if not ticket.done:
                    ticket.fail(exc)
                    self._tenancy.record_failed(ticket.tenant)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                # Resolve the tickets first (no caller may hang), then let
                # the interpreter-level signal keep propagating instead of
                # swallowing it into a failed wave.
                raise

    def _execute_walks(self, query, params, starts, rng):
        """Run one fused group; returns ``(walks, epoch, busy_seconds)``.

        This is the execution hook subclasses override:
        :class:`~repro.serve.router.RouterService` replaces it with a
        fan-out over shard serve processes.  The base implementation
        drives the published snapshot engine.
        """
        buffer = self._acquire_front()
        try:
            epoch = buffer.epoch
            busy_start = time.thread_time()
            walks = execute_walk(
                buffer.engine, query.application, starts, query.walk_length, params, rng
            )
            busy = time.thread_time() - busy_start
        finally:
            self._release(buffer)
        return walks, epoch, busy

    def _acquire_front(self) -> _EngineBuffer:
        with self._cond:
            buffer = self._buffers[self._front]
            buffer.readers += 1
            return buffer

    def _release(self, buffer: _EngineBuffer) -> None:
        with self._cond:
            buffer.readers -= 1
            self._cond.notify_all()
