"""Sharded multi-process serving: a router front process over shard engines.

:class:`RouterService` is the scale-out face of the serve layer.  The
front process owns the HTTP event loop, validation, tenancy and the
epoch writer exactly as :class:`~repro.serve.service.GraphService` does;
what changes is execution: every fused query group fans out to ``N``
shard serve processes (:mod:`repro.serve.shard_worker`), each a replica
booted from one shared-memory blob (the writer's graph columns and fused
tables; it builds no sampling state), and the per-shard walk matrices
are reassembled into one bitwise-stable response.

Three properties carry the design:

* **Whole walks, not per-step hand-offs.**  Every worker adopts the
  writer's *global* fused frontier tables
  (:meth:`export_frontier_state`), so a walker never needs another
  shard's state mid-walk — the router splits a group once by start
  vertex, each shard runs its subset's entire walks locally, and the
  replies paste back by position.  With one shard the worker draws from
  byte-for-byte the generator the in-process service would use, so the
  sharded response is **bitwise identical** to the single-process one.

* **O(touched) epoch flips.**  The writer keeps the double-buffered
  engine pair of the single-process service; after each batch is applied
  and delta-warmed, :meth:`RouterService._publish` serializes the update
  batch's columns plus *only the touched* ``SlicedTableStore`` slices
  (:meth:`export_frontier_patch`) into one shared-memory block and
  broadcasts a flip.  Every shard patches in place and tags subsequent
  replies with the new epoch — nothing re-pickles the world.

* **Crash containment (the PR 7 chaos contract).**  Workers reply over
  private pipes; a SIGKILLed shard surfaces as
  :class:`~repro.errors.WorkerCrashError`, the router respawns it from a
  fresh export of the current snapshot and retries the fan-out once —
  queries are re-dispatched deterministically (same seed keys), so the
  retry returns the same bytes the un-killed run would have.  Zero hung
  tickets, by the same resolve-or-fail discipline the in-process
  dispatcher keeps.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from collections.abc import Sequence

import numpy as np

from repro.engines.registry import ENGINE_REGISTRY
from repro.engines.sliced_tables import pack_arrays
from repro.errors import ParallelExecutionError, ServeError, WorkerCrashError
from repro.graph.partition import partition_graph
from repro.serve.service import GraphService, execute_walk
from repro.serve.shard_worker import (
    EPOCH_KEY,
    FULL_STATE_KEY,
    GRAPH_KEYS,
    UNDIRECTED_KEY,
    shard_serve_main,
)
from repro.utils.validation import check_positive_int
from repro.walks.frontier import BatchedWalks

#: Seconds the router waits for a shard reply before giving up entirely
#: (a *live* worker this slow is treated as a protocol failure).
_REPLY_TIMEOUT = 300.0

#: Seconds between liveness polls while waiting on the per-worker reply
#: pipes: every poll checks ``Process.is_alive()`` for all workers, so a
#: crashed worker surfaces as :class:`~repro.errors.WorkerCrashError`
#: within one poll interval instead of hanging the run.  (A dead worker's
#: pipe usually reports EOF even sooner.)
_LIVENESS_POLL_SECONDS = 0.1


class ShardStreamKey(tuple):
    """A fused group's rng as a *seed key*, not a live generator.

    Live ``numpy.random.Generator`` objects cannot cross the process
    boundary by reference, so the router's :meth:`RouterService._group_rng`
    hands out the entropy instead: ``default_rng(list(key))`` on the
    worker reproduces exactly the generator the in-process service would
    build from the same entropy (single shard), and ``key + (shard,)``
    spreads multiple shards onto deterministically distinct streams.
    """

    __slots__ = ()


# --------------------------------------------------------------------------- #
# pure reassembly (unit-testable without processes)
# --------------------------------------------------------------------------- #
def reassemble(
    total_rows: int,
    parts: Sequence[tuple[np.ndarray, np.ndarray]],
    *,
    fallback_width: int,
) -> np.ndarray:
    """Paste per-shard walk matrices back into one dense response.

    ``parts`` is ``[(positions, matrix), ...]`` where ``positions`` are
    the rows of the fused group each shard served, in any arrival order.
    Shards trim their matrices independently (a shard whose walkers all
    retired early replies narrow); the result takes the widest reply —
    which equals the single-process trim, because the global longest walk
    lives on some shard — and leaves shorter rows ``-1``-padded exactly
    as the serial frontier does.  ``fallback_width`` (the declared
    ``walk_length + 1``) only applies when there are no parts at all,
    matching the serial driver's empty-frontier convention.
    """
    width = max((matrix.shape[1] for _, matrix in parts), default=fallback_width)
    out = np.full((total_rows, width), -1, dtype=np.int64)
    for positions, matrix in parts:
        if len(positions):
            out[positions, : matrix.shape[1]] = matrix
    return out


def discard_stale(
    parts: Sequence[tuple[np.ndarray, np.ndarray, int]], epoch: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Drop shard replies tagged with a different epoch than dispatched.

    ``parts`` is ``[(positions, matrix, reply_epoch), ...]``.  A stale
    tag means the reply was computed against another snapshot — mixing
    it into the response would break snapshot isolation, so it is
    discarded and the shard re-asked (the pool's inline equivalent).
    """
    return [
        (positions, matrix)
        for positions, matrix, reply_epoch in parts
        if reply_epoch == epoch
    ]


def reference_shard_walks(
    engine,
    application: str,
    starts: np.ndarray,
    owners: np.ndarray,
    walk_length: int,
    params: dict,
    seed_key: Sequence[int],
    num_shards: int,
) -> np.ndarray:
    """The sharded run executed in-process: the router's pinned reference.

    Runs each shard's subset on ``engine`` with the exact per-shard
    generator scheme the pool ships to its workers, then reassembles.
    The distributed result must equal this byte for byte — the
    reassembly tests pin it for every engine.
    """
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for shard in range(num_shards):
        positions = np.flatnonzero(owners == shard)
        if len(positions) == 0:
            continue
        key = tuple(seed_key) if num_shards == 1 else tuple(seed_key) + (shard,)
        rng = np.random.default_rng(list(key))
        walks = execute_walk(
            engine, application, starts[positions], walk_length, params, rng
        )
        parts.append((positions, walks.matrix))
    fallback = _fallback_width(application, walk_length, params)
    return reassemble(len(starts), parts, fallback_width=fallback)


def _fallback_width(application: str, walk_length: int, params: dict) -> int:
    if application == "ppr":
        return int(params["max_steps"]) + 1
    return int(walk_length) + 1


def flip_payload(engine, batch, delta) -> tuple[dict[str, np.ndarray], bool]:
    """Serialize one epoch flip: batch columns + touched slices (or all).

    Returns ``(payload, full)``.  The normal path ships the
    :class:`~repro.engines.sliced_tables.FrontierDelta`'s touched
    vertices as an :meth:`export_frontier_patch` — O(touched) bytes.  A
    full :meth:`export_frontier_state` snapshot ships only when the warm
    was a cold full build (writer recovery, engine reset), flagged so
    workers adopt instead of patch.
    """
    payload: dict[str, np.ndarray] = {
        "batch_src": np.ascontiguousarray(batch.src, dtype=np.int64),
        "batch_dst": np.ascontiguousarray(batch.dst, dtype=np.int64),
        "batch_bias": np.ascontiguousarray(batch.bias, dtype=np.float64),
        "batch_insert": np.ascontiguousarray(batch.insert_mask, dtype=bool),
        "batch_timestamp": np.ascontiguousarray(batch.timestamp, dtype=np.int64),
    }
    full = delta is None or delta.full_rebuild or delta.vertex_ids is None
    if full:
        payload.update(_export_state(engine))
    else:
        payload.update(engine.export_frontier_patch(delta.vertex_ids))
    payload[FULL_STATE_KEY] = np.array([1 if full else 0], dtype=np.int64)
    return payload, full


def _publish_blob(blob: bytes) -> tuple[shared_memory.SharedMemory, int]:
    """Write ``blob`` into a fresh shared-memory block (caller unlinks)."""
    block = shared_memory.SharedMemory(create=True, size=max(len(blob), 1))
    block.buf[: len(blob)] = blob
    return block, len(blob)


def _export_state(engine) -> dict[str, np.ndarray]:
    """The engine's full frontier state; empty for a stateless engine.

    FlowWalker keeps no fused tables (it samples straight off the
    adjacency), so its shards need only the graph and the batch columns.
    """
    if not hasattr(engine, "export_frontier_state"):
        return {}
    return engine.export_frontier_state()


def _boot_blob(engine, epoch: int) -> bytes:
    """Everything a replica boots from: the engine's frontier state, its
    graph's CSR columns and ``undirected`` flag, and the epoch."""
    state = _export_state(engine)
    state.update(zip(GRAPH_KEYS, engine.graph.csr_columns()))
    state[UNDIRECTED_KEY] = np.array([engine.graph.undirected], dtype=bool)
    state[EPOCH_KEY] = np.array([int(epoch)], dtype=np.int64)
    return pack_arrays(state)


def wait_worker_reply(
    reply_readers: Sequence, workers: Sequence, *, timeout: float = _REPLY_TIMEOUT
) -> tuple[int, tuple]:
    """Block until one worker reply arrives; surface dead workers fast.

    Polls the per-worker reply pipes, sweeps ``Process.is_alive()``
    between polls, and returns ``(shard, reply)`` for the first message.
    A dead worker — EOF on its private pipe, or caught by the liveness
    sweep — raises :class:`~repro.errors.WorkerCrashError` *without*
    tearing the pool down, so the caller can respawn the dead shard and
    retry.  A live-but-silent pool past ``timeout`` raises
    :class:`~repro.errors.ParallelExecutionError`.
    """
    deadline = time.monotonic() + timeout
    while True:
        ready = mp_connection.wait(reply_readers, timeout=_LIVENESS_POLL_SECONDS)
        if not ready:
            dead = [
                shard
                for shard, process in enumerate(workers)
                if not process.is_alive()
            ]
            if dead:
                raise WorkerCrashError(dead[0])
            if time.monotonic() >= deadline:
                raise ParallelExecutionError(
                    "timed out waiting for shard workers "
                    f"(no reply within {timeout:.0f}s)"
                )
            continue
        reader = ready[0]
        shard = reply_readers.index(reader)
        try:
            return shard, reader.recv()
        except (EOFError, OSError) as exc:
            # EOF (or a truncated message) on a worker's private pipe: the
            # worker died, possibly mid-send.  Only its own channel is
            # corrupted; respawn replaces both.
            process = workers[shard]
            if process.is_alive():  # pragma: no cover - broken pipe only
                process.terminate()
                process.join(timeout=5)
            raise WorkerCrashError(shard) from exc


# --------------------------------------------------------------------------- #
# the shard serve pool
# --------------------------------------------------------------------------- #
class ShardServePool:
    """N shard serve processes plus the router-side dispatch machinery.

    This is the repo's one multi-process walk executor: the
    :class:`RouterService` serves traffic through it, and the offline
    Figure 12 paths (``run scale``, the harness's ``workers > 1`` rounds)
    drive :meth:`run` and :meth:`flip` directly.  A stateless engine
    (FlowWalker) boots and flips with an empty frontier state.

    Boot exports the source engine's graph columns and full frontier
    state into one shared-memory blob; workers copy it into private
    state, so **the export is unlinked as soon as every worker acked
    ready** — the pool holds no long-lived shared memory, which is what
    makes SIGTERM cleanup (and chaos SIGKILLs) leak-free.  Respawn
    repeats the boot export from the *current* snapshot engine for the
    dead shards only — O(world) on a crash, never on the serving path.

    Ownership is pinned at boot: the partition of ``graph`` decided here
    keeps routing deterministic for the pool's lifetime (vertices added
    later route ``v % num_shards``), respawns included.  It only routes:
    every worker holds the full topology and the full adopted tables, so
    any worker *can* serve any walk; pinning is what makes the seed-key
    scheme reproducible across respawns.
    """

    def __init__(
        self,
        *,
        engine_name: str,
        engine_kwargs: dict | None,
        engine_seed: int,
        graph,
        num_shards: int,
        strategy: str,
        source_engine,
        epoch: int,
        start_method: str | None = None,
    ) -> None:
        check_positive_int(num_shards, "num_shards")
        self.engine_name = engine_name
        self.engine_kwargs = dict(engine_kwargs or {})
        self.engine_seed = int(engine_seed)
        self.num_shards = int(num_shards)
        self._closed = False
        self._run_counter = 0
        self._generation = 0
        #: Dead workers replaced by :meth:`respawn` so far.
        self.respawns = 0
        #: Replies discarded (and re-asked) for carrying a stale epoch tag.
        self.stale_replies = 0
        self.build_seconds = [0.0] * self.num_shards
        #: Each shard's frontier kernel (``"compiled"`` / ``"numpy"``), from its ready reply.
        self.frontier_kernels = ["numpy"] * self.num_shards

        partition = partition_graph(graph, self.num_shards, strategy=strategy)
        #: Owner shard of every boot-time vertex (the pinned routing column).
        self.owner = partition.owner_for(graph.num_vertices)
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        context = mp.get_context(start_method)
        self._context = context
        self._inboxes = [context.Queue() for _ in range(self.num_shards)]
        self._reply_readers: list = [None] * self.num_shards
        self._workers: list = [None] * self.num_shards

        block, nbytes = _publish_blob(_boot_blob(source_engine, epoch))
        try:
            for shard in range(self.num_shards):
                self._spawn(shard, block.name, nbytes)
            self._await_ready(self.num_shards)
        except BaseException:
            self.close()
            raise
        finally:
            # Workers copied everything private; release the export now.
            block.close()
            block.unlink()

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #
    def _spawn(self, shard: int, boot_name: str, boot_nbytes: int) -> None:
        reader, writer = self._context.Pipe(duplex=False)
        self._reply_readers[shard] = reader
        process = self._context.Process(
            target=shard_serve_main,
            args=(
                shard,
                self.engine_name,
                self.engine_kwargs,
                self.engine_seed,
                boot_name,
                boot_nbytes,
                self._generation,
                self._inboxes[shard],
                writer,
            ),
            daemon=True,
        )
        process.start()
        # The child now holds the only write end: its death — however
        # abrupt — surfaces as EOF on our reader.
        writer.close()
        self._workers[shard] = process

    def _await_ready(self, count: int) -> None:
        remaining = count
        while remaining > 0:
            _, reply = wait_worker_reply(self._reply_readers, self._workers)
            kind = reply[0]
            if kind == "error":
                self.close()
                raise ParallelExecutionError(
                    f"shard serve worker {reply[1]} failed during boot:\n{reply[2]}"
                )
            if kind != "ready" or reply[2] != self._generation:
                continue  # straggler from a superseded boot or aborted run
            self.build_seconds[reply[1]] = float(reply[3])
            self.frontier_kernels[reply[1]] = str(reply[4])
            remaining -= 1

    def respawn(self, source_engine, epoch: int) -> list[int]:
        """Replace crashed workers, booted from the current snapshot.

        The pool holds no long-lived export to re-attach, so respawn
        re-exports the *current* graph and frontier state; the fresh
        worker boots already at ``epoch`` and needs no flip replay.  The
        owner column stays the one pinned at boot.  Returns the list of
        replaced shards (empty if all alive).
        """
        self._require_open()
        dead = [
            shard
            for shard, process in enumerate(self._workers)
            if not process.is_alive()
        ]
        if not dead:
            return []
        # Bump the run counter so straggler walk replies the crashed run
        # already enqueued are discarded as stale.
        self._run_counter += 1
        self._generation += 1
        block, nbytes = _publish_blob(_boot_blob(source_engine, epoch))
        try:
            for shard in dead:
                old_inbox = self._inboxes[shard]
                old_reader = self._reply_readers[shard]
                self._inboxes[shard] = self._context.Queue()
                self._spawn(shard, block.name, nbytes)
                for stale in (old_inbox, old_reader):
                    try:
                        stale.close()
                    except Exception:  # pragma: no cover - channel broken
                        pass
            self._await_ready(len(dead))
        finally:
            block.close()
            block.unlink()
        self.respawns += len(dead)
        return dead

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one shard serve process (the chaos primitive)."""
        victim = self._workers[shard % self.num_shards]
        victim.kill()
        victim.join(timeout=5)

    def worker_pids(self) -> list[int | None]:
        return [process.pid for process in self._workers]

    def alive(self) -> list[bool]:
        return [
            process is not None and process.is_alive() for process in self._workers
        ]

    def close(self) -> None:
        """Stop every worker.  No shared memory outlives the pool."""
        if self._closed:
            return
        self._closed = True
        for inbox in self._inboxes:
            try:
                inbox.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._workers:
            if process is None:
                continue
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        for reader in self._reply_readers:
            try:
                reader.close()
            except Exception:  # pragma: no cover - already closed
                pass

    def _require_open(self) -> None:
        if self._closed:
            raise ServeError("the shard serve pool has been closed")

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def owners_of(self, vertices: np.ndarray) -> np.ndarray:
        """The pinned owner shard of every vertex (new vertices mod N)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if self.num_shards == 1:
            return np.zeros(len(vertices), dtype=np.int64)
        limit = len(self.owner)
        if limit == 0:
            return np.abs(vertices) % self.num_shards
        owners = self.owner[np.clip(vertices, 0, limit - 1)]
        outside = (vertices < 0) | (vertices >= limit)
        if outside.any():
            owners = np.where(outside, np.abs(vertices) % self.num_shards, owners)
        return owners

    def run(
        self,
        application: str,
        starts: np.ndarray,
        walk_length: int,
        params: dict,
        seed_key: Sequence[int],
        epoch: int,
    ) -> tuple[np.ndarray, list[float]]:
        """Fan one fused group out and reassemble the replies.

        Raises :class:`~repro.errors.WorkerCrashError` when a shard dies
        mid-run (the caller respawns and retries once — the seed keys
        make the retry bitwise-deterministic).  A reply tagged with a
        stale epoch is discarded and the shard re-asked once; snapshot
        isolation never mixes epochs in one response.
        """
        self._require_open()
        self._run_counter += 1
        run_id = self._run_counter
        owners = self.owners_of(starts)
        pending: dict[int, tuple[np.ndarray, tuple]] = {}
        for shard in range(self.num_shards):
            positions = np.flatnonzero(owners == shard)
            if len(positions) == 0:
                continue
            key = (
                tuple(seed_key)
                if self.num_shards == 1
                else tuple(seed_key) + (shard,)
            )
            message = (
                "walk",
                run_id,
                application,
                starts[positions],
                int(walk_length),
                dict(params),
                key,
            )
            self._inboxes[shard].put(message)
            pending[shard] = (positions, message)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        busy = [0.0] * self.num_shards
        retried: set = set()
        while pending:
            _, reply = wait_worker_reply(self._reply_readers, self._workers)
            kind = reply[0]
            if kind == "error":
                self.close()
                raise ParallelExecutionError(
                    f"shard serve worker {reply[1]} failed:\n{reply[2]}"
                )
            if kind != "walks":
                continue  # straggler flip ack from an aborted collection
            _, shard, reply_run, reply_epoch, matrix, walk_busy = reply
            if reply_run != run_id or shard not in pending:
                continue  # straggler from a run a crash aborted
            if reply_epoch != epoch:
                # The worker answered against another snapshot.  Discard
                # and re-ask once — its inbox is FIFO, so the re-ask runs
                # after whatever flip produced the skew.
                self.stale_replies += 1
                if shard in retried:
                    self.close()
                    raise ParallelExecutionError(
                        f"shard {shard} repeatedly answered epoch "
                        f"{reply_epoch} for a query dispatched at epoch {epoch}"
                    )
                retried.add(shard)
                self._inboxes[shard].put(pending[shard][1])
                continue
            busy[shard] += float(walk_busy)
            parts.append((pending.pop(shard)[0], matrix))
        fallback = _fallback_width(application, walk_length, params)
        return reassemble(len(starts), parts, fallback_width=fallback), busy

    def flip(
        self, epoch: int, blob: bytes, source_engine
    ) -> tuple[list[float], int]:
        """Broadcast one epoch flip and collect every shard's ack.

        The payload travels as one shared-memory block, unlinked as soon
        as all shards acked.  A worker that dies mid-flip is respawned
        from ``source_engine`` (which already carries the post-flip
        state), booting directly at ``epoch`` — so the flip completes for
        every shard either by patch or by rebirth.
        """
        self._require_open()
        block, nbytes = _publish_blob(blob)
        try:
            awaiting = set(range(self.num_shards))
            for inbox in self._inboxes:
                inbox.put(("flip", int(epoch), block.name, nbytes))
            busy = [0.0] * self.num_shards
            respawned_total = 0
            while awaiting:
                try:
                    _, reply = wait_worker_reply(
                        self._reply_readers, self._workers
                    )
                except WorkerCrashError:
                    fresh = self.respawn(source_engine, epoch)
                    respawned_total += len(fresh)
                    awaiting.difference_update(fresh)
                    continue
                kind = reply[0]
                if kind == "error":
                    self.close()
                    raise ParallelExecutionError(
                        f"shard serve worker {reply[1]} failed during an "
                        f"epoch flip:\n{reply[2]}"
                    )
                if kind != "flipped":
                    continue  # straggler walk reply from an aborted run
                _, shard, reply_epoch, flip_busy = reply
                if reply_epoch != epoch or shard not in awaiting:
                    continue
                busy[shard] += float(flip_busy)
                awaiting.discard(shard)
            return busy, respawned_total
        finally:
            block.close()
            block.unlink()


# --------------------------------------------------------------------------- #
# the router service
# --------------------------------------------------------------------------- #
class RouterService(GraphService):
    """The sharded serve front: GraphService semantics, multi-process execution.

    Construction keeps the single-process double-buffered writer (the
    back/front engine pair *is* the router's reference copy and the
    source of every flip payload) and adds a :class:`ShardServePool`
    booted from the front engine's exported state at epoch 0.  The
    public API is exactly :class:`GraphService`'s — ``from_config``,
    ``submit``/``query``, ``ingest``/``flush``, ``stats_snapshot``,
    ``close`` — so the event-loop front-end serves a router without
    knowing it.

    Overridden hooks:

    * :meth:`_group_rng` hands out :class:`ShardStreamKey` seed keys
      instead of live generators (a caller-supplied live generator falls
      back to in-process execution on the front snapshot);
    * :meth:`_execute_walks` fans the fused group out under
      ``_pool_lock`` — the same lock the flip broadcast holds, so a
      response never mixes epochs;
    * :meth:`_warm_engine` captures the
      :class:`~repro.engines.sliced_tables.FrontierDelta` of each
      delta-warm so :meth:`_publish` can serialize exactly the touched
      slices;
    * :meth:`_publish` broadcasts the flip to every shard *before*
      committing the epoch swap, keeping workers and the front snapshot
      in lockstep.
    """

    def __init__(
        self,
        engine_name: str,
        graph,
        *,
        shards: int = 2,
        rng=2025,
        engine_kwargs: dict | None = None,
        partition_strategy: str = "degree_balanced",
        max_pending_queries: int = 64,
        fuse_limit: int = 8,
        fuse_window_seconds: float = 0.002,
        service_seed: int = 0,
        tenants=None,
        default_quota=None,
        strict_tenants: bool = False,
        fault_injector=None,
        dead_letter_limit: int = 16,
        writer_recovery_limit: int = 3,
        start_method: str | None = None,
    ) -> None:
        check_positive_int(shards, "shards")
        engine_cls = ENGINE_REGISTRY.get(engine_name)
        if engine_cls is not None and not hasattr(
            engine_cls, "export_frontier_state"
        ):
            raise ServeError(
                f"engine {engine_name!r} has no serializable frontier state; "
                "the shard router needs one of the sliced-table engines "
                "(bingo / knightking / gsampler)"
            )
        self.shards = int(shards)
        # Attributes the overridden hooks touch must exist before the
        # base constructor runs (it warms the front buffer through
        # _warm_engine and could in principle publish).
        self._pool: ShardServePool | None = None
        self._pool_lock = threading.Lock()
        self._pending_delta = None
        self._walk_busy = [0.0] * self.shards
        self._flip_busy = [0.0] * self.shards
        self._walk_critical_seconds = 0.0
        self._flip_critical_seconds = 0.0
        self._shard_flips = 0
        self._full_snapshot_flips = 0
        self._flip_payload_bytes = 0
        super().__init__(
            engine_name,
            graph,
            rng=rng,
            engine_kwargs=engine_kwargs,
            sync=False,
            max_pending_queries=max_pending_queries,
            fuse_limit=fuse_limit,
            fuse_window_seconds=fuse_window_seconds,
            service_seed=service_seed,
            tenants=tenants,
            default_quota=default_quota,
            strict_tenants=strict_tenants,
            warm_on_publish=True,
            fault_injector=fault_injector,
            dead_letter_limit=dead_letter_limit,
            writer_recovery_limit=writer_recovery_limit,
        )
        # The construction warm was a cold full build, not a flip delta.
        self._pending_delta = None
        try:
            self._pool = ShardServePool(
                engine_name=engine_name,
                engine_kwargs=self._engine_kwargs,
                engine_seed=int(rng),
                graph=self.engine.graph,
                num_shards=self.shards,
                strategy=partition_strategy,
                source_engine=self.engine,
                epoch=0,
                start_method=start_method,
            )
        except BaseException:
            super().close(drain=False)
            raise

    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls, config, graph, *, fault_injector=None, rng=None, default_quota=None
    ):
        """Build the router from one frozen :class:`ServiceConfig`."""
        return cls(
            config.engine,
            graph,
            shards=config.shards,
            rng=config.seed if rng is None else rng,
            engine_kwargs=config.engine_kwargs,
            partition_strategy=config.partition_strategy,
            max_pending_queries=config.max_pending_queries,
            fuse_limit=config.fuse_limit,
            fuse_window_seconds=config.fuse_window_seconds,
            service_seed=config.service_seed,
            tenants=config.tenant_quotas(),
            default_quota=default_quota,
            strict_tenants=config.strict_tenants,
            fault_injector=fault_injector,
            dead_letter_limit=config.dead_letter_limit,
            writer_recovery_limit=config.writer_recovery_limit,
        )

    # ------------------------------------------------------------------ #
    # overridden execution hooks
    # ------------------------------------------------------------------ #
    def _group_rng(self, tickets):
        if len(tickets) == 1 and tickets[0].query.rng is not None:
            caller = tickets[0].query.rng
            if isinstance(caller, bool) or not isinstance(
                caller, (int, np.integer)
            ):
                # A live generator cannot cross the process boundary by
                # reference; preserve its bitwise contract by executing
                # in-process on the front snapshot instead.
                return caller
            return ShardStreamKey((int(caller),))
        with self._cond:
            stream = self._group_counter
            self._group_counter += 1
        return ShardStreamKey((self.service_seed, stream))

    def _execute_walks(self, query, params, starts, rng):
        if not isinstance(rng, ShardStreamKey):
            return super()._execute_walks(query, params, starts, rng)
        starts_array = np.asarray(starts, dtype=np.int64)
        with self._pool_lock:
            epoch = self._epoch
            busy_start = time.thread_time()
            if self._faults is not None:
                action = self._faults.fire("router.dispatch")
                if action is not None and action.kind == "kill_worker":
                    self._pool.kill_worker(action.worker)
            try:
                matrix, shard_busy = self._pool.run(
                    query.application,
                    starts_array,
                    query.walk_length,
                    params,
                    tuple(rng),
                    epoch,
                )
            except WorkerCrashError:
                # A shard died mid-fan-out.  Respawn it from the current
                # front snapshot (same epoch — flips are excluded while
                # we hold the pool lock) and retry ONCE; a second crash
                # fails the tickets with the typed error — resolved
                # either way, never hung.
                respawned = self._pool.respawn(self.engine, epoch)
                with self._cond:
                    self.stats.worker_respawns += len(respawned)
                    self.stats.wave_retries += 1
                matrix, shard_busy = self._pool.run(
                    query.application,
                    starts_array,
                    query.walk_length,
                    params,
                    tuple(rng),
                    epoch,
                )
            for shard, seconds in enumerate(shard_busy):
                self._walk_busy[shard] += seconds
            self._walk_critical_seconds += max(shard_busy, default=0.0)
            busy = (time.thread_time() - busy_start) + max(shard_busy, default=0.0)
        return BatchedWalks(matrix=matrix), epoch, busy

    def _warm_engine(self, engine):
        delta = super()._warm_engine(engine)
        self._pending_delta = delta
        return delta

    def _publish(self, buffer, batch, started) -> None:
        if self._pool is None:
            # Construction-time publishes (none expected) fall through.
            self._commit_publish(
                buffer, batch, time.thread_time() - started, 0.0
            )
            return
        delta = self._pending_delta
        self._pending_delta = None
        with self._pool_lock:
            flip_start = time.thread_time()
            # The writer is the only epoch bumper, so the post-commit
            # epoch is known before the commit: broadcast first, commit
            # after, and queries (excluded by the pool lock) can never
            # observe a front snapshot ahead of or behind the shards.
            new_epoch = self._epoch + 1
            payload, full = flip_payload(buffer.engine, batch, delta)
            blob = pack_arrays(payload)
            shard_busy, respawned = self._pool.flip(new_epoch, blob, buffer.engine)
            for shard, seconds in enumerate(shard_busy):
                self._flip_busy[shard] += seconds
            self._flip_critical_seconds += max(shard_busy, default=0.0)
            self._shard_flips += 1
            self._full_snapshot_flips += 1 if full else 0
            self._flip_payload_bytes += len(blob)
            if respawned:
                with self._cond:
                    self.stats.worker_respawns += respawned
            self._commit_publish(
                buffer,
                batch,
                time.thread_time() - started,
                time.thread_time() - flip_start,
            )

    # ------------------------------------------------------------------ #
    # reporting / lifecycle
    # ------------------------------------------------------------------ #
    def stats_snapshot(self) -> dict[str, object]:
        snapshot = super().stats_snapshot()
        with self._pool_lock:
            pool = self._pool
            snapshot["shards"] = self.shards
            snapshot["shard_walk_busy_seconds"] = list(self._walk_busy)
            snapshot["shard_flip_busy_seconds"] = list(self._flip_busy)
            snapshot["walk_critical_path_seconds"] = self._walk_critical_seconds
            snapshot["flip_critical_path_seconds"] = self._flip_critical_seconds
            snapshot["shard_flips"] = self._shard_flips
            snapshot["flip_full_snapshots"] = self._full_snapshot_flips
            snapshot["flip_payload_bytes"] = self._flip_payload_bytes
            if pool is not None:
                snapshot["shard_respawns"] = pool.respawns
                snapshot["stale_shard_replies"] = pool.stale_replies
                snapshot["shard_pids"] = pool.worker_pids()
                snapshot["shards_alive"] = pool.alive()
                snapshot["shard_build_seconds"] = list(pool.build_seconds)
                # One shard on the NumPy fallback makes the whole run "numpy".
                snapshot["frontier_kernel"] = (
                    "numpy" if "numpy" in pool.frontier_kernels else "compiled"
                )
        return snapshot

    def close(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        try:
            super().close(drain=drain, timeout=timeout)
        finally:
            with self._pool_lock:
                if self._pool is not None:
                    self._pool.close()


def service_from_config(
    config, graph, *, fault_injector=None, rng=None, default_quota=None
):
    """The service a :class:`ServiceConfig` describes — sharded or not.

    ``shards > 1`` builds a :class:`RouterService`; otherwise the
    single-process :class:`GraphService`.  This is what the CLI and the
    HTTP entry points call, so ``--shards`` is one flag, not a different
    program.
    """
    if config.shards > 1:
        return RouterService.from_config(
            config,
            graph,
            fault_injector=fault_injector,
            rng=rng,
            default_quota=default_quota,
        )
    return GraphService.from_config(
        config,
        graph,
        fault_injector=fault_injector,
        rng=rng,
        default_quota=default_quota,
    )


__all__ = [
    "RouterService",
    "ShardServePool",
    "ShardStreamKey",
    "discard_stale",
    "flip_payload",
    "reassemble",
    "reference_shard_walks",
    "service_from_config",
]
