"""Shard serve worker: one process serving whole walks over a shard engine.

This is the execution half of the scale-out serve path
(:mod:`repro.serve.router` owns the other half).  Each worker process:

* attaches the PR 3 shared-memory CSR export once at boot, materializes a
  *local mutable* :class:`~repro.graph.dynamic_graph.DynamicGraph` from
  it, and builds its engine via ``for_shard`` (samplers for owned
  vertices only — the per-shard memory story);
* adopts the router writer's serialized *global* fused-table snapshot
  (:meth:`export_frontier_state`), so the engine can execute **whole
  walks** — every hop table-driven against the adopted slices, no
  per-step hand-off chatter between processes;
* flips epochs by applying the writer's O(touched) patch
  (:meth:`apply_frontier_patch`) plus the update batch's columns to its
  local graph — the batch and the touched slices travel in one
  shared-memory block, so a flip never re-pickles the world.

The message protocol: a per-worker inbox queue, a private reply pipe
(a crash corrupts at most the dead worker's own channel), run ids so
stragglers from an aborted run are discarded, and epoch tags so the
router can detect stale replies.  Because queries and flips ride the *same* FIFO inbox, a
worker's reply epoch always matches the epoch the router dispatched
against — unless the worker was respawned mid-query, which the router
resolves with one retry.
"""

from __future__ import annotations

import time
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.engines.sliced_tables import unpack_arrays
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.partition import SharedGraphShards, SharedShardHandle
from repro.graph.update_batch import UpdateBatch
from repro.serve.service import execute_walk

#: Key carrying the epoch number inside boot / flip payload blobs.
EPOCH_KEY = "__epoch"

#: Key flagging a flip payload as a full snapshot (writer recovery) vs an
#: O(touched) slice patch (the normal path).
FULL_STATE_KEY = "__full_state"

#: Keys carrying the flip's update-batch columns.
BATCH_KEYS = ("batch_src", "batch_dst", "batch_bias", "batch_insert", "batch_timestamp")


def materialize_local_graph(view) -> DynamicGraph:
    """Copy a shared CSR view into a private mutable :class:`DynamicGraph`.

    Workers pay this O(V + E) copy once at boot (and once per respawn) so
    every later flip mutates private adjacency in place — the shared
    export can be unlinked as soon as the pool is ready.
    """
    graph = DynamicGraph(view.num_vertices)
    for vertex in range(view.num_vertices):
        neighbors = view.neighbor_array(vertex)
        if len(neighbors):
            graph.add_edges_bulk(
                vertex, np.array(neighbors), np.array(view.bias_array(vertex))
            )
    return graph


def read_shared_blob(name: str, nbytes: int) -> bytes:
    """Copy ``nbytes`` out of the named shared-memory block and detach."""
    block = shared_memory.SharedMemory(name=name)
    try:
        return bytes(block.buf[:nbytes])
    finally:
        block.close()


def batch_from_payload(payload) -> UpdateBatch:
    """Rebuild the flip's :class:`UpdateBatch` from its array columns."""
    return UpdateBatch(
        payload["batch_src"],
        payload["batch_dst"],
        payload["batch_bias"],
        payload["batch_insert"],
        payload["batch_timestamp"],
    )


def _install_frontier_state(engine, payload, *, full: bool) -> None:
    """Adopt a full snapshot or apply an O(touched) patch to ``engine``.

    A stateless engine (FlowWalker has no fused tables) walks straight
    off the local graph, which the flip's batch columns already updated.
    """
    if not hasattr(engine, "adopt_frontier_state"):
        return
    if full:
        engine.adopt_frontier_state(payload)
    else:
        engine.apply_frontier_patch(payload)


def shard_serve_main(
    shard: int,
    num_shards: int,
    engine_name: str,
    engine_kwargs: dict,
    engine_seed: int,
    handle: SharedShardHandle,
    boot_name: str,
    boot_nbytes: int,
    generation: int,
    inbox,
    replies,
) -> None:
    """Worker loop: boot from shared memory, then serve walks and flips.

    ``generation`` is the router's respawn counter at spawn time; the
    ``ready`` reply echoes it so the router can discard stale readies
    from a boot a crash aborted.
    """
    # Imported here so "spawn" children resolve the registry cleanly.
    from repro.engines.registry import ENGINE_REGISTRY

    store: SharedGraphShards | None = None
    try:
        build_start = time.process_time()
        store = SharedGraphShards.attach(handle)
        view = store.shard_view(shard)
        graph = materialize_local_graph(view)
        owned = np.array(view.owned_vertices(), dtype=np.int64)
        store.close()
        store = None
        engine = ENGINE_REGISTRY[engine_name].for_shard(
            graph, owned, rng=engine_seed, **engine_kwargs
        )
        boot_state = unpack_arrays(read_shared_blob(boot_name, boot_nbytes))
        epoch = int(boot_state[EPOCH_KEY][0])
        _install_frontier_state(engine, boot_state, full=True)
        build_seconds = time.process_time() - build_start
        replies.send(("ready", shard, generation, build_seconds, engine.frontier_kernel))

        while True:
            message = inbox.get()
            command = message[0]
            try:
                if command == "stop":
                    break
                if command == "walk":
                    _, run_id, application, starts, walk_length, params, seed_key = (
                        message
                    )
                    busy_start = time.process_time()
                    rng = np.random.default_rng(list(seed_key))
                    walks = execute_walk(
                        engine, application, starts, walk_length, params, rng
                    )
                    busy = time.process_time() - busy_start
                    replies.send(
                        ("walks", shard, run_id, epoch, walks.matrix, busy)
                    )
                elif command == "flip":
                    _, new_epoch, blob_name, blob_nbytes = message
                    busy_start = time.process_time()
                    payload = unpack_arrays(read_shared_blob(blob_name, blob_nbytes))
                    batch = batch_from_payload(payload)
                    if len(batch):
                        engine._apply_batch_to_graph(batch)
                    _install_frontier_state(
                        engine, payload, full=bool(payload[FULL_STATE_KEY][0])
                    )
                    epoch = int(new_epoch)
                    replies.send(
                        ("flipped", shard, epoch, time.process_time() - busy_start)
                    )
                else:  # pragma: no cover - protocol error
                    raise RuntimeError(f"unknown shard-serve command {command!r}")
            except Exception:  # propagate worker failures to the router
                replies.send(("error", shard, traceback.format_exc()))
    except Exception:  # pragma: no cover - startup failure
        try:
            replies.send(("error", shard, traceback.format_exc()))
        except Exception:
            pass
    finally:
        if store is not None:
            store.close()


__all__ = [
    "BATCH_KEYS",
    "EPOCH_KEY",
    "FULL_STATE_KEY",
    "batch_from_payload",
    "materialize_local_graph",
    "read_shared_blob",
    "shard_serve_main",
]
