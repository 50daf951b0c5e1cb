"""Shard serve worker: one process serving whole walks over a shard replica.

This is the execution half of the scale-out serve path
(:mod:`repro.serve.router` owns the other half).  Each worker process
boots from one shared-memory blob (:func:`boot_replica`): the writer's
graph as CSR columns plus its ``undirected`` flag, and its serialized
*global* fused-table snapshot (:meth:`export_frontier_state`).  The
replica builds nothing: its private mutable
:class:`~repro.graph.dynamic_graph.DynamicGraph` takes the columns as
stored arcs, and its engine adopts the tables without running
``_build_state``, so it holds no per-vertex sampler and executes **whole
walks** table-driven (a FlowWalker replica is the graph alone).  A flip
applies the writer's O(touched) patch (:meth:`apply_frontier_patch`)
plus the update batch's columns to the local graph — the batch and the
touched slices travel in one shared-memory block, so a flip never
re-pickles the world.

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
from repro.graph.update_batch import UpdateBatch
from repro.serve.service import execute_walk

#: Key carrying the epoch number inside boot / flip payload blobs.
EPOCH_KEY = "__epoch"

#: Key flagging a flip payload as a full snapshot (writer recovery) vs an
#: O(touched) slice patch (the normal path).
FULL_STATE_KEY = "__full_state"

#: Keys carrying the flip's update-batch columns.
BATCH_KEYS = ("batch_src", "batch_dst", "batch_bias", "batch_insert", "batch_timestamp")

#: Keys carrying the writer's graph inside a boot blob: its CSR columns
#: (``DynamicGraph.csr_columns``) and its ``undirected`` flag.
GRAPH_KEYS = ("__indptr", "__targets", "__biases")
UNDIRECTED_KEY = "__undirected"


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


def boot_replica(engine_name: str, engine_kwargs: dict, engine_seed: int, boot_state):
    """A shard replica from a boot blob's arrays; it builds nothing.

    The graph is the writer's, copied from its columns as stored arcs;
    the engine is constructed without ``_build_state`` and adopts the
    writer's fused tables.
    """
    # Imported here so "spawn" children resolve the registry cleanly.
    from repro.engines.registry import ENGINE_REGISTRY

    engine = ENGINE_REGISTRY[engine_name](rng=engine_seed, **engine_kwargs)
    engine.graph = DynamicGraph.from_csr(
        *(boot_state[key] for key in GRAPH_KEYS),
        undirected=bool(boot_state[UNDIRECTED_KEY][0]),
    )
    _install_frontier_state(engine, boot_state, full=True)
    return engine


def apply_flip(engine, payload) -> None:
    """One epoch flip on a replica: the batch's columns, then the tables."""
    batch = batch_from_payload(payload)
    if len(batch):
        engine._apply_batch_to_graph(batch)
    _install_frontier_state(engine, payload, full=bool(payload[FULL_STATE_KEY][0]))


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
    engine_name: str,
    engine_kwargs: dict,
    engine_seed: int,
    boot_name: str,
    boot_nbytes: int,
    generation: int,
    inbox,
    replies,
) -> None:
    """Worker loop: boot from the shared-memory blob, then serve walks and flips.

    ``generation`` is the router's respawn counter at spawn time; the
    ``ready`` reply echoes it so the router can discard stale readies
    from a boot a crash aborted.
    """
    try:
        build_start = time.process_time()
        boot_state = unpack_arrays(read_shared_blob(boot_name, boot_nbytes))
        epoch = int(boot_state[EPOCH_KEY][0])
        engine = boot_replica(engine_name, engine_kwargs, engine_seed, boot_state)
        del boot_state
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
                    apply_flip(
                        engine, unpack_arrays(read_shared_blob(blob_name, blob_nbytes))
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


__all__ = [
    "BATCH_KEYS",
    "EPOCH_KEY",
    "FULL_STATE_KEY",
    "GRAPH_KEYS",
    "UNDIRECTED_KEY",
    "apply_flip",
    "batch_from_payload",
    "boot_replica",
    "read_shared_blob",
    "shard_serve_main",
]
