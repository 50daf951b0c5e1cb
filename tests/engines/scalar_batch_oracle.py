"""The per-edge batch path: the oracle for every engine's columnar ``apply_batch``.

``apply_batch_scalar(engine, updates)`` is batched ingestion as it ran
before the columnar pipeline: per-edge Python loops over the scalar graph
and sampler mutators, then one rebuild per touched vertex (Bingo) or one
sampler rebuild (KnightKing, gSampler) or reload (FlowWalker).  On an
undirected graph Bingo applies edge by edge and the rebuild baselines mark
both endpoints dirty, as their columnar paths do.
``normalize_vertex_updates`` is the per-destination replay that
``VertexUpdateSlice.normalize`` vectorizes.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.engines.base import PHASE_DELETE, PHASE_INSERT, PHASE_REBUILD
from repro.engines.bingo import DEVICE_LANES, BatchStatistics, BingoEngine
from repro.engines.flowwalker import FlowWalkerEngine
from repro.graph.update_stream import GraphUpdate, UpdateKind


def normalize_vertex_updates(
    updates: Sequence[GraphUpdate],
    existing_destinations: set[int],
) -> tuple[list[tuple[int, float]], list[int], int]:
    """Collapse one vertex's update sequence into net insertions and deletions.

    The last operation on each destination decides the result.  Returns
    ``(insertions, deletions, cancelled)``: ``(destination, bias)`` pairs
    to add, destinations to remove, and the number of insert/delete pairs
    that annihilated.  A delete-then-insert deletes the old edge only when
    it is in ``existing_destinations``.
    """
    # destination -> ("insert", bias) | ("delete", None) | ("update", bias)
    net: dict[int, tuple[str, float | None]] = {}
    cancelled = 0
    for update in updates:
        dst = update.dst
        previous = net.get(dst)
        if update.kind is UpdateKind.INSERT:
            if previous is not None and previous[0] == "delete":
                net[dst] = ("update", update.bias)
            else:
                net[dst] = ("insert", update.bias)
        elif previous is not None and previous[0] == "insert":
            del net[dst]
            cancelled += 1
        else:
            net[dst] = ("delete", None)

    insertions: list[tuple[int, float]] = []
    deletions: list[int] = []
    for dst, (action, bias) in net.items():
        if action == "insert":
            insertions.append((dst, float(bias)))
        elif action == "delete":
            deletions.append(dst)
        else:  # "update": delete the old edge, insert the new bias
            if dst in existing_destinations:
                deletions.append(dst)
            insertions.append((dst, float(bias)))
    return insertions, deletions, cancelled


def apply_batch_scalar(engine, updates: Sequence[GraphUpdate]) -> None:
    """Apply ``updates`` to ``engine`` one edge at a time (see the module doc)."""
    if isinstance(engine, BingoEngine):
        _bingo_batch(engine, updates)
        return
    graph = engine._require_graph()
    touched = set()
    for update in updates:
        graph.ensure_vertex(update.src)
        graph.ensure_vertex(update.dst)
        if update.kind is UpdateKind.INSERT:
            graph.add_edge(update.src, update.dst, update.bias)
        else:
            graph.remove_edge(update.src, update.dst)
        touched.add(update.src)
        if graph.undirected:
            touched.add(update.dst)
    reload = isinstance(engine, FlowWalkerEngine)
    if not reload:
        engine.frontier_tables.mark_dirty(touched)
    start = time.perf_counter()
    if reload:
        engine._build_state()
    else:
        engine._rebuild_samplers()
    engine.breakdown.add(PHASE_REBUILD, time.perf_counter() - start)
    engine.updates_applied += len(updates)


def _bingo_batch(engine: BingoEngine, updates: Sequence[GraphUpdate]) -> None:
    """Section 5.2 per vertex: normalize, delete, insert, rebuild once."""
    graph = engine._require_graph()
    if graph.undirected:
        engine.apply_streaming(updates)
        return
    stats = BatchStatistics()
    grouped: dict[int, list[GraphUpdate]] = {}
    for update in updates:
        grouped.setdefault(update.src, []).append(update)
    engine.frontier_tables.mark_dirty(grouped)
    stats.touched_vertices = len(grouped)

    for vertex, vertex_updates in grouped.items():
        graph.ensure_vertex(vertex)
        for update in vertex_updates:
            graph.ensure_vertex(update.dst)
        existing = {
            update.dst for update in vertex_updates if graph.has_edge(vertex, update.dst)
        }
        insertions, deletions, cancelled = normalize_vertex_updates(
            vertex_updates, existing
        )
        stats.cancelled_pairs += cancelled

        sampler = engine._samplers.get(vertex)
        delete_start = time.perf_counter()
        for dst in deletions:
            graph.remove_edge(vertex, dst)
            if sampler is not None and sampler.contains(dst):
                sampler.delete(dst)
            stats.deletions += 1
        engine.breakdown.add(PHASE_DELETE, time.perf_counter() - delete_start)

        insert_start = time.perf_counter()
        for dst, bias in insertions:
            graph.add_edge(vertex, dst, bias)
            if sampler is None:
                sampler = engine._new_sampler(vertex)
                engine._samplers[vertex] = sampler
            sampler.insert(dst, bias)
            stats.insertions += 1
        engine.breakdown.add(PHASE_INSERT, time.perf_counter() - insert_start)

        rebuild_start = time.perf_counter()
        if sampler is not None:
            if len(sampler) == 0:
                engine._samplers.pop(vertex, None)
            else:
                sampler.rebuild()
            stats.rebuilds += 1
        engine.breakdown.add(PHASE_REBUILD, time.perf_counter() - rebuild_start)

    stats.kernel_launches += 1
    stats.parallel_steps += -(-len(grouped) // DEVICE_LANES)
    engine.batch_stats.merge(stats)
    engine.updates_applied += len(updates)
