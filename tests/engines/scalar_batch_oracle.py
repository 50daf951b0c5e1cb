"""The per-edge batch path: the oracle for every engine's columnar ``apply_batch``.

``apply_batch_scalar(engine, updates)`` is Section 5.2's batch meaning
written as per-edge Python loops over the scalar graph mutators, one
vertex at a time: group the batch by source, normalize each vertex's
updates (``normalize_vertex_updates``: per destination the last
operation wins, insert-then-delete cancels, delete-then-insert updates
the bias), then delete and insert edge by edge.  The same meaning holds
on all four engines.  Afterwards Bingo marks the touched vertices dirty
(the next warm re-derives them), KnightKing and gSampler rebuild their
samplers, and FlowWalker reloads.  An undirected batch is the directed
batch of its mirrored arcs: the oracle applies those to a directed copy
of the graph's arcs and gives the engine the undirected graph of the
result.  ``normalize_vertex_updates`` is the per-destination replay that
``UpdateBatch.net_changes`` reproduces for a whole batch.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.engines.base import PHASE_DELETE, PHASE_INSERT, PHASE_REBUILD
from repro.engines.bingo import DEVICE_LANES, BatchStatistics, BingoEngine
from repro.engines.flowwalker import FlowWalkerEngine
from repro.graph.dynamic_graph import DynamicGraph
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
    graph = engine._require_graph()
    if graph.undirected:
        arcs = DynamicGraph.from_csr(*graph.csr_columns())
        mirrored = []
        for update in updates:
            mirrored.append(update)
            if update.src != update.dst:
                mirrored.append(
                    GraphUpdate(update.kind, update.dst, update.src, update.bias, update.timestamp)
                )
        touched, stats = _apply_per_vertex(engine, arcs, mirrored)
        engine.graph = DynamicGraph.from_csr(*arcs.csr_columns(), undirected=True)
    else:
        touched, stats = _apply_per_vertex(engine, graph, updates)
    if isinstance(engine, BingoEngine):
        engine.frontier_tables.mark_dirty(touched)
        engine.batch_stats.merge(stats)
    else:
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


def _apply_per_vertex(
    engine, graph: DynamicGraph, updates: Sequence[GraphUpdate]
) -> tuple[list[int], BatchStatistics]:
    """Section 5.2 per vertex on a directed ``graph``: normalize, then per-edge
    deletes and inserts.  Returns the touched sources and Bingo's counters."""
    grouped: dict[int, list[GraphUpdate]] = {}
    for update in updates:
        grouped.setdefault(update.src, []).append(update)
        graph.ensure_vertex(update.src)
        graph.ensure_vertex(update.dst)
    stats = BatchStatistics(
        touched_vertices=len(grouped),
        kernel_launches=1,
        parallel_steps=-(-len(grouped) // DEVICE_LANES),
    )
    for vertex, vertex_updates in grouped.items():
        existing = {
            update.dst for update in vertex_updates if graph.has_edge(vertex, update.dst)
        }
        insertions, deletions, cancelled = normalize_vertex_updates(
            vertex_updates, existing
        )
        stats.cancelled_pairs += cancelled
        if insertions or graph.degree(vertex):
            stats.rebuilds += 1

        delete_start = time.perf_counter()
        for dst in deletions:
            graph.remove_edge(vertex, dst)
            stats.deletions += 1
        engine.breakdown.add(PHASE_DELETE, time.perf_counter() - delete_start)

        insert_start = time.perf_counter()
        for dst, bias in insertions:
            graph.add_edge(vertex, dst, bias)
            stats.insertions += 1
        engine.breakdown.add(PHASE_INSERT, time.perf_counter() - insert_start)
    return list(grouped), stats
