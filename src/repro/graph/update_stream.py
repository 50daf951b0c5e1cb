"""Dynamic-update stream generation.

Section 6.1 of the paper describes the workload-construction recipe used by
every experiment:

1. split the original edge set into A (initial graph) and B (a reserve of
   ``10 * BATCHSIZE`` edges),
2. repeatedly flip a coin to decide insert vs. delete,
3. an insertion draws an edge from B and adds it to A, a deletion removes a
   random edge currently in A,
4. repeat ``10 * BATCHSIZE`` times, giving ten batches of BATCHSIZE updates.

Three workload flavours are evaluated: "Insertion", "Deletion" and "Mixed".
:func:`generate_update_stream` reproduces the recipe, and
:class:`UpdateStream` packages the batches together with the initial graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.errors import UpdateError
from repro.graph.dynamic_graph import DynamicGraph, Edge
from repro.graph.update_batch import GraphUpdate, UpdateBatch, UpdateKind
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "GraphUpdate",
    "UpdateBatch",
    "UpdateKind",
    "UpdateStream",
    "UpdateWorkload",
    "generate_update_stream",
    "split_initial_and_updates",
]


class UpdateWorkload(str, enum.Enum):
    """Workload flavours from the paper's evaluation."""

    INSERTION = "insertion"
    DELETION = "deletion"
    MIXED = "mixed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class UpdateStream:
    """An initial graph plus an ordered sequence of update batches.

    Batches are stored columnar (:class:`UpdateBatch`); each batch still
    behaves like a sequence of :class:`GraphUpdate` records.
    """

    initial_graph: DynamicGraph
    batches: list[UpdateBatch] = field(default_factory=list)
    workload: UpdateWorkload = UpdateWorkload.MIXED

    @property
    def num_batches(self) -> int:
        """Number of update batches."""
        return len(self.batches)

    @property
    def num_updates(self) -> int:
        """Total number of updates across all batches."""
        return sum(len(batch) for batch in self.batches)

    def all_updates(self) -> Iterator[GraphUpdate]:
        """Iterate updates across batches in order."""
        for batch in self.batches:
            yield from batch

    def final_graph(self) -> DynamicGraph:
        """A copy of the initial graph with every batch applied, in order."""
        graph = self.initial_graph.copy()
        for batch in self.batches:
            graph.apply_batch(batch)
        return graph


def split_initial_and_updates(
    graph: DynamicGraph,
    reserve_edges: int,
    *,
    rng: RandomSource = None,
) -> tuple[DynamicGraph, list[Edge]]:
    """Split ``graph`` into an initial graph (set A) and a reserve edge pool (set B).

    ``reserve_edges`` edges are removed uniformly at random from the graph and
    returned as the pool future insertions will draw from, mirroring step (i)
    of the paper's workload recipe.  An undirected edge is one candidate,
    not two arcs.
    """
    generator = ensure_rng(rng)
    all_edges = _logical_edges(graph)
    if reserve_edges > len(all_edges):
        raise ValueError(
            f"cannot reserve {reserve_edges} edges from a graph with only "
            f"{len(all_edges)} edges"
        )
    generator.shuffle(all_edges)
    reserve = all_edges[:reserve_edges]
    initial = graph.copy()
    for edge in reserve:
        initial.remove_edge(edge.src, edge.dst)
    return initial, reserve


def _logical_edges(graph: DynamicGraph) -> list[Edge]:
    """Every edge once: an undirected edge as its ``src <= dst`` arc."""
    if not graph.undirected:
        return list(graph.edges())
    return [edge for edge in graph.edges() if edge.src <= edge.dst]


def generate_update_stream(
    graph: DynamicGraph,
    *,
    batch_size: int,
    num_batches: int = 10,
    workload: UpdateWorkload | str = UpdateWorkload.MIXED,
    rng: RandomSource = None,
) -> UpdateStream:
    """Generate a paper-style update stream from an existing graph.

    Parameters
    ----------
    graph:
        The full graph; a reserve of ``num_batches * batch_size`` edges is
        carved out for insertions (for insertion/mixed workloads).
    batch_size:
        Number of updates per batch (the paper's BATCHSIZE, 100K by default
        there; scaled down here).
    num_batches:
        Number of batches (10 in the paper).
    workload:
        ``insertion``, ``deletion`` or ``mixed``.
    """
    check_positive_int(batch_size, "batch_size")
    check_positive_int(num_batches, "num_batches")
    workload = UpdateWorkload(workload)
    generator = ensure_rng(rng)
    total_updates = batch_size * num_batches

    if workload is UpdateWorkload.DELETION:
        reserve: list[Edge] = []
        initial = graph.copy()
    else:
        initial, reserve = split_initial_and_updates(graph, total_updates, rng=generator)

    # Track the live edge set of A so deletions always pick an existing edge
    # and insertions never duplicate one.
    live_edges: list[Edge] = _logical_edges(initial)
    live_keys = {(edge.src, edge.dst) for edge in live_edges}

    def pick_live_index() -> int:
        # Swap-with-last removal keeps this O(1); skip stale entries lazily.
        while True:
            index = generator.randrange(len(live_edges))
            edge = live_edges[index]
            if (edge.src, edge.dst) in live_keys:
                return index
            live_edges[index] = live_edges[-1]
            live_edges.pop()

    batches: list[UpdateBatch] = []
    timestamp = 0
    reserve_cursor = 0
    for _ in range(num_batches):
        batch: list[GraphUpdate] = []
        for _ in range(batch_size):
            if workload is UpdateWorkload.INSERTION:
                do_insert = True
            elif workload is UpdateWorkload.DELETION:
                do_insert = False
            else:
                do_insert = generator.random() < 0.5
                if do_insert and reserve_cursor >= len(reserve):
                    do_insert = False
                if not do_insert and not live_keys:
                    do_insert = True

            if do_insert:
                if reserve_cursor >= len(reserve):
                    raise UpdateError("insertion reserve exhausted; reduce batch size")
                edge = reserve[reserve_cursor]
                reserve_cursor += 1
                batch.append(
                    GraphUpdate(UpdateKind.INSERT, edge.src, edge.dst, edge.bias, timestamp)
                )
                live_edges.append(edge)
                live_keys.add((edge.src, edge.dst))
            else:
                if not live_keys:
                    raise UpdateError("no live edges remain to delete; reduce batch size")
                index = pick_live_index()
                edge = live_edges[index]
                live_edges[index] = live_edges[-1]
                live_edges.pop()
                live_keys.remove((edge.src, edge.dst))
                batch.append(
                    GraphUpdate(UpdateKind.DELETE, edge.src, edge.dst, edge.bias, timestamp)
                )
            timestamp += 1
        batches.append(UpdateBatch.from_updates(batch))

    return UpdateStream(initial_graph=initial, batches=batches, workload=workload)
