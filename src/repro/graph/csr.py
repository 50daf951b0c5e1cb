"""Immutable CSR (compressed sparse row) snapshots of a dynamic graph.

The static baselines (KnightKing-style alias engines, gSampler-style ITS
engines, FlowWalker-style reservoir engines) rebuild their sampling state from
a frozen snapshot after every update round, exactly as the paper describes
("we reload or reconstruct the corresponding structure after each round of
updates").  The CSR form gives them a compact, cache-friendly substrate.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import VertexNotFoundError
from repro.graph.dynamic_graph import DynamicGraph, Edge


class CSRGraph:
    """A read-only CSR view of a weighted directed graph.

    Attributes
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; the out-edges of
        vertex ``v`` live in ``[offsets[v], offsets[v + 1])``.
    targets:
        ``int64`` array of destination vertices.
    biases:
        ``float64`` array of edge biases aligned with ``targets``.
    """

    __slots__ = ("offsets", "targets", "biases")

    def __init__(
        self,
        offsets: Sequence[int],
        targets: Sequence[int],
        biases: Sequence[float],
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.biases = np.asarray(biases, dtype=np.float64)
        if self.offsets.ndim != 1 or self.offsets.size == 0:
            raise ValueError("offsets must be a non-empty 1-D sequence")
        if self.targets.shape != self.biases.shape:
            raise ValueError("targets and biases must have matching shapes")
        if int(self.offsets[-1]) != self.targets.size:
            raise ValueError("offsets[-1] must equal the number of stored arcs")

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dynamic(cls, graph: DynamicGraph) -> CSRGraph:
        """Snapshot a :class:`DynamicGraph` into CSR form."""
        return cls(*graph.csr_columns())

    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the snapshot."""
        return int(self.offsets.size - 1)

    @property
    def num_arcs(self) -> int:
        """Number of stored directed arcs."""
        return int(self.targets.size)

    def _check_vertex(self, vertex: int) -> None:
        if not (0 <= vertex < self.num_vertices):
            raise VertexNotFoundError(vertex)

    def degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        self._check_vertex(vertex)
        return int(self.offsets[vertex + 1] - self.offsets[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbours of ``vertex`` as an ``int64`` array view."""
        self._check_vertex(vertex)
        return self.targets[self.offsets[vertex]: self.offsets[vertex + 1]]

    def neighbor_biases(self, vertex: int) -> np.ndarray:
        """Biases of the out-edges of ``vertex`` as a ``float64`` array view."""
        self._check_vertex(vertex)
        return self.biases[self.offsets[vertex]: self.offsets[vertex + 1]]

    def out_edges(self, vertex: int) -> Iterator[Edge]:
        """Iterate the out-edges of ``vertex``."""
        self._check_vertex(vertex)
        start, stop = int(self.offsets[vertex]), int(self.offsets[vertex + 1])
        for index in range(start, stop):
            yield Edge(vertex, int(self.targets[index]), float(self.biases[index]))

    def edges(self) -> Iterator[Edge]:
        """Iterate every stored arc."""
        for vertex in range(self.num_vertices):
            yield from self.out_edges(vertex)

    def total_bias(self, vertex: int) -> float:
        """Sum of out-edge biases of ``vertex``."""
        return float(self.neighbor_biases(vertex).sum())

    def max_degree(self) -> int:
        """Largest out-degree."""
        if self.num_vertices == 0:
            return 0
        return int(np.max(np.diff(self.offsets)))

    def average_degree(self) -> float:
        """Mean out-degree."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_arcs / self.num_vertices

    def memory_bytes(self) -> int:
        """Bytes occupied by the CSR arrays (used by the memory model)."""
        return int(self.offsets.nbytes + self.targets.nbytes + self.biases.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(vertices={self.num_vertices}, arcs={self.num_arcs})"
