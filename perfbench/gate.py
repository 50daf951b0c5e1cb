"""The correctness gate: every reply checked, a sample replayed edge by edge.

A run fails instead of printing numbers when any check here fails:

* every walk reply has one row per start, its ``starts`` column, vertex
  ids in range, ``-1`` padding only at the tail of a row, and the step
  count its header claims;
* a seeded sample of replies (at least one per epoch) is checked edge by
  edge against the generator's own replay of batches ``1..epoch``, which
  is what snapshot isolation promises;
* at the end ``/v1/stats`` reconciles with what the generator sent, and
  no request went unanswered.
"""

from __future__ import annotations

import numpy as np

from inputs import Batch, Graph, Request

#: Violations kept verbatim; later ones are only counted.
MAX_REPORTED = 20


class Gate:
    def __init__(self, num_vertices: int, seed: int, sample_share: float) -> None:
        self.num_vertices = num_vertices
        self.sample_share = sample_share
        self.violations: list[str] = []
        self.violation_count = 0
        self.samples: list[tuple[int, np.ndarray]] = []
        self.steps_replayed = 0
        self._sampled_epochs: set[int] = set()
        self._rng = np.random.default_rng([int(seed), 7])

    def fail(self, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_REPORTED:
            self.violations.append(message)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def check_walks(self, request: Request, epoch: int, matrix: np.ndarray, steps: int) -> None:
        kind = request.query
        starts = request.starts
        label = f"{kind.application} reply at epoch {epoch}"
        if (
            matrix.ndim != 2
            or matrix.shape[0] != len(starts)
            or not 1 <= matrix.shape[1] <= kind.max_width()
        ):
            self.fail(f"{label}: shape {matrix.shape} for {len(starts)} starts")
            return
        if epoch < 0:
            self.fail(f"{label}: no epoch stamp")
        if not np.array_equal(matrix[:, 0], starts):
            self.fail(f"{label}: first column is not the requested starts")
        if ((matrix < -1) | (matrix >= self.num_vertices)).any():
            self.fail(f"{label}: vertex id out of range")
        pad = matrix < 0
        if (pad[:, :-1] & ~pad[:, 1:]).any():
            self.fail(f"{label}: -1 padding followed by a vertex")
        if int((~pad).sum()) - len(starts) != steps:
            self.fail(f"{label}: header claims {steps} steps")
        if epoch not in self._sampled_epochs or self._rng.random() < self.sample_share:
            self._sampled_epochs.add(epoch)
            self.samples.append((epoch, np.array(matrix)))

    def replay(self, graph: Graph, batches: list[Batch]) -> None:
        """Check each sampled walk against the graph of the epoch it names."""
        width = self.num_vertices
        live = set((graph.src * width + graph.dst).tolist())
        applied = 0
        for epoch, matrix in sorted(self.samples, key=lambda sample: sample[0]):
            if epoch > len(batches):
                self.fail(f"reply stamped epoch {epoch}; only {len(batches)} batches exist")
                continue
            while applied < epoch:
                batch = batches[applied]
                keys = (batch.src * width + batch.dst).tolist()
                for key, insert in zip(keys, batch.insert.tolist()):
                    if insert:
                        live.add(key)
                    else:
                        live.discard(key)
                applied += 1
            step = matrix[:, 1:] >= 0
            keys = (matrix[:, :-1][step] * width + matrix[:, 1:][step]).tolist()
            self.steps_replayed += len(keys)
            missing = [key for key in keys if key not in live]
            if missing:
                src, dst = divmod(missing[0], width)
                self.fail(
                    f"walk at epoch {epoch} takes {len(missing)} steps over edges "
                    f"absent from that epoch, e.g. {src}->{dst}"
                )

    def reconcile(
        self,
        stats: dict,
        *,
        queries_ok: int,
        batches: int,
        updates: int,
        unanswered: int,
    ) -> None:
        """The server's own counters against what the generator sent."""
        if unanswered:
            self.fail(f"{unanswered} requests were never answered")
        expected = {
            "queries_served": queries_ok,
            "updates_applied": updates,
            "epochs_published": batches,
            "batches_ingested": batches,
        }
        for key, want in expected.items():
            if stats.get(key) != want:
                self.fail(f"/v1/stats {key} = {stats.get(key)}, generator expects {want}")
        if stats.get("dead_letter"):
            self.fail(f"dead-lettered batches: {stats['dead_letter']}")
