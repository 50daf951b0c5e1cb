"""Perf smoke test: columnar batch ingestion beats the per-edge paths.

Measures Bingo update-ingestion throughput on the LJ stand-in (paper
workflow: mixed insert/delete batches) through three paths:

* per-edge streaming (``apply_streaming``) — the pre-batching per-edge path,
* per-edge batched (``apply_batch_scalar`` of
  ``tests/engines/scalar_batch_oracle.py``) — the pre-columnar batch path,
* the columnar pipeline (``apply_batch``).

The columnar pipeline must ingest at least 3x faster than the per-edge
streaming path and clearly beat the legacy batched path.  Best-of-3 per
path, the paths interleaved; marked ``slow`` so it can be skipped with
``-m "not slow"``.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.datasets import build_dataset
from repro.engines.bingo import BingoEngine
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.utils.rng import ensure_rng
from repro.utils.timing import gc_paused
from tests.engines.scalar_batch_oracle import apply_batch_scalar


def _best_ingest_seconds(stream, paths, repeats: int = 3) -> dict[str, float]:
    """Best-of-``repeats`` ingest seconds per ``name -> (apply, batches)`` path.

    The paths take turns repeat by repeat, so a burst of host load lands on
    one run of each path instead of on every run of one path.  Each run has
    the collector paused: a full collection of the whole test session's
    heap can outlast the columnar path's entire run.
    """
    best = dict.fromkeys(paths, float("inf"))
    for _ in range(repeats):
        for name, (apply, batches) in paths.items():
            engine = BingoEngine(rng=32)
            engine.build(stream.initial_graph.copy())
            with gc_paused():
                start = time.perf_counter()
                for batch in batches:
                    apply(engine, batch)
                best[name] = min(best[name], time.perf_counter() - start)
    return best


@pytest.mark.slow
def test_columnar_ingest_3x_faster_than_per_edge_path():
    rng = ensure_rng(31)
    graph = build_dataset("LJ", rng=rng)
    stream = generate_update_stream(
        graph, batch_size=4000, num_batches=2, workload=UpdateWorkload.MIXED, rng=rng
    )
    scalar_batches = [list(batch) for batch in stream.batches]

    best = _best_ingest_seconds(
        stream,
        {
            "apply_streaming": (BingoEngine.apply_streaming, scalar_batches),
            "apply_batch_scalar": (apply_batch_scalar, scalar_batches),
            "apply_batch": (BingoEngine.apply_batch, stream.batches),
        },
    )
    streaming = best["apply_streaming"]
    legacy = best["apply_batch_scalar"]
    columnar = best["apply_batch"]

    total = stream.num_updates
    streaming_rate = total / streaming
    legacy_rate = total / legacy
    columnar_rate = total / columnar

    assert columnar_rate >= 3.0 * streaming_rate, (
        f"columnar only {columnar_rate / streaming_rate:.2f}x the per-edge "
        f"streaming path ({columnar_rate:.0f} vs {streaming_rate:.0f} updates/s)"
    )
    assert columnar_rate >= 1.15 * legacy_rate, (
        f"columnar only {columnar_rate / legacy_rate:.2f}x the legacy batched "
        f"path ({columnar_rate:.0f} vs {legacy_rate:.0f} updates/s)"
    )
