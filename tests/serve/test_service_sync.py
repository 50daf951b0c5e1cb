"""Sync-mode equivalence: the serve layer must not perturb walk results.

The acceptance bar for the serve layer is that its single-threaded sync
mode is **bitwise identical** to the serial frontier drivers for every
engine and every application — same update batches, same walk seeds, same
dense walk matrices.  That makes the concurrent mode auditable: it runs
the exact same ingest/query code, just overlapped.
"""

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.engines import compiled
from repro.engines.registry import create_engine, engine_names
from repro.errors import ServeError
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.serve import GraphService
from repro.walks.frontier import (
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)


@pytest.fixture(scope="module")
def stream():
    graph = build_dataset("AM", rng=7)
    return generate_update_stream(
        graph,
        batch_size=80,
        num_batches=2,
        workload=UpdateWorkload.MIXED,
        rng=7,
    )


STARTS = [1, 2, 3, 4, 5, 6]
LENGTH = 6


def _reference_walk(engine, application, seed):
    if application == "deepwalk":
        return run_frontier_deepwalk(engine, STARTS, LENGTH, rng=seed)
    if application == "ppr":
        return run_frontier_ppr(
            engine,
            STARTS,
            termination_probability=1.0 / LENGTH,
            max_steps=4 * LENGTH,
            rng=seed,
        )
    return run_frontier_node2vec(engine, STARTS, LENGTH, p=0.5, q=2.0, rng=seed)


@pytest.mark.parametrize("engine_name", engine_names())
@pytest.mark.parametrize("application", ["deepwalk", "ppr", "node2vec"])
def test_sync_mode_bitwise_identical_to_serial_frontier(
    stream, engine_name, application
):
    service = GraphService(engine_name, stream.initial_graph, rng=11, sync=True)
    reference = create_engine(engine_name, rng=11)
    reference.build(stream.initial_graph.copy())
    try:
        for round_index, batch in enumerate(stream.batches):
            service.ingest(batch)
            reference.apply_batch(batch)
            seed = 100 + round_index
            served = service.query(application, STARTS, LENGTH, rng=seed)
            expected = _reference_walk(reference, application, seed)
            assert np.array_equal(served.walks.matrix, expected.matrix)
            assert served.epoch == round_index + 1
    finally:
        service.close()


@pytest.mark.parametrize("engine_name", engine_names())
def test_stats_report_the_frontier_kernel(stream, engine_name, monkeypatch):
    fused = engine_name != "flowwalker"
    service = GraphService(engine_name, stream.initial_graph, rng=11, sync=True)
    try:
        expected = compiled.kernel_name() if fused else "numpy"
        assert service.stats_snapshot()["frontier_kernel"] == expected
        monkeypatch.setattr(compiled, "load", lambda: None)
        assert service.stats_snapshot()["frontier_kernel"] == "numpy"
    finally:
        service.close()


def test_sync_mode_interleaves_queries_between_every_batch(stream):
    # A query between every pair of batches sees exactly the prefix state.
    service = GraphService("bingo", stream.initial_graph, rng=13, sync=True)
    reference = create_engine("bingo", rng=13)
    reference.build(stream.initial_graph.copy())
    try:
        before = service.query("deepwalk", STARTS, LENGTH, rng=5)
        expected = run_frontier_deepwalk(reference, STARTS, LENGTH, rng=5)
        assert np.array_equal(before.walks.matrix, expected.matrix)
        assert before.epoch == 0
        for batch in stream.batches:
            service.ingest(batch)
            reference.apply_batch(batch)
        after = service.query("deepwalk", STARTS, LENGTH, rng=6)
        expected = run_frontier_deepwalk(reference, STARTS, LENGTH, rng=6)
        assert np.array_equal(after.walks.matrix, expected.matrix)
    finally:
        service.close()


def test_sync_submit_many_keeps_per_query_rng(stream):
    """A sync wave never fuses: each query runs alone with its own seed."""
    from repro.serve import WalkQuery

    service = GraphService("bingo", stream.initial_graph, rng=11, sync=True)
    reference = create_engine("bingo", rng=11)
    reference.build(stream.initial_graph.copy())
    try:
        tickets = service.submit_many(
            [
                WalkQuery("deepwalk", STARTS, LENGTH, rng=21),
                WalkQuery("deepwalk", STARTS, LENGTH, rng=22),
            ]
        )
        for ticket, seed in zip(tickets, (21, 22)):
            expected = run_frontier_deepwalk(reference, STARTS, LENGTH, rng=seed)
            assert np.array_equal(ticket.result().walks.matrix, expected.matrix)
            assert ticket.result().fused_with == 1
    finally:
        service.close()


def test_rejects_unknown_application(stream):
    with GraphService("bingo", stream.initial_graph, rng=11, sync=True) as service:
        with pytest.raises(ServeError, match="unknown application"):
            service.query("pagerank", STARTS, LENGTH)


def test_concurrent_service_requires_integer_seed(stream):
    import random

    with pytest.raises(ServeError, match="integer engine seed"):
        GraphService("bingo", stream.initial_graph, rng=random.Random(3))


def test_closed_service_rejects_work(stream):
    service = GraphService("bingo", stream.initial_graph, rng=11, sync=True)
    service.close()
    with pytest.raises(ServeError, match="closed"):
        service.ingest(stream.batches[0])
    with pytest.raises(ServeError, match="closed"):
        service.submit("deepwalk", STARTS, LENGTH)
