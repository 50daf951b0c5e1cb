"""Tests of the benchmark's own machinery (no server is started).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import numpy as np
import pytest

from gate import Gate
from inputs import (
    PHASE_A_SHARE,
    PHASE_B_ROUNDS,
    WORKLOADS,
    ChurnGenerator,
    Graph,
    QueryKind,
    build_graph,
    make_plan,
    poisson_arrivals,
    query_request,
)
from loadgen import ResponseParser
from measure import InsufficientSamples, percentile
from report import SpanTable


# --------------------------------------------------------------------------- #
# schedules and plans
# --------------------------------------------------------------------------- #
def test_poisson_schedule_is_determined_by_the_seed():
    first = poisson_arrivals(200.0, 5.0, np.random.default_rng([3, 1]))
    again = poisson_arrivals(200.0, 5.0, np.random.default_rng([3, 1]))
    other = poisson_arrivals(200.0, 5.0, np.random.default_rng([4, 1]))
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first[:50], other[:50])
    assert np.all(np.diff(first) > 0) and first[-1] < 5.0
    assert 800 < len(first) < 1200  # 1000 expected; 6 standard deviations


def test_plan_bytes_are_determined_by_the_seed():
    workload = WORKLOADS["ingest-stream"]
    one, two = make_plan(workload, 5, 2.0), make_plan(workload, 5, 2.0)
    for a, b in zip(one.phase_a, two.phase_a, strict=True):
        assert [(due, r.payload) for due, r in a] == [(due, r.payload) for due, r in b]
    b_one = [r for rounds in one.phase_b for r in rounds]
    assert [r.payload for r in b_one] == [r.payload for rounds in two.phase_b for r in rounds]
    assert len(one.phase_a) == len(one.phase_b) == PHASE_B_ROUNDS
    # Send order: A segment 0, B round 0, A segment 1, ...
    sent = list(one.warmup)
    for segment, rounds in zip(one.phase_a, one.phase_b):
        assert all(0 <= due < 2.0 * PHASE_A_SHARE / PHASE_B_ROUNDS for due, _ in segment)
        sent += [r for _, r in segment] + rounds
        assert b'"flush": true' in rounds[-1].payload
        assert sum(b'"flush": true' in r.payload for r in rounds) == 1
    numbers = [r.batch for r in sent if r.kind == "ingest"]
    assert numbers == list(range(1, len(one.batches) + 1))


# --------------------------------------------------------------------------- #
# churn
# --------------------------------------------------------------------------- #
def test_churn_is_stationary_and_valid():
    graph = build_graph("LJ", np.random.default_rng(0))
    churn = ChurnGenerator(graph, pool_share=0.1, rng=np.random.default_rng(1))
    initial = churn.initial_graph()
    width = graph.num_vertices
    live = set((initial.src * width + initial.dst).tolist())
    live_count, pool_count = churn.live_count, churn.pool_count
    for number in range(400):
        batch = churn.next_batch(1024 if number % 50 == 0 else 32)
        keys = (batch.src * width + batch.dst).tolist()
        assert len(set(keys)) == len(keys), "an edge is touched twice in one batch"
        assert batch.insert.sum() == len(batch) // 2
        for key, insert in zip(keys, batch.insert.tolist()):
            if insert:
                assert key not in live
                live.add(key)
            else:
                live.remove(key)
        assert (churn.live_count, churn.pool_count) == (live_count, pool_count)
        assert len(live) == live_count
    assert np.all(batch.bias >= 1)


# --------------------------------------------------------------------------- #
# the percentile rule
# --------------------------------------------------------------------------- #
def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == pytest.approx(np.percentile(range(1000), 99))
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


# --------------------------------------------------------------------------- #
# the correctness gate
# --------------------------------------------------------------------------- #
#: 0->1, 1->2, 2->0, 2->3; vertex 3 is a sink.
LINE = Graph(4, np.array([0, 1, 2, 2]), np.array([1, 2, 0, 3]), np.ones(4))
KIND = QueryKind("deepwalk", 2, 3, 1.0)


def _gate_with(matrix, epoch=0, steps=None):
    gate = Gate(LINE.num_vertices, seed=0, sample_share=1.0)
    request = query_request(KIND, np.array([0, 2]), "t")
    matrix = np.array(matrix, dtype=np.int64)
    if steps is None:
        steps = int((matrix >= 0).sum()) - len(matrix)
    gate.check_walks(request, epoch, matrix, steps)
    gate.replay(LINE, [])
    return gate


def test_gate_accepts_a_valid_walk():
    assert _gate_with([[0, 1, 2, 3], [2, 3, -1, -1]]).ok


@pytest.mark.parametrize(
    "matrix",
    [
        [[0, 1, 2, 0], [2, 1, -1, -1]],  # 2->1 is not an edge
        [[0, 1, 2, 3], [2, -1, 3, -1]],  # padding before a vertex
        [[1, 2, 3, -1], [2, 3, -1, -1]],  # wrong starts column
        [[0, 1, 2, 3, -1], [2, 3, -1, -1, -1]],  # wider than walk_length + 1
    ],
)
def test_gate_rejects_a_corrupted_walk(matrix):
    assert not _gate_with(matrix).ok


def test_gate_rejects_a_reply_from_an_epoch_never_published():
    assert not _gate_with([[0, 1, 2, 3], [2, 3, -1, -1]], epoch=1).ok


def test_gate_rejects_a_missing_reply_and_unreconciled_stats():
    stats = {"queries_served": 4, "updates_applied": 64, "epochs_published": 2,
             "batches_ingested": 2, "dead_letter": []}
    gate = Gate(4, seed=0, sample_share=0.0)
    gate.reconcile(stats, queries_ok=4, batches=2, updates=64, unanswered=0)
    assert gate.ok
    gate.reconcile(stats, queries_ok=4, batches=2, updates=64, unanswered=1)
    assert not gate.ok
    gate = Gate(4, seed=0, sample_share=0.0)
    gate.reconcile(stats, queries_ok=5, batches=2, updates=64, unanswered=0)
    assert not gate.ok


# --------------------------------------------------------------------------- #
# wire parsing and span accounting
# --------------------------------------------------------------------------- #
def test_response_parser_splits_pipelined_replies_at_any_boundary():
    stream = b"".join(
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        for body in (b"{}", b"x" * 300, b"")
    )
    parser = ResponseParser()
    replies = []
    for cut in range(0, len(stream), 7):
        replies += parser.feed(stream[cut : cut + 7])
    assert [len(reply.body) for reply in replies] == [2, 300, 0]


def test_self_time_subtracts_direct_children(tmp_path):
    # id, parent, name code, start, end, value
    spans = np.array(
        [
            [0, -1, 0, 100, 200, 0],  # outer: 100 ns, children cover 70
            [1, 0, 1, 110, 150, 5],
            [2, 0, 1, 160, 190, 7],
            [3, 1, 2, 120, 130, 0],  # grandchild: charged to span 1 only
        ]
    )
    path = tmp_path / "spans.npz"
    np.savez(
        path,
        spans=spans,
        names=np.array(["walks.deepwalk", "engine.sample_frontier", "core.rebuild_batch"]),
        queue_waits=np.zeros((0, 2), dtype=np.int64),
        drains=np.zeros((0, 3), dtype=np.int64),
        has_edge_calls=np.int64(0),
        memory_bytes=np.int64(0),
    )
    table = SpanTable(path, (0, 1000))
    assert table.total("walks.deepwalk", field="self_ns") == 30
    assert table.total("engine.sample_frontier", field="self_ns") == 60
    assert table.total("engine.sample_frontier", field="value") == 12
    assert table.total("core.", prefix=True) == 10
    windowed = SpanTable(path, (105, 1000))  # drops the span that began earlier
    assert windowed.count("walks.deepwalk") == 0
    assert windowed.total("engine.sample_frontier", field="self_ns") == 60
