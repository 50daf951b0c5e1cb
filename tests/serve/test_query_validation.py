"""The serve boundary rejects garbage start vertices instead of serving it.

Before this sweep, ``query("deepwalk", [9999], 4)`` happily returned
``[[9999, -1]]`` for a vertex that does not exist, negative ids returned
``[[-1, -1]]`` (indistinguishable from the retired-walker padding — the
same negative-index wrap class the fused kernels had), floats were
silently truncated, and empty start sets produced a ``(0, 1)`` matrix
instead of the declared ``(0, walk_length + 1)`` width.

Hyper-parameters are checked at the same boundary: a NaN node2vec ``p``
used to run every rejection round on the serving thread before failing,
and a string one failed inside the dispatcher as a wrapped ``TypeError``.
"""

import time

import numpy as np
import pytest

from repro.bench.datasets import build_dataset
from repro.errors import QueryValidationError, ServeError
from repro.serve import GraphService, RouterService, WalkQuery, validate_starts
from repro.walks.frontier import (
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)


@pytest.fixture(scope="module")
def graph():
    return build_dataset("AM", rng=7)


@pytest.fixture(params=[True, False], ids=["sync", "concurrent"])
def service(request, graph):
    svc = GraphService("bingo", graph, rng=13, sync=request.param)
    yield svc
    svc.close()


class TestStartVertexValidation:
    def test_out_of_range_vertex_is_rejected_naming_it(self, service):
        with pytest.raises(QueryValidationError, match="9999"):
            service.query("deepwalk", [9999], 4, timeout=30.0)

    def test_negative_vertex_is_rejected_naming_it(self, service):
        with pytest.raises(QueryValidationError, match="-3"):
            service.query("deepwalk", [0, -3], 4, timeout=30.0)

    def test_non_integral_floats_are_rejected_not_truncated(self, service):
        with pytest.raises(QueryValidationError, match="1.5"):
            service.query("deepwalk", [1.5], 4, timeout=30.0)

    def test_integral_floats_are_accepted_exactly(self, service):
        result = service.query("deepwalk", [2.0], 4, rng=5, timeout=30.0)
        assert result.walks.matrix[0, 0] == 2

    def test_non_numeric_starts_are_rejected(self, service):
        with pytest.raises(QueryValidationError):
            service.query("deepwalk", ["zero"], 4, timeout=30.0)

    def test_nested_starts_are_rejected(self, service):
        with pytest.raises(QueryValidationError):
            service.query("deepwalk", [[0, 1]], 4, timeout=30.0)

    def test_rejection_is_a_serve_error(self, service):
        # Callers catching the serve layer's base error still work.
        with pytest.raises(ServeError):
            service.query("deepwalk", [10**9], 4, timeout=30.0)

    def test_boundary_vertex_is_accepted(self, service, graph):
        last = graph.num_vertices - 1
        result = service.query("deepwalk", [last], 3, timeout=30.0)
        assert result.walks.matrix[0, 0] == last

    def test_vertex_created_by_published_batch_becomes_valid(self, graph):
        from repro.graph.update_batch import GraphUpdate, UpdateBatch, UpdateKind

        new_vertex = graph.num_vertices + 5
        service = GraphService("bingo", graph, rng=13)
        try:
            with pytest.raises(QueryValidationError):
                service.query("deepwalk", [new_vertex], 3, timeout=30.0)
            service.ingest(
                UpdateBatch.from_updates(
                    [GraphUpdate(UpdateKind.INSERT, new_vertex, 0, 1.0)]
                )
            )
            service.flush()
            result = service.query("deepwalk", [new_vertex], 3, timeout=30.0)
            assert result.walks.matrix[0, 0] == new_vertex
            assert result.walks.matrix[0, 1] == 0
        finally:
            service.close()

    def test_validate_starts_returns_plain_ints(self):
        out = validate_starts(np.array([3.0, 1.0]), 10)
        assert out == [3, 1]
        assert all(type(v) is int for v in out)

    def test_validate_starts_empty_is_fine(self):
        assert validate_starts([], 10) == []


class TestEmptyFrontierShape:
    def test_service_empty_query_preserves_walk_width(self, service):
        result = service.query("deepwalk", [], 6, timeout=30.0)
        assert result.walks.matrix.shape == (0, 7)
        assert result.walks.total_steps == 0

    def test_frontier_drivers_preserve_walk_width(self, graph):
        from repro.engines.registry import create_engine

        engine = create_engine("bingo", rng=3)
        engine.build(graph.copy())
        assert run_frontier_deepwalk(engine, [], 5, rng=1).matrix.shape == (0, 6)
        assert run_frontier_node2vec(
            engine, [], 5, p=0.5, q=2.0, rng=1
        ).matrix.shape == (0, 6)
        assert run_frontier_ppr(
            engine, [], termination_probability=0.2, max_steps=8, rng=1
        ).matrix.shape == (0, 9)

    def test_empty_rows_vstack_with_real_results(self, service):
        empty = service.query("deepwalk", [], 4, timeout=30.0).walks.matrix
        full = service.query("deepwalk", [0, 1], 4, rng=3, timeout=30.0).walks.matrix
        stacked = np.vstack([empty, full])
        assert stacked.shape == full.shape


#: Hyper-parameters ``WalkQuery`` rejects at submit, per application.
BAD_PARAMS = [
    ("node2vec", {"p": float("nan")}),
    ("node2vec", {"q": float("inf")}),
    ("node2vec", {"p": "2"}),
    ("node2vec", {"p": 0.0}),
    ("node2vec", {"q": -1}),
    ("node2vec", {"p": True}),
    ("ppr", {"termination_probability": 0.0}),
    ("ppr", {"termination_probability": 1.5}),
    ("ppr", {"termination_probability": float("nan")}),
    ("ppr", {"termination_probability": "0.2"}),
    ("ppr", {"max_steps": 0}),
    ("ppr", {"max_steps": 2.5}),
    ("ppr", {"max_steps": "8"}),
]


class TestHyperParameterValidation:
    @pytest.mark.parametrize("application, params", BAD_PARAMS)
    def test_walk_query_rejects_bad_params(self, application, params):
        with pytest.raises(QueryValidationError):
            WalkQuery(application, [0], 4, params=params)

    @pytest.mark.parametrize("application, params", BAD_PARAMS)
    def test_submit_rejects_before_any_walk(self, service, application, params):
        start = time.process_time()
        with pytest.raises(QueryValidationError):
            service.submit(application, [0, 1] * 64, 8, **params)
        assert time.process_time() - start < 0.1
        assert service.stats.queries_served == 0

    def test_valid_boundaries_are_served(self, service):
        ppr = service.query(
            "ppr", [0, 1], 4, timeout=30.0, termination_probability=1.0, max_steps=8.0
        )
        assert ppr.walks.matrix.shape[0] == 2
        node2vec = service.query("node2vec", [0, 1], 4, timeout=30.0, p=3, q=0.25)
        assert node2vec.walks.matrix.shape == (2, 5)

    def test_the_router_rejects_at_submit(self, graph):
        router = RouterService("bingo", graph, shards=1, rng=13)
        try:
            for application, params in BAD_PARAMS[:1] + BAD_PARAMS[-1:]:
                with pytest.raises(QueryValidationError):
                    router.submit(application, [0, 1], 8, **params)
            result = router.query("node2vec", [0, 1], 4, timeout=30.0, p=2.0, q=0.5)
            assert result.walks.matrix.shape == (2, 5)
        finally:
            router.close()
