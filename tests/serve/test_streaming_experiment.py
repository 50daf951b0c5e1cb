"""End-to-end wiring: harness serve knobs and the streaming experiment."""

import pytest

from repro.bench.experiments import streaming_serve
from repro.bench.harness import EvaluationSettings, run_evaluation


class TestHarnessServeKnobs:
    def test_serve_requires_frontier_walks(self):
        with pytest.raises(ValueError, match="frontier"):
            run_evaluation(
                "bingo",
                "AM",
                "deepwalk",
                settings=EvaluationSettings(serve=True),
                rng=5,
            )

    def test_serve_rejects_streaming_updates(self):
        with pytest.raises(ValueError, match="streaming"):
            run_evaluation(
                "bingo",
                "AM",
                "deepwalk",
                settings=EvaluationSettings(
                    serve=True, frontier_walks=True, streaming=True
                ),
                rng=5,
            )

    def test_serve_rejects_shard_parallel_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_evaluation(
                "bingo",
                "AM",
                "deepwalk",
                settings=EvaluationSettings(
                    serve=True, frontier_walks=True, workers=2
                ),
                rng=5,
            )

    @pytest.mark.parametrize("engine_name", ["bingo", "gsampler"])
    def test_serve_loop_matches_direct_frontier_loop(self, engine_name):
        """Routing the update-then-walk loop through the sync serve layer
        performs the identical walks (same seeds, same steps)."""
        base = EvaluationSettings(
            batch_size=60, num_batches=2, walk_length=6, num_walkers=16,
            frontier_walks=True,
        )
        direct = run_evaluation(engine_name, "AM", "deepwalk", settings=base, rng=5)
        served = run_evaluation(
            engine_name,
            "AM",
            "deepwalk",
            settings=EvaluationSettings(
                batch_size=60, num_batches=2, walk_length=6, num_walkers=16,
                frontier_walks=True, serve=True,
            ),
            rng=5,
        )
        assert served.total_walk_steps == direct.total_walk_steps
        assert served.total_updates == direct.total_updates
        assert served.memory_bytes == direct.memory_bytes


class TestStreamingServeExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return streaming_serve(
            dataset="AM",
            engines=("bingo",),
            batch_size=150,
            num_batches=2,
            walk_length=6,
            queries_per_round=3,
            walkers_per_query=32,
            seed=17,
        )

    def test_report_schema(self, report):
        for key in (
            "dataset", "application", "workload", "batch_size", "num_batches",
            "total_updates", "walk_length", "queries_per_round",
            "walkers_per_query", "total_queries", "note", "engines",
        ):
            assert key in report
        assert "workers" not in report
        assert report["total_queries"] == 6
        row = report["engines"]["bingo"]
        for key in (
            "alternation_seconds",
            "alternation_updates_per_second",
            "alternation_steps_per_second",
            "concurrent_modelled_seconds",
            "concurrent_wall_seconds",
            "updates_per_second",
            "steps_per_second",
            "concurrent_vs_alternation",
            "query_latency_p50_seconds",
            "query_latency_p99_seconds",
            "mean_fused_queries",
            "epochs_published",
        ):
            assert key in row

    def test_throughput_and_latency_fields_are_sane(self, report):
        row = report["engines"]["bingo"]
        assert row["updates_per_second"] > 0
        assert row["steps_per_second"] > 0
        assert row["alternation_seconds"] > 0
        assert row["concurrent_modelled_seconds"] > 0
        assert 0.0 <= row["query_latency_p50_seconds"] <= row["query_latency_p99_seconds"]
        assert 1.0 <= row["mean_fused_queries"] <= report["queries_per_round"]
        assert row["epochs_published"] == report["num_batches"]
        assert row["queries_served"] == report["total_queries"]

    def test_rejects_empty_query_workload(self):
        with pytest.raises(Exception, match="at least one query"):
            streaming_serve(dataset="AM", engines=("bingo",), queries_per_round=0)
