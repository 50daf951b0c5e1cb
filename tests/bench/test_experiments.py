"""Smoke tests for the per-table / per-figure experiment functions.

These run every experiment at a very small scale and check the *structure*
of the outputs plus the qualitative relationships the paper reports (who is
faster / smaller).  The full-scale numbers live in EXPERIMENTS.md and the
pytest-benchmark targets.
"""

import numpy as np
import pytest

from repro.bench import experiments
from repro.bench.harness import EvaluationSettings


class TestTable1:
    def test_rows_cover_all_samplers_and_degrees(self):
        rows = experiments.table1_complexity(degrees=(8, 64), samples_per_degree=30)
        samplers = {row.sampler for row in rows}
        assert samplers == {"bingo", "alias", "its", "rejection"}
        assert {row.degree for row in rows} == {8, 64}

    def test_bingo_update_cost_stays_flat_while_alias_grows(self):
        rows = experiments.table1_complexity(degrees=(16, 256), samples_per_degree=30)
        by_key = {(r.sampler, r.degree): r for r in rows}
        alias_growth = by_key[("alias", 256)].insert_ops / by_key[("alias", 16)].insert_ops
        bingo_growth = by_key[("bingo", 256)].insert_ops / by_key[("bingo", 16)].insert_ops
        assert alias_growth > 4.0           # O(d) rebuild per insertion
        assert bingo_growth < alias_growth  # O(K) is much flatter

    def test_bingo_sampling_is_constant_ish(self):
        rows = experiments.table1_complexity(degrees=(16, 256), samples_per_degree=50)
        by_key = {(r.sampler, r.degree): r for r in rows}
        ratio = by_key[("bingo", 256)].sample_ops / by_key[("bingo", 16)].sample_ops
        assert ratio < 3.0


class TestTable2:
    def test_all_datasets_reported(self):
        rows = experiments.table2_datasets(seed=3)
        assert len(rows) == 5
        for row in rows:
            assert row["paper_edges"] > row["standin_edges"]
            assert row["standin_vertices"] > 0


class TestTable3:
    def test_reduced_sweep_structure_and_speedups(self):
        settings = EvaluationSettings(batch_size=40, num_batches=1, walk_length=4, num_walkers=8)
        results = experiments.table3_sota(
            datasets=("AM",),
            applications=("deepwalk",),
            workloads=("mixed",),
            settings=settings,
        )
        assert len(results) == 4  # one per engine
        speedups = experiments.table3_speedups(results)
        assert set(speedups) == {"knightking", "gsampler", "flowwalker"}
        assert all(value > 0 for value in speedups.values())


class TestTable4:
    def test_conversion_ratios_are_small(self):
        report = experiments.table4_conversion(dataset="AM", batch_size=60, num_batches=2)
        assert report["observations"] > 0
        assert 0.0 <= report["max_ratio"] <= 1.0
        assert set(report["matrix"]) == {"dense", "one-element", "sparse", "regular"}


class TestFigure9:
    def test_distribution_shapes(self):
        ratios = experiments.fig9_group_ratio(num_groups=8, num_edges=5000)
        assert set(ratios) == {"uniform", "gauss", "power-law"}
        for series in ratios.values():
            assert len(series) == 8
            assert all(0.0 <= value <= 1.0 for value in series)
        # Power-law biases concentrate in low groups: high groups are sparser.
        power = ratios["power-law"]
        assert power[0] > power[7]
        # Uniform biases populate every bit position roughly equally.
        uniform = ratios["uniform"]
        assert max(uniform[:7]) - min(uniform[:7]) < 0.2


class TestFigure11:
    def test_ga_saves_memory_on_every_dataset(self):
        report = experiments.fig11_memory(datasets=("AM", "GO"), seed=5)
        for entry in report.values():
            assert entry["ga_total_bytes"] < entry["bs_total_bytes"]
            assert entry["overall_saving_factor"] > 1.0
            ratios = entry["group_kind_ratios"]
            assert ratios and abs(sum(ratios.values()) - 1.0) < 1e-9


class TestFigure12:
    def test_batched_beats_streaming_under_the_device_model(self):
        report = experiments.fig12_batched_updates(
            datasets=("AM",), workloads=("mixed",), batch_size=150, num_batches=1
        )
        entry = report["mixed"]["AM"]
        assert entry["batched_updates_per_second"] > 0
        assert entry["streaming_updates_per_second"] > 0
        # Parallel ingestion of a whole batch collapses to a handful of
        # modelled kernel steps, which is where the paper's ~1000x lives.
        assert entry["modelled_parallel_speedup"] > 10.0
        # The host wall clock cannot show the parallelism, but batching must
        # not be dramatically slower than streaming either.
        assert entry["wall_clock_speedup"] > 0.5

    def test_each_batch_is_one_modelled_step_below_the_lane_count(self):
        report = experiments.fig12_batched_updates(
            datasets=("AM",), workloads=("insertion",), batch_size=120, num_batches=2
        )
        # 120 updates touch far fewer than DEVICE_LANES vertices, so each
        # batch is one modelled step: 240 updates over 2 steps.
        assert report["insertion"]["AM"]["modelled_parallel_speedup"] == 120.0


class TestFigure13:
    def test_breakdown_phases_present(self):
        report = experiments.fig13_breakdown(
            datasets=("AM",), batch_size=60, num_batches=1, num_samples=300
        )
        for label in ("BS", "GA"):
            phases = report["AM"][label]
            assert set(phases) == {"insert_delete", "rebuild", "sampling"}
            assert phases["sampling"] > 0


class TestIngestThroughput:
    def test_reports_both_paths_per_engine(self):
        report = experiments.ingest_throughput(
            dataset="AM", batch_size=60, num_batches=1, num_walkers=16,
            walk_length=4, repeats=1,
        )
        assert report["dataset"] == "AM"
        assert report["total_updates"] == 60
        engines = report["engines"]
        assert set(engines) == set(experiments.SOTA_ENGINES)
        for entry in engines.values():
            assert entry["columnar_updates_per_second"] > 0
            assert entry["streaming_updates_per_second"] > 0
            assert entry["ingest_while_walking_updates_per_second"] > 0
            assert entry["walk_steps_per_second"] > 0
            assert entry["columnar_vs_streaming"] > 0

    def test_batch_size_clamped_to_dataset(self):
        report = experiments.ingest_throughput(
            dataset="AM", batch_size=10**9, num_batches=2, num_walkers=8,
            walk_length=3, repeats=1, engines=("bingo",),
        )
        assert report["batch_size"] * report["num_batches"] <= 4_000_000
        assert report["total_updates"] == report["batch_size"] * report["num_batches"]


class TestFigure14:
    def test_float_bias_overhead_is_modest(self):
        report = experiments.fig14_float_bias(
            datasets=("AM",), batch_size=60, num_batches=1, num_samples=300
        )
        entry = report["AM"]
        assert entry["floating-point"]["lam"] >= entry["integer"]["lam"]
        assert entry["floating-point"]["memory_bytes"] >= entry["integer"]["memory_bytes"]
        # The paper reports ~1.02x time and ~1.08x memory; allow generous slack.
        assert entry["floating-point"]["time_seconds"] < 10 * entry["integer"]["time_seconds"]


class TestFigure15:
    def test_batch_size_sweep(self):
        report = experiments.fig15_batch_size_sweep(
            dataset="AM", batch_sizes=(50, 100), total_updates=200
        )
        assert set(report) == {50, 100}
        for row in report.values():
            assert set(row) == {"gsampler", "bingo"}

    def test_walk_length_sweep_grows_with_length(self):
        # Best-of-2 sweeps: a scheduler stall during the short-walk leg can
        # otherwise inflate its lone measurement past the ratio bound.
        reports = [
            experiments.fig15_walk_length_sweep(dataset="AM", walk_lengths=(3, 12))
            for _ in range(2)
        ]
        assert reports[0][12]["bingo"] > 0
        short = min(report[3]["gsampler"] for report in reports)
        long = min(report[12]["gsampler"] for report in reports)
        assert long >= short * 0.5

    def test_bias_distribution_sweep(self):
        report = experiments.fig15_bias_distribution(
            dataset="AM", batch_size=60, num_batches=1, num_samples=200
        )
        assert set(report) == {"uniform", "gauss", "power-law"}
        for entry in report.values():
            assert entry["time_seconds"] > 0
            assert entry["memory_bytes"] > 0


class TestFigure16:
    def test_piecewise_breakdown(self):
        report = experiments.fig16_piecewise(datasets=("AM",), num_updates=150, num_samples=200)
        entry = report["AM"]
        assert entry["bingo_insert_seconds"] > 0
        assert entry["bingo_delete_seconds"] > 0
        assert entry["bingo_sampling_seconds"] > 0
        assert entry["flowwalker_sampling_seconds"] > 0
        # Bingo's per-sample cost beats FlowWalker's O(d) scan.
        assert entry["bingo_sampling_seconds"] < entry["flowwalker_sampling_seconds"] * 5


class TestScaleWorkers:
    def test_scaling_curve_structure(self):
        report = experiments.scale_workers(
            dataset="AM",
            engines=("bingo", "flowwalker"),
            worker_counts=(1, 2),
            walk_length=3,
            num_walkers=64,
            rounds=1,
        )
        assert report["worker_counts"] == [1, 2]
        assert report["num_walkers"] == 64
        for engine in ("bingo", "flowwalker"):
            rows = report["engines"][engine]
            assert set(rows) == {1, 2}
            for row in rows.values():
                assert row["steps"] > 0
                assert row["steps_per_second"] > 0
                assert row["critical_path_seconds"] > 0
                assert row["balance"] >= 1.0
            assert rows[1]["speedup_vs_1"] == pytest.approx(1.0)
            assert rows[2]["edge_cut"] > 0
            assert rows[1]["transfer_rate"] == 0.0
            assert 0.0 < rows[2]["transfer_rate"] < 1.0

    def test_rejects_bad_configuration(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            experiments.scale_workers(worker_counts=())
        with pytest.raises(BenchmarkError):
            experiments.scale_workers(worker_counts=(0, 2))
        with pytest.raises(BenchmarkError):
            experiments.scale_workers(rounds=0)


class TestCrossOwnerSteps:
    """Walker hand-offs counted from a -1-padded walk matrix."""

    @staticmethod
    def _per_step(matrix, owner, num_parts):
        def part(vertex):
            return owner[vertex] if vertex < len(owner) else vertex % num_parts

        return sum(
            part(row[j]) != part(row[j + 1])
            for row in matrix.tolist()
            for j in range(len(row) - 1)
            if row[j + 1] >= 0
        )

    def test_counts_only_steps_that_change_owner(self):
        matrix = np.array([[0, 1, 2, 3], [2, 3, -1, -1], [3, -1, -1, -1]])
        owner = np.array([0, 0, 1, 1])
        assert experiments.cross_owner_steps(matrix, owner, 2) == 1

    def test_vertices_past_the_owner_column_are_round_robin(self):
        matrix = np.array([[1, 3, 4, 6]])
        # 1 -> part 0 (owner column); 3 -> 1; 4 -> 0; 6 -> 0.
        assert experiments.cross_owner_steps(matrix, np.array([0, 0]), 2) == 2
        # No owner column: 1 -> 1; 3 -> 1; 4 -> 0; 6 -> 0.
        no_owner = np.array([], dtype=np.int64)
        assert experiments.cross_owner_steps(matrix, no_owner, 2) == 1

    def test_matches_a_per_step_count(self):
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 30, size=(40, 9))
        lengths = rng.integers(1, 10, size=40)
        matrix[np.arange(9) >= lengths[:, None]] = -1
        owner = rng.integers(0, 3, size=24)
        expected = self._per_step(matrix, owner.tolist(), 3)
        assert experiments.cross_owner_steps(matrix, owner, 3) == expected

    def test_one_part_has_no_transfers(self):
        matrix = np.array([[0, 5, 2], [1, -1, -1]])
        assert experiments.cross_owner_steps(matrix, np.zeros(3, dtype=np.int64), 1) == 0


class TestHarnessWorkers:
    def test_run_evaluation_with_shard_parallel_walks(self):
        from repro.bench.harness import run_evaluation

        settings = EvaluationSettings(
            batch_size=40,
            num_batches=2,
            walk_length=4,
            num_walkers=16,
            frontier_walks=True,
            workers=2,
        )
        result = run_evaluation("bingo", "AM", "deepwalk", settings=settings, rng=3)
        assert result.total_walk_steps > 0
        assert result.total_updates == 80

    def test_run_evaluation_rejects_zero_workers(self):
        from repro.bench.harness import run_evaluation

        settings = EvaluationSettings(workers=0)
        with pytest.raises(ValueError):
            run_evaluation("bingo", "AM", "deepwalk", settings=settings, rng=3)

    def test_run_evaluation_rejects_workers_without_frontier(self):
        from repro.bench.harness import run_evaluation

        settings = EvaluationSettings(workers=2, frontier_walks=False)
        with pytest.raises(ValueError):
            run_evaluation("bingo", "AM", "deepwalk", settings=settings, rng=3)
