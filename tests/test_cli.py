"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENT_RUNNERS, main


class TestList:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENT_RUNNERS:
            assert name in output


class TestRun:
    def test_run_fig9_json(self, capsys):
        assert main(["run", "fig9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"uniform", "gauss", "power-law"}

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 5

    def test_unknown_experiment_returns_nonzero_with_message(self, capsys):
        # Used to escape as a bare SystemExit from argparse choices; now a
        # clean non-zero return with the available experiments listed.
        assert main(["run", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "scale" in err

    def test_workers_flag_rejected_outside_scale(self, capsys):
        assert main(["run", "ingest", "--workers", "2"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["run", "streaming", "--workers", "1"]) == 2
        assert "only applies to `run scale`" in capsys.readouterr().err

    def test_scale_rejects_nonpositive_workers(self, capsys):
        assert main(["run", "scale", "--workers", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_run_ingest_writes_perf_trajectory(self, capsys, tmp_path):
        output = tmp_path / "BENCH_PR2.json"
        code = main(
            [
                "run", "ingest",
                "--datasets", "AM",
                "--batch-size", "60",
                "--num-batches", "1",
                "--output", str(output),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        on_disk = json.loads(output.read_text())
        assert payload == on_disk
        assert payload["dataset"] == "AM"
        engines = payload["engines"]
        assert set(engines) == {"bingo", "knightking", "gsampler", "flowwalker"}
        for entry in engines.values():
            assert entry["columnar_updates_per_second"] > 0
            assert entry["streaming_updates_per_second"] > 0
            assert entry["walk_steps_per_second"] > 0

    def test_run_streaming_writes_bench_pr4(self, capsys, tmp_path):
        output = tmp_path / "BENCH_PR4.json"
        code = main(
            [
                "run", "streaming",
                "--datasets", "AM",
                "--engines", "bingo",
                "--batch-size", "100",
                "--num-batches", "2",
                "--walk-length", "5",
                "--num-walkers", "24",
                "--queries-per-round", "2",
                "--output", str(output),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert json.loads(output.read_text()) == payload
        assert payload["dataset"] == "AM"
        assert set(payload["engines"]) == {"bingo"}
        row = payload["engines"]["bingo"]
        assert row["updates_per_second"] > 0
        assert row["steps_per_second"] > 0
        assert row["query_latency_p50_seconds"] <= row["query_latency_p99_seconds"]

    def test_streaming_rejects_multiple_datasets(self, capsys):
        assert main(["run", "streaming", "--datasets", "AM", "GO"]) == 2
        assert "single dataset" in capsys.readouterr().err

    def test_streaming_rejects_multiple_worker_counts(self, capsys):
        assert main(["run", "streaming", "--workers", "1", "2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_queries_per_round_rejected_outside_streaming(self, capsys):
        assert main(["run", "scale", "--queries-per-round", "2"]) == 2
        assert "--queries-per-round" in capsys.readouterr().err

    def test_engines_flag_rejected_outside_streaming(self, capsys):
        assert main(["run", "ingest", "--engines", "bingo"]) == 2
        assert "--engines" in capsys.readouterr().err

    def test_run_ingest_output_disabled_with_empty_flag(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            [
                "run", "ingest",
                "--datasets", "AM",
                "--batch-size", "40",
                "--num-batches", "1",
                "--output", "",
            ]
        ) == 0
        capsys.readouterr()
        assert not (tmp_path / "BENCH_PR2.json").exists()


class TestCompare:
    def test_compare_small(self, capsys):
        code = main(
            [
                "compare",
                "--dataset", "AM",
                "--application", "deepwalk",
                "--batch-size", "30",
                "--num-batches", "1",
                "--walk-length", "3",
                "--num-walkers", "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        for engine in ("bingo", "knightking", "gsampler", "flowwalker"):
            assert engine in output

    def test_compare_rejects_zero_workers(self, capsys):
        assert main(["compare", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_compare_rejects_workers_without_frontier(self, capsys):
        assert main(["compare", "--workers", "2"]) == 2
        assert "--frontier" in capsys.readouterr().err

    def test_compare_shard_parallel(self, capsys):
        code = main(
            [
                "compare",
                "--dataset", "AM",
                "--application", "deepwalk",
                "--batch-size", "30",
                "--num-batches", "1",
                "--walk-length", "3",
                "--num-walkers", "8",
                "--frontier",
                "--workers", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        for engine in ("bingo", "knightking", "gsampler", "flowwalker"):
            assert engine in output


class TestServeExperiment:
    def test_run_serve_writes_bench_pr5(self, capsys, tmp_path):
        output = tmp_path / "BENCH_PR5.json"
        code = main(
            [
                "run", "serve",
                "--datasets", "AM",
                "--engines", "bingo",
                "--batch-size", "60",
                "--num-batches", "2",
                "--walk-length", "4",
                "--num-walkers", "32",
                "--flood-queries", "24",
                "--light-queries", "6",
                "--output", str(output),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert json.loads(output.read_text()) == payload
        fairness = payload["fairness"]
        for mode in ("solo", "fair_share", "shared_queue"):
            assert fairness[mode]["p50"] > 0
            assert fairness[mode]["p50"] <= fairness[mode]["p99"]
        assert fairness["fair_share"]["tenants"]["flood"]["served"] == 24
        warming = payload["warming"]
        assert warming["flips"] == 2
        assert len(warming["cold"]["probe_latencies_seconds"]) == 2
        assert warming["warm"]["epochs_warmed"] == 2
        assert warming["cold"]["epochs_warmed"] == 0

    def test_serve_experiment_rejects_multiple_engines(self, capsys):
        assert main(["run", "serve", "--engines", "bingo", "gsampler"]) == 2
        assert "single engine" in capsys.readouterr().err

    def test_serve_experiment_rejects_multiple_datasets(self, capsys):
        assert main(["run", "serve", "--datasets", "AM", "GO"]) == 2
        assert "single dataset" in capsys.readouterr().err

    def test_flood_queries_rejected_outside_serve(self, capsys):
        assert main(["run", "streaming", "--flood-queries", "5"]) == 2
        assert "--flood-queries" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_runs_for_a_bounded_interval(self, capsys):
        code = main(
            [
                "serve",
                "--dataset", "AM",
                "--port", "0",
                "--max-seconds", "0.2",
                "--tenant", "alice:2:16",
            ]
        )
        assert code == 0
        assert "serving bingo walks on http://" in capsys.readouterr().err

    def test_serve_rejects_bad_tenant_spec(self, capsys):
        assert main(["serve", "--tenant", "a:b:c:d", "--max-seconds", "0.1"]) == 2
        assert "tenant spec" in capsys.readouterr().err

    def test_serve_has_no_workers_flag(self, capsys):
        # Serving scales out only through --shards (the shard router).
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "2", "--max-seconds", "0.1"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_sharded_runs_for_a_bounded_interval(self, capsys):
        code = main(
            [
                "serve",
                "--dataset", "AM",
                "--port", "0",
                "--shards", "2",
                "--max-seconds", "0.2",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "serving bingo walks on http://" in err
        assert "shards=2" in err

    def test_sigterm_drains_and_unlinks_shared_memory(self):
        import glob
        import os
        import signal
        import subprocess
        import sys
        import time

        before = set(glob.glob("/dev/shm/*"))
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--dataset", "AM",
                "--shards", "2",
                "--port", "0",
                "--max-seconds", "60",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            banner = process.stderr.readline()
            assert "serving bingo walks" in banner, banner
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
            process.stderr.close()
        # Give the kernel a beat to reap the unlinked segments.
        for _ in range(50):
            leaked = set(glob.glob("/dev/shm/*")) - before
            if not leaked:
                break
            time.sleep(0.1)
        assert not leaked


class TestShard:
    def test_run_shard_writes_bench_pr9(self, capsys, tmp_path):
        output = tmp_path / "BENCH_PR9.json"
        code = main(
            [
                "run", "shard",
                "--datasets", "AM",
                "--shards", "1", "2",
                "--num-walkers", "256",
                "--walk-length", "4",
                "--num-batches", "1",
                "--batch-size", "20",
                "--queries-per-round", "1",
                "--output", str(output),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(output.read_text())
        assert payload["shard_counts"] == [1, 2]
        assert [arm["shards"] for arm in payload["arms"].values()] == [1, 2]
        assert payload["chaos"]["hung"] == 0
        assert payload["chaos"]["bitwise_identical_to_clean_run"] is True
        assert payload["deterministic"] is True

    def test_run_shard_rejects_nonpositive_counts(self, capsys):
        assert main(["run", "shard", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err


class TestScale:
    def test_run_scale_writes_bench_pr3(self, capsys, tmp_path):
        output = tmp_path / "BENCH_PR3.json"
        code = main(
            [
                "run", "scale",
                "--datasets", "AM",
                "--workers", "1", "2",
                "--rounds", "1",
                "--walk-length", "3",
                "--num-walkers", "48",
                "--output", str(output),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        on_disk = json.loads(output.read_text())
        assert payload == on_disk
        assert payload["worker_counts"] == [1, 2]
        engines = payload["engines"]
        assert set(engines) == {"bingo", "knightking", "gsampler", "flowwalker"}
        for rows in engines.values():
            for row in rows.values():
                assert row["steps"] > 0
                assert row["steps_per_second"] > 0
                assert row["wall_steps_per_second"] > 0
            assert rows["1"]["speedup_vs_1"] == pytest.approx(1.0)
            assert rows["1"]["transfer_rate"] == 0.0
            assert rows["2"]["transfer_rate"] > 0.0
