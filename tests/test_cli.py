"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import EXPERIMENT_RUNNERS, _build_parser, main


class TestList:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENT_RUNNERS:
            assert name in output

    def test_list_shows_no_retired_serve_experiment(self, capsys):
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        for name in ("streaming", "serve", "flip", "chaos", "http", "shard"):
            assert name not in listed


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
        assert main(["run", "fig9", "--workers", "1"]) == 2
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

    def test_walk_flags_rejected_outside_scale(self, capsys):
        for flag in ("--walk-length", "--rounds", "--num-walkers"):
            assert main(["run", "ingest", flag, "2"]) == 2
            assert f"{flag} only applies to `run scale`" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        [
            "streaming", "serve", "flip", "chaos", "http", "shard",
            "frontier", "fig15a-frontier",
        ],
    )
    def test_retired_serve_experiments_are_unknown(self, capsys, name):
        # The serve layer is benchmarked by perfbench over /v1 only, and
        # the scalar-vs-frontier walk sweeps went with the scalar driver.
        assert name not in EXPERIMENT_RUNNERS
        assert main(["run", name]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            "--queries-per-round", "--shards", "--engines", "--scales",
            "--flood-queries", "--light-queries", "--low-clients",
            "--high-clients", "--queries-per-phase", "--frontier",
        ],
    )
    def test_retired_serve_flags_are_unrecognised(self, capsys, flag):
        # Only the retired serve experiments (and, for --frontier, the
        # retired scalar walk driver) read these; argparse now refuses
        # them for every remaining experiment and for compare.
        for command in (["run", "fig9"], ["compare"]):
            with pytest.raises(SystemExit) as excinfo:
                main([*command, flag, "2"])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_run_flags_are_the_paper_experiment_knobs(self):
        subparsers = next(
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            option
            for action in subparsers.choices["run"]._actions
            for option in action.option_strings
        }
        assert flags == {
            "-h", "--help", "--json", "--datasets", "--applications",
            "--workloads", "--batch-size", "--num-batches", "--workers",
            "--walk-length", "--rounds", "--num-walkers", "--output",
        }

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
                "--workers", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        for engine in ("bingo", "knightking", "gsampler", "flowwalker"):
            assert engine in output


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
