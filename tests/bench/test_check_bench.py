"""The perf-trajectory schema gate must hold for the committed artifacts."""

import copy
import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "scripts" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_bench = _load_check_bench()


def test_committed_artifacts_pass_the_gate():
    assert check_bench.run_checks(REPO_ROOT) == []


def test_cli_entry_point_reports_ok(capsys):
    assert check_bench.main(["--dir", str(REPO_ROOT)]) == 0
    assert "artifacts ok" in capsys.readouterr().out


def test_missing_artifact_is_reported(tmp_path):
    errors = check_bench.run_checks(tmp_path)
    assert len(errors) == len(check_bench.CHECKS)
    assert all("missing" in error for error in errors)


def test_pr2_gate_catches_nonpositive_throughput():
    report = json.loads((REPO_ROOT / "BENCH_PR2.json").read_text())
    broken = copy.deepcopy(report)
    broken["engines"]["bingo"]["columnar_updates_per_second"] = 0
    errors = check_bench.check_bench_pr2(broken)
    assert any("columnar_updates_per_second" in error for error in errors)


def test_pr3_gate_catches_dropped_engine_and_worker_count():
    report = json.loads((REPO_ROOT / "BENCH_PR3.json").read_text())
    broken = copy.deepcopy(report)
    del broken["engines"]["gsampler"]
    del broken["engines"]["bingo"][str(report["worker_counts"][-1])]
    errors = check_bench.check_bench_pr3(broken)
    assert any("gsampler" in error for error in errors)
    assert any("worker count" in error for error in errors)
