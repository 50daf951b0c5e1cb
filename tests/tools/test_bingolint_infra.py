"""Framework tests: suppression comments, baseline round-trip, finding
fingerprints, and the CLI's exit-code contract.
"""

import json
import textwrap

from bingolint.baseline import load, match, save
from bingolint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from bingolint.finding import Finding, assign_occurrences
from bingolint.registry import get_rule
from bingolint.runner import check_source
from bingolint.suppress import suppressed_lines


def lint(rule_id: str, source: str, path: str):
    rule = get_rule(rule_id)()
    return check_source(rule, textwrap.dedent(source), path)


class TestSuppressions:
    def test_same_line_allow(self):
        source = """
            import time

            def measure():
                return time.time()  # bingolint: allow[BGL009]
        """
        assert lint("BGL009", source, "src/repro/bench/harness.py") == []

    def test_line_above_allow(self):
        source = """
            import time

            def measure():
                # bingolint: allow[BGL009]
                return time.time()
        """
        assert lint("BGL009", source, "src/repro/bench/harness.py") == []

    def test_allow_is_rule_specific(self):
        # Allowing one rule does not blanket-suppress another.
        source = """
            import time

            def measure():
                return time.time()  # bingolint: allow[BGL002]
        """
        assert len(lint("BGL009", source, "src/repro/bench/harness.py")) == 1

    def test_comma_separated_rule_list(self):
        source = """
            import threading

            def start(worker):
                threading.Thread(target=worker)  # bingolint: allow[BGL007, BGL001]
        """
        assert lint("BGL007", source, "src/repro/serve/eventloop.py") == []

    def test_suppression_map_lines(self):
        source = "x = 1  # bingolint: allow[BGL001]\ny = 2\n"
        mapping = suppressed_lines(source)
        assert mapping[1] == {"BGL001"}
        assert 2 in mapping  # line below the comment is covered too
        assert 3 not in mapping


class TestFingerprints:
    def _finding(self, **overrides):
        base = dict(
            rule_id="BGL009",
            path="src/repro/bench/harness.py",
            line=10,
            col=4,
            message="wall clock",
            snippet="    started = time.time()",
            occurrence=0,
        )
        base.update(overrides)
        return Finding(**base)

    def test_fingerprint_is_line_number_independent(self):
        # Inserting code above a finding must not churn the baseline.
        assert (
            self._finding(line=10).fingerprint
            == self._finding(line=99).fingerprint
        )

    def test_fingerprint_distinguishes_occurrences(self):
        assert (
            self._finding(occurrence=0).fingerprint
            != self._finding(occurrence=1).fingerprint
        )

    def test_assign_occurrences_orders_duplicates(self):
        first = self._finding(line=10)
        second = self._finding(line=20)
        stamped = assign_occurrences([second, first])
        assert [f.line for f in stamped] == [10, 20]
        assert [f.occurrence for f in stamped] == [0, 1]


class TestBaselineRoundTrip:
    def _findings(self):
        source = """
            import time

            def measure(fn):
                started = time.time()
                fn()
                return time.time() - started
        """
        return lint("BGL009", source, "src/repro/bench/harness.py")

    def test_save_load_match(self, tmp_path):
        findings = self._findings()
        assert len(findings) == 2
        baseline_path = tmp_path / "baseline.json"
        save(baseline_path, findings)

        baseline = load(baseline_path)
        assert len(baseline) == 2

        matched = match(findings, baseline)
        assert matched.new == []
        assert len(matched.baselined) == 2
        assert all(f.baselined for f in matched.baselined)
        assert matched.stale == []

    def test_new_finding_not_absorbed(self, tmp_path):
        findings = self._findings()
        baseline_path = tmp_path / "baseline.json"
        save(baseline_path, findings[:1])

        matched = match(findings, load(baseline_path))
        assert len(matched.new) == 1
        assert len(matched.baselined) == 1

    def test_stale_entries_surface(self, tmp_path):
        findings = self._findings()
        baseline_path = tmp_path / "baseline.json"
        save(baseline_path, findings)

        matched = match(findings[:1], load(baseline_path))
        assert len(matched.stale) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load(tmp_path / "absent.json") == {}

    def test_version_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        try:
            load(bad)
        except ValueError as exc:
            assert "version" in str(exc)
        else:  # pragma: no cover - defends the assertion above
            raise AssertionError("expected ValueError")


class TestCLI:
    CLEAN = "import time\n\n\ndef stamp():\n    return time.monotonic()\n"
    DIRTY = (
        "import time\n\n\ndef measure(fn):\n"
        "    started = time.time()\n    fn()\n"
        "    return time.time() - started\n"
    )

    def _tree(self, tmp_path, source):
        bench = tmp_path / "src" / "repro" / "bench"
        bench.mkdir(parents=True)
        (bench / "harness.py").write_text(source)
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.CLEAN)
        code = main(["src", "--root", str(root), "--no-baseline"])
        assert code == EXIT_CLEAN
        assert "0 new" in capsys.readouterr().out

    def test_new_findings_exit_one(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.DIRTY)
        code = main(["src", "--root", str(root), "--no-baseline"])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "BGL009" in out
        assert "FAIL" in out

    def test_no_targets_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "no lint targets" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.CLEAN)
        code = main(["src", "--root", str(root), "--select", "BGL999"])
        assert code == EXIT_USAGE
        assert "BGL999" in capsys.readouterr().err

    def test_missing_target_is_usage_error(self, tmp_path, capsys):
        code = main(["nonexistent", "--root", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_parse_error_exits_one(self, tmp_path, capsys):
        root = self._tree(tmp_path, "def broken(:\n")
        code = main(["src", "--root", str(root), "--no-baseline"])
        assert code == EXIT_FINDINGS
        assert "parse" in capsys.readouterr().out.lower()

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "src",
                    "--root",
                    str(root),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == EXIT_CLEAN
        )
        capsys.readouterr()
        code = main(["src", "--root", str(root), "--baseline", str(baseline)])
        assert code == EXIT_CLEAN
        assert "baselined" in capsys.readouterr().out

    def test_json_report_shape(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.DIRTY)
        code = main(
            ["src", "--root", str(root), "--no-baseline", "--format", "json"]
        )
        assert code == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["new"] == 2
        assert report["summary"]["by_rule"] == {"BGL009": 2}
        assert {f["rule"] for f in report["findings"]} == {"BGL009"}
        assert report["files_checked"] == 1

    def test_json_report_to_output_file(self, tmp_path):
        root = self._tree(tmp_path, self.CLEAN)
        out = tmp_path / "report.json"
        code = main(
            [
                "src",
                "--root",
                str(root),
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_CLEAN
        report = json.loads(out.read_text())
        assert report["summary"]["new"] == 0

    def test_select_limits_rules(self, tmp_path, capsys):
        root = self._tree(tmp_path, self.DIRTY)
        code = main(
            ["src", "--root", str(root), "--no-baseline", "--select", "BGL007"]
        )
        assert code == EXIT_CLEAN
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for digit in range(1, 10):
            assert f"BGL00{digit}" in out

    def test_suppressed_finding_counted_not_failed(self, tmp_path, capsys):
        source = (
            "import time\n\n\ndef measure(fn):\n"
            "    started = time.time()  # bingolint: allow[BGL009]\n"
            "    fn()\n    return started\n"
        )
        root = self._tree(tmp_path, source)
        code = main(
            ["src", "--root", str(root), "--no-baseline", "--format", "json"]
        )
        assert code == EXIT_CLEAN
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["suppressed"] == 1
