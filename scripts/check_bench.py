#!/usr/bin/env python3
"""Schema gate for the committed BENCH_PR*.json perf-trajectory artifacts.

Two paper-evaluation artifacts are committed: BENCH_PR2 (columnar
ingest, ``run ingest``) and BENCH_PR3 (shard-parallel walks, ``run
scale``).  CI runs this script so a refactor cannot silently drop an
engine or rename a field — the JSON in the repo must keep telling the
same story the CHANGES.md entry claims.  The serve layer is benchmarked
by ``perfbench/`` over ``/v1``; its invariants are tier-1 tests.

Usage::

    python scripts/check_bench.py [--dir REPO_ROOT]

Exits non-zero listing every violation found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

#: Every engine the Table 3 comparison covers; all benchmark artifacts
#: must report each of them.
ENGINES = ("bingo", "knightking", "gsampler", "flowwalker")


def _require_positive(row: dict, fields: List[str], where: str, errors: List[str]) -> None:
    for field in fields:
        value = row.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"{where}: field {field!r} missing or not positive ({value!r})")


def check_bench_pr2(report: dict) -> List[str]:
    """BENCH_PR2.json — columnar batch-update ingestion throughput."""
    errors: List[str] = []
    engines = report.get("engines", {})
    for engine in ENGINES:
        if engine not in engines:
            errors.append(f"BENCH_PR2: engine {engine!r} missing")
            continue
        _require_positive(
            engines[engine],
            [
                "columnar_updates_per_second",
                "streaming_updates_per_second",
                "walk_steps_per_second",
            ],
            f"BENCH_PR2.engines.{engine}",
            errors,
        )
    return errors


def check_bench_pr3(report: dict) -> List[str]:
    """BENCH_PR3.json — shard-parallel walk throughput scaling."""
    errors: List[str] = []
    counts = report.get("worker_counts")
    if not isinstance(counts, list) or not counts:
        errors.append("BENCH_PR3: worker_counts missing or empty")
        counts = []
    engines = report.get("engines", {})
    for engine in ENGINES:
        if engine not in engines:
            errors.append(f"BENCH_PR3: engine {engine!r} missing")
            continue
        rows = engines[engine]
        for workers in counts:
            row = rows.get(str(workers))
            if row is None:
                errors.append(f"BENCH_PR3.engines.{engine}: worker count {workers} missing")
                continue
            _require_positive(
                row,
                ["steps_per_second", "wall_steps_per_second", "speedup_vs_baseline"],
                f"BENCH_PR3.engines.{engine}[{workers}]",
                errors,
            )
    return errors


CHECKS: Dict[str, Callable[[dict], List[str]]] = {
    "BENCH_PR2.json": check_bench_pr2,
    "BENCH_PR3.json": check_bench_pr3,
}


def run_checks(root: Path) -> List[str]:
    """Validate every committed benchmark artifact under ``root``."""
    errors: List[str] = []
    for name, check in CHECKS.items():
        path = root / name
        if not path.exists():
            errors.append(f"{name}: committed artifact is missing")
            continue
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            errors.append(f"{name}: invalid JSON ({exc})")
            continue
        errors.extend(check(report))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root holding the BENCH_PR*.json artifacts",
    )
    args = parser.parse_args(argv)
    errors = run_checks(args.dir)
    if errors:
        for error in errors:
            print(f"check_bench: {error}", file=sys.stderr)
        return 1
    print(f"check_bench: {len(CHECKS)} artifacts ok ({', '.join(CHECKS)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
