"""Command-line interface for the Bingo reproduction.

Examples
--------
List the available experiments::

    bingo-repro list

Run one experiment and print its table::

    bingo-repro run table3 --datasets AM GO --applications deepwalk

Run a quick engine comparison on one dataset::

    bingo-repro compare --dataset LJ --application deepwalk --workload mixed
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass
from typing import Any
from collections.abc import Callable, Sequence

from repro.bench import experiments
from repro.bench.harness import EvaluationSettings, compare_engines
from repro.bench.reporting import format_table, summarize_results
from repro.errors import (
    BenchmarkError,
    EngineError,
    ParallelExecutionError,
    ServeError,
)

#: Experiment name -> callable returning a JSON-serialisable structure.
EXPERIMENT_RUNNERS: dict[str, Callable[..., Any]] = {
    "table1": experiments.table1_complexity,
    "table2": experiments.table2_datasets,
    "table3": experiments.table3_sota,
    "table4": experiments.table4_conversion,
    "fig9": experiments.fig9_group_ratio,
    "fig11": experiments.fig11_memory,
    "fig12": experiments.fig12_batched_updates,
    "fig13": experiments.fig13_breakdown,
    "fig14": experiments.fig14_float_bias,
    "fig15a": experiments.fig15_batch_size_sweep,
    "fig15b": experiments.fig15_walk_length_sweep,
    "fig15c": experiments.fig15_bias_distribution,
    "fig16": experiments.fig16_piecewise,
    "ingest": experiments.ingest_throughput,
    "scale": experiments.scale_workers,
}

#: Experiments whose JSON output lands in a file by default (perf trajectory).
DEFAULT_OUTPUT_FILES = {
    "ingest": "BENCH_PR2.json",
    "scale": "BENCH_PR3.json",
}


def _to_jsonable(value: Any) -> Any:
    """Recursively convert experiment outputs to JSON-compatible structures."""
    if is_dataclass(value) and not isinstance(value, type):
        return _to_jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return str(value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bingo-repro",
        description="Reproduce the Bingo (EuroSys'25) evaluation on synthetic stand-ins.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    # Validated manually (not via argparse choices) so unknown names return a
    # clean non-zero exit with a clear message instead of a bare SystemExit.
    run_parser.add_argument(
        "experiment",
        metavar="experiment",
        help="one of: " + ", ".join(sorted(EXPERIMENT_RUNNERS)),
    )
    run_parser.add_argument("--json", action="store_true", help="print raw JSON")
    run_parser.add_argument(
        "--datasets", nargs="+", default=None, help="dataset abbreviations (where applicable)"
    )
    run_parser.add_argument(
        "--applications", nargs="+", default=None, help="applications (table3 only)"
    )
    run_parser.add_argument(
        "--workloads", nargs="+", default=None, help="update workloads (table3/fig12)"
    )
    run_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="updates per batch (ingest only)",
    )
    run_parser.add_argument(
        "--num-batches",
        type=int,
        default=None,
        help="number of batches (ingest only)",
    )
    run_parser.add_argument(
        "--workers",
        nargs="+",
        type=int,
        default=None,
        help="worker counts to sweep (scale)",
    )
    run_parser.add_argument(
        "--walk-length", type=int, default=None, help="walk length (scale only)"
    )
    run_parser.add_argument(
        "--rounds", type=int, default=None, help="walk rounds per cell (scale only)"
    )
    run_parser.add_argument(
        "--num-walkers",
        type=int,
        default=None,
        help="walkers per round (scale only)",
    )
    run_parser.add_argument(
        "--output",
        default=None,
        help=(
            "write the experiment's JSON to this file as well as stdout; "
            "`run ingest` and `run scale` default to BENCH_PR2.json and "
            "BENCH_PR3.json in the working directory "
            "(pass --output '' to disable)"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve", help="serve walk queries over HTTP (stdlib JSON API)"
    )
    serve_parser.add_argument("--dataset", default="AM")
    serve_parser.add_argument("--engine", default="bingo")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8355, help="0 lets the OS pick a free port"
    )
    serve_parser.add_argument("--seed", type=int, default=2025)
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard serve processes behind the router front",
    )
    serve_parser.add_argument("--fuse-limit", type=int, default=8)
    serve_parser.add_argument("--fuse-window", type=float, default=0.002)
    serve_parser.add_argument(
        "--no-warm",
        action="store_true",
        help="skip pre-building the back buffer's fused tables at each epoch flip",
    )
    serve_parser.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME[:WEIGHT[:MAX_PENDING]]",
        help=(
            "declare a tenant lane (repeatable), e.g. --tenant alice:2:128; "
            "unknown tenants get a default rejecting lane"
        ),
    )
    serve_parser.add_argument(
        "--max-seconds",
        type=float,
        default=0.0,
        help="stop serving after this many seconds (0 = run until interrupted)",
    )
    serve_parser.add_argument(
        "--log-requests",
        action="store_true",
        help="print one access-log line per request to stderr",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="default tenant lane bound; full lanes answer 429 + Retry-After",
    )

    compare_parser = subparsers.add_parser(
        "compare", help="compare every engine on one dataset + application"
    )
    compare_parser.add_argument("--dataset", default="AM")
    compare_parser.add_argument("--application", default="deepwalk")
    compare_parser.add_argument("--workload", default="mixed")
    compare_parser.add_argument("--batch-size", type=int, default=150)
    compare_parser.add_argument("--num-batches", type=int, default=2)
    compare_parser.add_argument("--walk-length", type=int, default=10)
    compare_parser.add_argument("--num-walkers", type=int, default=32)
    compare_parser.add_argument("--seed", type=int, default=2025)
    compare_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard-parallel walk workers",
    )

    return parser


def _fail(message: str) -> int:
    """Print a clear error and return the CLI's failure exit code."""
    sys.stderr.write(f"error: {message}\n")
    return 2


def _run_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENT_RUNNERS.get(args.experiment)
    if runner is None:
        return _fail(
            f"unknown experiment {args.experiment!r}; available: "
            + ", ".join(sorted(EXPERIMENT_RUNNERS))
        )
    for flag, value in (
        ("--workers", args.workers),
        ("--walk-length", args.walk_length),
        ("--rounds", args.rounds),
        ("--num-walkers", args.num_walkers),
    ):
        if value is not None and args.experiment != "scale":
            # Fail fast instead of silently benchmarking the defaults.
            return _fail(f"{flag} only applies to `run scale`")
    if args.workers is not None and any(count < 1 for count in args.workers):
        return _fail("--workers counts must be positive integers")
    kwargs: dict[str, Any] = {}
    if args.datasets is not None and args.experiment in {
        "table3", "fig11", "fig12", "fig13", "fig14", "fig16",
    }:
        kwargs["datasets"] = args.datasets
    if args.applications is not None and args.experiment == "table3":
        kwargs["applications"] = args.applications
    if args.workloads is not None and args.experiment in {"table3", "fig12"}:
        kwargs["workloads"] = args.workloads
    if args.experiment == "ingest":
        if args.datasets is not None:
            kwargs["dataset"] = args.datasets[0]
        if args.batch_size is not None:
            kwargs["batch_size"] = args.batch_size
        if args.num_batches is not None:
            kwargs["num_batches"] = args.num_batches
    if args.experiment == "scale":
        if args.datasets is not None:
            if len(args.datasets) > 1:
                return _fail(
                    "`run scale` sweeps worker counts over a single dataset; "
                    f"got {len(args.datasets)} datasets"
                )
            kwargs["dataset"] = args.datasets[0]
        if args.workers is not None:
            kwargs["worker_counts"] = args.workers
        if args.walk_length is not None:
            kwargs["walk_length"] = args.walk_length
        if args.rounds is not None:
            kwargs["rounds"] = args.rounds
        if args.num_walkers is not None:
            kwargs["num_walkers"] = args.num_walkers
    result = runner(**kwargs)
    payload = _to_jsonable(result)
    output_path = args.output
    if output_path is None:
        output_path = DEFAULT_OUTPUT_FILES.get(args.experiment)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        sys.stderr.write(f"wrote {output_path}\n")
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, default=str))
        sys.stdout.write("\n")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Start the HTTP serving front-end and block until stopped.

    The whole deployment is described by one frozen
    :class:`~repro.serve.config.ServiceConfig` built from the flags (with
    ``BINGO_SERVE_*`` environment overrides); ``--shards > 1`` serves
    through the multi-process shard router.  SIGTERM (and Ctrl-C) drain
    cleanly: in-flight queries finish, the shard pool retires its worker
    processes, and every ``/dev/shm`` segment is unlinked before exit.
    """
    import signal
    import threading

    from repro.bench.datasets import build_dataset
    from repro.serve import ServiceConfig, serve_event_loop, service_from_config

    config = ServiceConfig.from_cli_args(args)
    graph = build_dataset(args.dataset, rng=config.seed)
    service = service_from_config(config, graph)
    server, _thread = serve_event_loop(service, config=config)
    stop = threading.Event()

    def _drain(signum, frame):  # noqa: ARG001 - signal handler signature
        stop.set()

    # Install the handler *before* announcing readiness: the banner is
    # the supervisor's cue that SIGTERM now drains instead of killing.
    previous_term = signal.signal(signal.SIGTERM, _drain)
    sharding = f", shards={config.shards}" if config.shards > 1 else ""
    sys.stderr.write(
        f"serving {config.engine} walks on {server.url} (event-loop "
        f"front-end, dataset={args.dataset}, vertices={graph.num_vertices}, "
        f"warm={'off' if args.no_warm else 'on'}{sharding}); "
        "Ctrl-C or SIGTERM to stop\n"
    )
    if args.max_seconds > 0:
        timer = threading.Timer(args.max_seconds, stop.set)
        timer.daemon = True
        timer.start()
    try:
        stop.wait()
        sys.stderr.write("draining\n")
    except KeyboardInterrupt:
        sys.stderr.write("shutting down\n")
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        server.shutdown()
        service.close()
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    if args.workers < 1:
        return _fail("--workers must be at least 1")
    settings = EvaluationSettings(
        batch_size=args.batch_size,
        num_batches=args.num_batches,
        walk_length=args.walk_length,
        num_walkers=args.num_walkers,
        workers=args.workers,
    )
    results = compare_engines(
        ("bingo", "knightking", "gsampler", "flowwalker"),
        args.dataset,
        args.application,
        workload=args.workload,
        settings=settings,
        seed=args.seed,
    )
    sys.stdout.write(summarize_results(results))
    sys.stdout.write("\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (also exposed as the ``bingo-repro`` console script)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        rows = [[name] for name in sorted(EXPERIMENT_RUNNERS)]
        sys.stdout.write(format_table(["experiment"], rows))
        sys.stdout.write("\n")
        return 0
    try:
        if args.command == "run":
            return _run_experiment(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "compare":
            return _run_compare(args)
    except (BenchmarkError, EngineError, ParallelExecutionError, ServeError) as exc:
        return _fail(str(exc))
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
