#!/usr/bin/env python3
"""Served-traffic benchmark of the Bingo walk service over ``/v1``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload walk-mix --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each run generates its inputs from ``--seed``, launches the server entry
(``perfbench/server.py``) several times to time set-up, then drives the
last server from one single-threaded load generator: a discarded warm-up,
then segments of phase A (open-loop Poisson arrivals at a fixed rate,
latency timed from each request's due time) alternating with rounds of
phase B (closed loop, fixed work).  Every reply is checked (``gate.py``);
any violation fails the run with exit code 1 instead of printing numbers.
``--trace 1`` runs the same traffic against a server whose layer functions
record spans and reports per-layer metrics instead.  The last line of
standard output is one JSON object; raw per-request samples stay under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import report
from gate import Gate
from inputs import PHASE_B_OUTSTANDING, WORKLOADS, Plan, Workload, make_plan
from loadgen import LoadGenerator, Outcome, ProtocolError, Reply, decode_walks
from measure import (
    InsufficientSamples,
    cpu_seconds,
    peak_rss_mb,
    percentile,
    process_tree,
    shm_segments,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Share of replies beyond the first per epoch kept for the edge replay.
SAMPLE_SHARE = 0.05

class BenchmarkFailure(Exception):
    """The run could not produce trustworthy numbers."""


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #
class Server:
    """One launch of ``server.py`` in its own session (process group)."""

    def __init__(self, graph: Path, shards: int, log: Path, trace_out: Path | None) -> None:
        self.args = [sys.executable, str(HERE / "server.py"), "--graph", str(graph)]
        self.args += ["--shards", str(shards)]
        if trace_out is not None:
            self.args += ["--trace-out", str(trace_out)]
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 120.0) -> float:
        """Launch and wait for the first ``200`` from ``/v1/healthz``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        started = perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                self.args,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=ROOT,
                text=True,
                start_new_session=True,
            )
        deadline = started + timeout
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise BenchmarkFailure(f"server did not start:\n{self.log_tail()}")
        self.port = int(line.split()[1])
        while perf_counter() < deadline:
            if self._healthy():
                return perf_counter() - started
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchmarkFailure(f"server never became healthy:\n{self.log_tail()}")

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/v1/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def log_tail(self) -> str:
        try:
            return "\n".join(self.log.read_text().splitlines()[-15:])
        except OSError:
            return ""

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for a clean exit, then for the whole group to end."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchmarkFailure("server ignored SIGTERM") from None
        self.proc.stdout.close()
        self._reap_group(timeout)
        return code

    def _reap_group(self, timeout: float) -> None:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)
        os.killpg(self.proc.pid, signal.SIGKILL)

    def kill(self) -> None:
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self._reap_group(10.0)


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #
@dataclass
class RunResult:
    workload: str
    #: The gated metrics: end-to-end (untraced) or per-layer (traced).
    metrics: dict[str, tuple[float, str]]
    #: Reported beside them, not gated (wall-clock latency and throughput,
    #: the traced run's own end-to-end numbers).
    more: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    #: What the per-layer report needs from the run.
    context: dict = field(default_factory=dict)


@dataclass
class Round:
    """One phase-B round: wall and server CPU seconds, steps, updates published."""

    wall: float
    cpu: float
    steps: int
    updates: int


class Run:
    """The traffic of one run and the checks on its replies."""

    def __init__(self, workload: Workload, plan: Plan, seed: int) -> None:
        self.workload = workload
        self.plan = plan
        self.gate = Gate(plan.graph.num_vertices, seed, SAMPLE_SHARE)
        self.outcomes: list[Outcome] = []

    def samples(self) -> dict[str, np.ndarray]:
        """Raw per-request samples (perf_counter seconds), kept per run."""
        phases = ("warmup", "A", "B")
        outcomes = self.outcomes
        return {
            "phase": np.array([phases.index(o.phase) for o in outcomes]),
            "ingest": np.array([o.request.kind == "ingest" for o in outcomes]),
            "batch": np.array([o.request.batch for o in outcomes]),
            "due": np.array([o.due for o in outcomes]),
            "sent": np.array([o.sent for o in outcomes]),
            "done": np.array([o.done for o in outcomes]),
            "status": np.array([o.status for o in outcomes]),
            "epoch": np.array([o.epoch for o in outcomes]),
            "steps": np.array([o.steps for o in outcomes]),
        }

    def handle(self, outcome: Outcome, reply: Reply) -> None:
        kind = outcome.request.kind
        if kind == "query" and reply.status == 200:
            epoch, matrix, steps = decode_walks(reply)
            outcome.done = perf_counter()
            outcome.epoch, outcome.steps = epoch, steps
            self.gate.check_walks(outcome.request, epoch, matrix, steps)
            return
        payload = json.loads(reply.body) if reply.body else {}
        outcome.done = perf_counter()
        outcome.payload = payload
        if reply.status in (200, 202) and isinstance(payload.get("epoch"), int):
            outcome.epoch = payload["epoch"]
        if kind == "ingest" and reply.status == 202:
            if payload.get("queued_updates") != outcome.request.updates:
                self.gate.fail(f"ingest of batch {outcome.request.batch} acknowledged {payload}")


def _visible_ms(outcomes: list[Outcome], phase: str) -> list[float]:
    """Batch due time to the first reply stamped with its epoch or later."""
    stamped = sorted((o.done, o.epoch) for o in outcomes if o.done and o.epoch >= 0)
    done = np.array([item[0] for item in stamped])
    reach = np.maximum.accumulate(np.array([item[1] for item in stamped]))
    visible = []
    for outcome in outcomes:
        if outcome.phase == phase and outcome.request.kind == "ingest" and outcome.status == 202:
            first = int(np.searchsorted(reach, outcome.request.batch, side="left"))
            if first < len(done):
                visible.append((done[first] - outcome.due) * 1000.0)
    return visible


def _supported_tail(count: int) -> float:
    """p99, or the highest tenth of a percentile ``count`` samples support."""
    return min(99.0, float(np.floor(1000.0 * (1.0 - 10.0 / count)) / 10.0))


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> RunResult:
    """One run: generate, time set-up, drive the traffic, check, measure."""
    plan = make_plan(workload, seed, seconds)
    tag = "trace" if traced else "run"
    rundir = ROOT / ".perfbench" / f"{workload.name}-seed{seed}-{tag}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    graph_path = rundir / "graph.npz"
    np.savez(
        graph_path,
        num_vertices=plan.graph.num_vertices,
        src=plan.graph.src,
        dst=plan.graph.dst,
        bias=plan.graph.bias,
    )
    trace_path = rundir / "spans.npz"
    run = Run(workload, plan, seed)
    gate = run.gate
    shm_before = shm_segments()
    setups: list[float] = []
    server: Server | None = None
    try:
        for launch in range(SETUP_LAUNCHES):
            last = launch == SETUP_LAUNCHES - 1
            server = Server(
                graph_path,
                workload.shards,
                rundir / f"server-{launch}.log",
                trace_path if traced and last else None,
            )
            setups.append(server.start())
            if not last and server.stop() != 0:
                gate.fail(f"set-up launch {launch} did not exit cleanly on SIGTERM")
        result = _drive(run, server, setups)
        if server.stop() != 0:
            gate.fail(f"server did not exit cleanly on SIGTERM:\n{server.log_tail()}")
        server = None
    finally:
        if server is not None:
            server.kill()
        graph_path.unlink(missing_ok=True)
    leaked = {name for name in shm_segments() - shm_before if name.startswith("psm_")}
    if leaked:
        gate.fail(f"leaked /dev/shm segments: {sorted(leaked)}")
    gate.replay(plan.graph, plan.batches)
    result.notes["gate"] = (
        f"{len(gate.samples)} sampled replies, {gate.steps_replayed} steps replayed edge by edge"
    )
    if traced:
        end_to_end = result.metrics
        result.metrics, notes = report.layer_metrics(trace_path, result.context)
        result.notes.update(notes)
        shares = {k: v for k, (v, _) in result.metrics.items() if k.startswith("share.")}
        top = max(shares, key=shares.get)
        result.notes["largest share"] = f"{top[len('share.'):]} ({shares[top]:.2f} of span self time)"
        result.more = {f"traced.{k}": v for k, v in end_to_end.items()} | result.more
    result.violations = list(gate.violations)
    if gate.violation_count > len(gate.violations):
        result.violations.append(f"... {gate.violation_count - len(gate.violations)} more")
    np.savez(rundir / "samples.npz", **run.samples())
    (rundir / "result.json").write_text(
        json.dumps(
            {
                "metrics": result.metrics,
                "more": result.more,
                "notes": result.notes,
                "violations": result.violations,
            },
            indent=1,
        )
    )
    return result


def _drive(run: Run, server: Server, setups: list[float]) -> RunResult:
    plan, workload, gate = run.plan, run.workload, run.gate
    gen = LoadGenerator(server.port, run.handle)
    try:
        warm = gen.closed_loop(plan.warmup, 8, "warmup", grace=60.0)
        stats_0 = gen.get_json("/v1/stats")
        tree = process_tree(server.proc.pid)
        gen_cpu = time.process_time()
        start = perf_counter()
        segments: list[list[Outcome]] = []
        open_loop_cpu = 0.0
        phase_b: list[Outcome] = []
        rounds: list[Round] = []
        for segment, requests in zip(plan.phase_a, plan.phase_b):
            cpu = cpu_seconds(tree)
            segments.append(gen.open_loop(segment, perf_counter() + 0.05, "A", grace=30.0))
            open_loop_cpu += cpu_seconds(tree) - cpu
            cpu = cpu_seconds(tree)
            begun = perf_counter()
            outcomes = gen.closed_loop(requests, PHASE_B_OUTSTANDING, "B", grace=120.0)
            ended = max((o.done for o in outcomes), default=perf_counter())
            rounds.append(
                Round(
                    wall=ended - begun,
                    cpu=cpu_seconds(tree) - cpu,
                    steps=sum(o.steps for o in outcomes if o.request.kind == "query"),
                    # The round's last ingest flushes, so every batch it
                    # sent is published within the round.
                    updates=sum(
                        o.request.updates
                        for o in outcomes
                        if o.request.kind == "ingest" and o.status == 202
                    ),
                )
            )
            phase_b += outcomes
        b_end = perf_counter()
        gen_cpu = time.process_time() - gen_cpu
        stats_b = gen.get_json("/v1/stats")
        rss = peak_rss_mb(process_tree(server.proc.pid))
    finally:
        gen.close()
    phase_a = [outcome for part in segments for outcome in part]
    run.outcomes = warm + phase_a + phase_b

    requests = [o for o in run.outcomes if o.request.kind in ("query", "ingest")]
    unanswered = sum(1 for o in requests if not o.done)
    failed = sum(1 for o in requests if not o.done or o.status not in (200, 202))
    ingested = [o for o in requests if o.request.kind == "ingest" and o.status == 202]
    gate.reconcile(
        stats_b,
        queries_ok=sum(1 for o in requests if o.request.kind == "query" and o.status == 200),
        batches=len(ingested),
        updates=sum(o.request.updates for o in ingested),
        unanswered=unanswered,
    )

    segment_latency = [
        [(o.done - o.due) * 1000.0 for o in part if o.request.kind == "query" and o.status == 200]
        for part in segments
    ]
    latency = [value for part in segment_latency for value in part]
    visible = _visible_ms(run.outcomes, "A")
    lag = [(o.sent - o.due) * 1000.0 for o in phase_a]
    # Gated: set-up, and the server's CPU time and memory for fixed work,
    # which wall-clock figures on a shared two-core host cannot match for
    # steadiness (see README).  The wall-clock figures are reported beside.
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "server_cpu_s": (statistics.median(r.cpu for r in rounds) * len(rounds), "s"),
        "open_loop_cpu_s": (open_loop_cpu, "s"),
        "server_rss_mb": (rss, "MB"),
    }
    query_tail, visible_tail = _supported_tail(len(latency)), _supported_tail(len(visible))
    try:
        more = {
            "query_p50_ms": (
                statistics.median(percentile(part, 50) for part in segment_latency),
                "ms",
            ),
            f"query_p{query_tail:g}_ms": (percentile(latency, query_tail), "ms"),
            "visible_p50_ms": (percentile(visible, 50), "ms"),
            f"visible_p{visible_tail:g}_ms": (percentile(visible, visible_tail), "ms"),
            "walk_steps_per_s": (statistics.median(r.steps / r.wall for r in rounds), "steps/s"),
            "updates_per_s": (statistics.median(r.updates / r.wall for r in rounds), "updates/s"),
            "failed_ratio": (failed / len(requests), "ratio"),
        }
    except InsufficientSamples as exc:
        raise BenchmarkFailure(f"phase A too small for the percentile rule: {exc}") from exc
    result = RunResult(workload.name, metrics, more, attempted=len(requests), failed=failed)
    result.notes = {
        "setup_s": f"median of {len(setups)} launches: "
        + ", ".join(f"{s:.3f}" for s in setups),
        "query_p50_ms": f"median of {len(segment_latency)} segment medians; "
        f"{len(latency)} phase-A queries at {workload.query_rate:g}/s",
        "visible_p50_ms": f"{len(visible)} phase-A batches at {workload.ingest_rate:g}/s",
        "walk_steps_per_s": "median of phase-B rounds: "
        + ", ".join(f"{r.steps} in {r.wall:.3f} s" for r in rounds),
        "updates_per_s": "median of phase-B rounds: "
        + ", ".join(f"{r.updates} in {r.wall:.3f} s" for r in rounds),
        "server_cpu_s": f"{len(rounds)} x median round: "
        + ", ".join(f"{r.cpu:.2f}" for r in rounds),
        "open_loop_cpu_s": f"over {len(segments)} phase-A segments",
        "failed_ratio": f"{failed} of {len(requests)} requests",
    }
    result.context = {
        "window_ns": (int(start * 1e9), int(b_end * 1e9)),
        "stats_0": stats_0,
        "stats_b": stats_b,
        "lag_ms": lag,
        "gen_cpu_s": gen_cpu,
    }
    return result


# --------------------------------------------------------------------------- #
# entrypoint
# --------------------------------------------------------------------------- #
def _print_report(result: RunResult, seed: int) -> None:
    kind = "per-layer (traced)" if result.metrics and "setup_s" not in result.metrics else "end-to-end"
    print(f"== {result.workload}, seed {seed}: {kind} ==")
    for name, (value, unit) in {**result.metrics, **result.more}.items():
        note = result.notes.get(name, "")
        print(f"  {name:<34} {value:>14.4f} {unit:<10} {note}")
    for name in ("largest share", "gate"):
        if name in result.notes:
            print(f"  {name}: {result.notes[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Served-traffic benchmark over /v1.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serve").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except (BenchmarkFailure, ProtocolError, OSError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        if result.violations:
            print(f"perfbench: {name}: correctness violations:", file=sys.stderr)
            for violation in result.violations:
                print(f"  {violation}", file=sys.stderr)
            return 1
        _print_report(result, args.seed)
        results.append(result)
    prefix = len(results) > 1
    summary = {
        "correct": True,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            (f"{r.workload}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
