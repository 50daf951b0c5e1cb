"""One entry point per table / figure of the paper's evaluation.

Every function returns plain dictionaries / dataclasses so the pytest
benchmarks, the CLI and EXPERIMENTS.md generation can all share the same
code.  All experiments accept scaling knobs; the defaults are sized so the
whole suite completes in minutes on a laptop while preserving the paper's
relative comparisons (who wins, roughly by how much, where the crossovers
are).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.bench.datasets import DATASETS, build_dataset, dataset_statistics
from repro.bench.harness import (
    EvaluationResult,
    EvaluationSettings,
    compare_engines,
    run_update_only,
)
from repro.bench.workloads import run_application, sample_start_vertices
from repro.core.adaptive import GroupKind
from repro.core.vertex_sampler import BingoVertexSampler
from repro.engines.bingo import BingoEngine
from repro.engines.flowwalker import FlowWalkerEngine
from repro.engines.registry import create_engine
from repro.errors import BenchmarkError
from repro.graph.bias import (
    gauss_biases,
    group_element_ratio,
    power_law_biases,
    uniform_biases,
)
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.sampling.alias import AliasTable
from repro.sampling.its import InverseTransformSampler
from repro.sampling.rejection import RejectionSampler
from repro.utils.rng import ensure_rng
from repro.utils.timing import gc_paused

#: Engines compared in Table 3, in the paper's order.
SOTA_ENGINES = ("bingo", "knightking", "gsampler", "flowwalker")

#: Default dataset subset for the heavier sweeps (kept small for pure Python).
DEFAULT_SWEEP_DATASETS = ("AM", "GO", "LJ")


# --------------------------------------------------------------------------- #
# Table 1 — complexity comparison
# --------------------------------------------------------------------------- #
@dataclass
class ComplexityRow:
    """Measured per-operation cost (elementary ops) for one sampler at one degree."""

    sampler: str
    degree: int
    insert_ops: float
    delete_ops: float
    sample_ops: float
    memory_bytes: int


def table1_complexity(
    degrees: Sequence[int] = (16, 64, 256, 1024),
    *,
    samples_per_degree: int = 200,
    seed: int = 11,
) -> list[ComplexityRow]:
    """Measure insert/delete/sample cost vs. degree for Bingo and the baselines.

    The paper's Table 1 is analytical; this experiment verifies it
    empirically: Bingo's insert/delete cost should stay flat (O(K)) and its
    sampling flat (O(1)), the alias method's updates should grow linearly,
    ITS sampling logarithmically, and so on.
    """
    rng = ensure_rng(seed)
    rows: list[ComplexityRow] = []
    factories = {
        "bingo": lambda: BingoVertexSampler(rng=ensure_rng(rng.randrange(1 << 30))),
        "alias": lambda: AliasTable(rng=ensure_rng(rng.randrange(1 << 30))),
        "its": lambda: InverseTransformSampler(rng=ensure_rng(rng.randrange(1 << 30))),
        "rejection": lambda: RejectionSampler(rng=ensure_rng(rng.randrange(1 << 30))),
    }
    for degree in degrees:
        biases = power_law_biases(degree, alpha=2.0, max_bias=1 << 12, rng=rng)
        for name, factory in factories.items():
            sampler = factory()
            for candidate, bias in enumerate(biases):
                sampler.insert(candidate, float(bias))
            if hasattr(sampler, "rebuild"):
                sampler.rebuild()

            # Sampling cost.
            sampler.counter.reset()
            for _ in range(samples_per_degree):
                sampler.sample()
            sample_ops = sampler.counter.total() / samples_per_degree

            # Insertion cost (insert fresh candidates, measuring steady state).
            sampler.counter.reset()
            new_ids = list(range(degree, degree + samples_per_degree))
            for offset, candidate in enumerate(new_ids):
                sampler.insert(candidate, float(biases[offset % degree]))
                # Keep structures usable for samplers that defer reconstruction.
                if hasattr(sampler, "rebuild") and name in ("alias",):
                    sampler.rebuild()
                if name == "bingo":
                    sampler.rebuild()
            insert_ops = sampler.counter.total() / samples_per_degree

            # Deletion cost (delete the candidates just inserted).
            sampler.counter.reset()
            for candidate in new_ids:
                sampler.delete(candidate)
                if hasattr(sampler, "rebuild") and name in ("alias", "its"):
                    sampler.rebuild()
                if name == "bingo":
                    sampler.rebuild()
            delete_ops = sampler.counter.total() / samples_per_degree

            rows.append(
                ComplexityRow(
                    sampler=name,
                    degree=degree,
                    insert_ops=insert_ops,
                    delete_ops=delete_ops,
                    sample_ops=sample_ops,
                    memory_bytes=sampler.memory_bytes(),
                )
            )
    return rows


# --------------------------------------------------------------------------- #
# Table 2 — dataset statistics
# --------------------------------------------------------------------------- #
def table2_datasets(*, seed: int = 7) -> list[dict[str, object]]:
    """Paper statistics side by side with the synthetic stand-in statistics."""
    rows: list[dict[str, object]] = []
    for abbreviation, spec in DATASETS.items():
        graph = build_dataset(abbreviation, rng=seed)
        stats = dataset_statistics(graph)
        rows.append(
            {
                "dataset": spec.name,
                "abbr": abbreviation,
                "paper_vertices": spec.paper_vertices,
                "paper_edges": spec.paper_edges,
                "paper_avg_degree": spec.paper_avg_degree,
                "paper_max_degree": spec.paper_max_degree,
                "standin_vertices": stats["vertices"],
                "standin_edges": stats["edges"],
                "standin_avg_degree": stats["avg_degree"],
                "standin_max_degree": stats["max_degree"],
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Table 3 — Bingo vs the state of the art
# --------------------------------------------------------------------------- #
def table3_sota(
    *,
    datasets: Sequence[str] = DEFAULT_SWEEP_DATASETS,
    applications: Sequence[str] = ("deepwalk", "node2vec", "ppr"),
    workloads: Sequence[str] = ("insertion", "deletion", "mixed"),
    engines: Sequence[str] = SOTA_ENGINES,
    settings: EvaluationSettings | None = None,
    seed: int = 2025,
) -> list[EvaluationResult]:
    """Runtime + memory sweep over engines × datasets × applications × workloads."""
    if settings is None:
        settings = EvaluationSettings(
            batch_size=150, num_batches=2, walk_length=8, num_walkers=32
        )
    results: list[EvaluationResult] = []
    for application in applications:
        for workload in workloads:
            for dataset in datasets:
                results.extend(
                    compare_engines(
                        engines,
                        dataset,
                        application,
                        workload=workload,
                        settings=settings,
                        seed=seed,
                    )
                )
    return results


def table3_speedups(results: Sequence[EvaluationResult]) -> dict[str, float]:
    """Average speedup of Bingo over each baseline across matching cells."""
    by_cell: dict[tuple, dict[str, EvaluationResult]] = {}
    for result in results:
        key = (result.dataset, result.application, result.workload)
        by_cell.setdefault(key, {})[result.engine] = result
    sums: dict[str, list[float]] = {}
    for cell in by_cell.values():
        bingo = cell.get("bingo")
        if bingo is None or bingo.runtime_seconds <= 0:
            continue
        for engine, result in cell.items():
            if engine == "bingo":
                continue
            sums.setdefault(engine, []).append(
                result.runtime_seconds / bingo.runtime_seconds
            )
    return {
        engine: sum(values) / len(values) for engine, values in sums.items() if values
    }


# --------------------------------------------------------------------------- #
# Table 4 — group conversion ratios
# --------------------------------------------------------------------------- #
def table4_conversion(
    *,
    dataset: str = "LJ",
    batch_size: int = 400,
    num_batches: int = 4,
    seed: int = 17,
) -> dict[str, object]:
    """Group-type conversion ratios while ingesting a mixed update stream."""
    rng = ensure_rng(seed)
    graph = build_dataset(dataset, rng=rng)
    stream = generate_update_stream(
        graph,
        batch_size=batch_size,
        num_batches=num_batches,
        workload=UpdateWorkload.MIXED,
        rng=rng,
    )
    engine = BingoEngine(rng=seed + 1)
    engine.build(stream.initial_graph.copy())
    # Only the conversions triggered by updates matter for Table 4.
    engine.conversion_tracker.transitions.clear()
    engine.conversion_tracker.observations = 0
    for batch in stream.batches:
        engine.apply_batch(batch)
    tracker = engine.conversion_tracker
    matrix = {
        old.value: {new.value: ratio for new, ratio in row.items()}
        for old, row in tracker.ratio_matrix().items()
    }
    return {
        "dataset": dataset,
        "observations": tracker.observations,
        "conversions": tracker.conversion_count(),
        "max_ratio": max(
            (ratio for row in matrix.values() for ratio in row.values()), default=0.0
        ),
        "matrix": matrix,
    }


# --------------------------------------------------------------------------- #
# Figure 9 — group element ratio per bias distribution
# --------------------------------------------------------------------------- #
def fig9_group_ratio(
    *,
    num_groups: int = 10,
    num_edges: int = 50_000,
    seed: int = 5,
) -> dict[str, list[float]]:
    """Share of edges contributing to each radix group, per bias distribution."""
    rng = ensure_rng(seed)
    max_bias = (1 << num_groups) - 1
    distributions = {
        "uniform": uniform_biases(num_edges, low=1, high=max_bias, rng=rng),
        "gauss": gauss_biases(num_edges, mean=max_bias / 3, stddev=max_bias / 8, rng=rng),
        "power-law": power_law_biases(num_edges, alpha=2.0, max_bias=max_bias, rng=rng),
    }
    return {
        name: group_element_ratio(biases, num_groups)
        for name, biases in distributions.items()
    }


# --------------------------------------------------------------------------- #
# Figure 11 — adaptive group representation memory impact
# --------------------------------------------------------------------------- #
def fig11_memory(
    *,
    datasets: Sequence[str] = tuple(DATASETS),
    seed: int = 23,
) -> dict[str, dict[str, object]]:
    """BS vs GA modelled memory, per-kind savings and group-kind ratios."""
    output: dict[str, dict[str, object]] = {}
    for dataset in datasets:
        graph = build_dataset(dataset, rng=seed)

        baseline = BingoEngine(rng=seed, adaptive_groups=False)
        baseline.build(graph.copy())
        adaptive = BingoEngine(rng=seed, adaptive_groups=True)
        adaptive.build(graph.copy())

        bs_report = baseline.memory_report()
        ga_report = adaptive.memory_report()

        # Per-kind comparison: what the GA representation costs for the groups
        # it stores in each simplified form, vs. what the same groups would
        # cost as regular groups.
        per_kind: dict[str, dict[str, float]] = {}
        from repro.core.memory_model import group_memory_bytes

        for kind in (GroupKind.DENSE, GroupKind.ONE_ELEMENT, GroupKind.SPARSE):
            ga_bytes = 0
            bs_bytes = 0
            for vertex in range(graph.num_vertices):
                sampler = adaptive.sampler_for(vertex)
                if sampler is None:
                    continue
                degree = len(sampler)
                kinds = sampler.group_kinds()
                for position, size in sampler.group_sizes().items():
                    if kinds.get(position) is kind:
                        ga_bytes += group_memory_bytes(kind, size, degree)
                        bs_bytes += group_memory_bytes(GroupKind.REGULAR, size, degree)
            per_kind[kind.value] = {
                "ga_bytes": ga_bytes,
                "bs_bytes": bs_bytes,
                "saving_factor": (bs_bytes / ga_bytes) if ga_bytes else float("inf"),
            }

        output[dataset] = {
            "bs_total_bytes": bs_report.total_bytes(),
            "ga_total_bytes": ga_report.total_bytes(),
            "overall_saving_factor": (
                bs_report.total_bytes() / ga_report.total_bytes()
                if ga_report.total_bytes()
                else float("inf")
            ),
            "per_kind": per_kind,
            "group_kind_ratios": adaptive.group_kind_ratios(),
        }
    return output


# --------------------------------------------------------------------------- #
# Figure 12 — streaming vs batched update throughput
# --------------------------------------------------------------------------- #
def fig12_batched_updates(
    *,
    datasets: Sequence[str] = DEFAULT_SWEEP_DATASETS,
    workloads: Sequence[str] = ("insertion", "deletion", "mixed"),
    batch_size: int = 300,
    num_batches: int = 2,
    seed: int = 31,
) -> dict[str, dict[str, dict[str, float]]]:
    """Streaming vs batched ingestion on the Bingo engine.

    The paper's ~1000x batched speedup comes from GPU parallelism (every
    update in a batch runs concurrently) plus the single rebuild per touched
    vertex.  The host wall-clock throughput of this pure-Python reproduction
    cannot show the parallel part, so each cell reports both the measured
    host throughputs and the device-model speedup
    (``serial update steps / modelled parallel kernel steps``) — the latter is
    the quantity comparable with Figure 12.
    """
    from repro.engines.bingo import BingoEngine as _Bingo

    output: dict[str, dict[str, dict[str, float]]] = {}
    for workload in workloads:
        output[workload] = {}
        for dataset in datasets:
            rng = ensure_rng(seed)
            graph = build_dataset(dataset, rng=rng)
            stream = generate_update_stream(
                graph,
                batch_size=batch_size,
                num_batches=num_batches,
                workload=workload,
                rng=rng,
            )
            streaming = run_update_only("bingo", stream, streaming=True, rng=seed + 1)
            batched_engine = _Bingo(rng=seed + 1)
            batched_engine.build(stream.initial_graph.copy())
            batched_start = time.perf_counter()
            for batch in stream.batches:
                batched_engine.apply_batch(batch)
            batched_seconds = time.perf_counter() - batched_start

            total_updates = stream.num_updates
            parallel_steps = max(1, batched_engine.batch_stats.parallel_steps)
            output[workload][dataset] = {
                "streaming_updates_per_second": streaming.updates_per_second(),
                "batched_updates_per_second": (
                    total_updates / batched_seconds if batched_seconds > 0 else float("inf")
                ),
                "wall_clock_speedup": (
                    (total_updates / batched_seconds) / streaming.updates_per_second()
                    if batched_seconds > 0 and streaming.updates_per_second() > 0
                    else float("inf")
                ),
                "modelled_parallel_speedup": total_updates / parallel_steps,
            }
    return output


# --------------------------------------------------------------------------- #
# Figure 13 — time breakdown, BS vs GA
# --------------------------------------------------------------------------- #
def fig13_breakdown(
    *,
    datasets: Sequence[str] = DEFAULT_SWEEP_DATASETS,
    batch_size: int = 200,
    num_batches: int = 2,
    num_samples: int = 3000,
    seed: int = 37,
) -> dict[str, dict[str, dict[str, float]]]:
    """Insert/delete, rebuild and sampling time with and without group adaption.

    The measured phases run with the collector paused (a full collection
    outlasts a whole few-millisecond phase).
    """
    output: dict[str, dict[str, dict[str, float]]] = {}
    for dataset in datasets:
        rng = ensure_rng(seed)
        graph = build_dataset(dataset, rng=rng)
        stream = generate_update_stream(
            graph,
            batch_size=batch_size,
            num_batches=num_batches,
            workload=UpdateWorkload.MIXED,
            rng=rng,
        )
        output[dataset] = {}
        for label, adaptive in (("BS", False), ("GA", True)):
            engine = BingoEngine(rng=seed + 1, adaptive_groups=adaptive)
            engine.build(stream.initial_graph.copy())
            engine.reset_breakdown()
            starts = sample_start_vertices(stream.initial_graph, 64, rng=seed + 2)
            sample_rng = ensure_rng(seed + 3)
            with gc_paused():
                for batch in stream.batches:
                    engine.apply_batch(batch)
                for _ in range(num_samples):
                    engine.sample_neighbor(starts[sample_rng.randrange(len(starts))])
            phases = engine.breakdown.as_dict()
            output[dataset][label] = {
                "insert_delete": phases.get("insert", 0.0) + phases.get("delete", 0.0),
                "rebuild": phases.get("rebuild", 0.0),
                "sampling": phases.get("sampling", 0.0),
            }
    return output


# --------------------------------------------------------------------------- #
# Figure 14 — integer vs floating-point bias
# --------------------------------------------------------------------------- #
def fig14_float_bias(
    *,
    datasets: Sequence[str] = DEFAULT_SWEEP_DATASETS,
    batch_size: int = 200,
    num_batches: int = 2,
    num_samples: int = 2000,
    seed: int = 41,
) -> dict[str, dict[str, dict[str, float]]]:
    """Runtime and memory with integer biases vs the same biases plus U(0,1) noise."""
    output: dict[str, dict[str, dict[str, float]]] = {}
    for dataset in datasets:
        rng = ensure_rng(seed)
        int_graph = build_dataset(dataset, rng=rng)

        # Floating-point variant: identical topology, biases + U(0, 1).
        float_graph = int_graph.copy()
        noise_rng = ensure_rng(seed + 1)
        for edge in list(float_graph.edges()):
            float_graph.update_bias(
                edge.src, edge.dst, edge.bias + noise_rng.random()
            )

        output[dataset] = {}
        for label, graph in (("integer", int_graph), ("floating-point", float_graph)):
            stream = generate_update_stream(
                graph,
                batch_size=batch_size,
                num_batches=num_batches,
                workload=UpdateWorkload.MIXED,
                rng=ensure_rng(seed + 2),
            )
            engine = BingoEngine(rng=seed + 3)
            with gc_paused():
                start = time.perf_counter()
                engine.build(stream.initial_graph.copy())
                for batch in stream.batches:
                    engine.apply_batch(batch)
                starts = sample_start_vertices(stream.initial_graph, 64, rng=seed + 4)
                sample_rng = ensure_rng(seed + 5)
                for _ in range(num_samples):
                    engine.sample_neighbor(starts[sample_rng.randrange(len(starts))])
                elapsed = time.perf_counter() - start
            output[dataset][label] = {
                "time_seconds": elapsed,
                "memory_bytes": engine.memory_report().total_bytes(),
                "lam": engine.lam,
            }
    return output


# --------------------------------------------------------------------------- #
# Figure 15 — varying evaluation configurations
# --------------------------------------------------------------------------- #
def fig15_batch_size_sweep(
    *,
    dataset: str = "LJ",
    batch_sizes: Sequence[int] = (50, 125, 250, 375, 500),
    total_updates: int = 1500,
    seed: int = 43,
) -> dict[int, dict[str, float]]:
    """gSampler vs Bingo runtime as the updating batch size grows (Figure 15a)."""
    output: dict[int, dict[str, float]] = {}
    for batch_size in batch_sizes:
        num_batches = max(1, total_updates // batch_size)
        rng = ensure_rng(seed)
        graph = build_dataset(dataset, rng=rng)
        stream = generate_update_stream(
            graph,
            batch_size=batch_size,
            num_batches=num_batches,
            workload=UpdateWorkload.MIXED,
            rng=rng,
        )
        row: dict[str, float] = {}
        for engine_name in ("gsampler", "bingo"):
            result = run_update_only(engine_name, stream, streaming=False, rng=seed + 1)
            row[engine_name] = result.runtime_seconds
        output[batch_size] = row
    return output


def fig15_frontier_sweep(
    *,
    dataset: str = "LJ",
    batch_sizes: Sequence[int] = (50, 125, 250, 500),
    total_updates: int = 1500,
    walk_length: int = 10,
    num_walkers: int | None = None,
    engines: Sequence[str] = ("gsampler", "bingo"),
    seed: int = 43,
) -> dict[int, dict[str, float]]:
    """Figure 15a executed through the batched walk frontier.

    Same sweep shape as :func:`fig15_batch_size_sweep`, but each ingested
    batch is followed by a DeepWalk round, run twice per engine: once with
    the scalar per-walker loop and once with the batched frontier.  The
    ``*_frontier_seconds`` vs ``*_scalar_seconds`` columns are the measured
    win of the vectorized sampling kernels on identical workloads.
    ``num_walkers=None`` uses the paper's placement: one walker per vertex.
    """
    output: dict[int, dict[str, float]] = {}
    for batch_size in batch_sizes:
        num_batches = max(1, total_updates // batch_size)
        rng = ensure_rng(seed)
        graph = build_dataset(dataset, rng=rng)
        stream = generate_update_stream(
            graph,
            batch_size=batch_size,
            num_batches=num_batches,
            workload=UpdateWorkload.MIXED,
            rng=rng,
        )
        starts = sample_start_vertices(
            stream.initial_graph,
            num_walkers if num_walkers is not None else stream.initial_graph.num_vertices,
            rng=seed + 2,
        )
        row: dict[str, float] = {}
        for engine_name in engines:
            for mode, use_frontier in (("scalar", False), ("frontier", True)):
                engine = create_engine(engine_name, rng=seed + 1)
                engine.build(stream.initial_graph.copy())
                walk_rng = ensure_rng(seed + 3)
                start_time = time.perf_counter()
                for batch in stream.batches:
                    engine.apply_batch(batch)
                    run_application(
                        "deepwalk",
                        engine,
                        walk_length=walk_length,
                        starts=starts,
                        rng=walk_rng,
                        frontier=use_frontier,
                    )
                row[f"{engine_name}_{mode}_seconds"] = (
                    time.perf_counter() - start_time
                )
        output[batch_size] = row
    return output


def frontier_throughput(
    *,
    dataset: str = "LJ",
    engines: Sequence[str] = SOTA_ENGINES,
    num_walkers: int | None = None,
    walk_length: int = 10,
    rounds: int = 3,
    seed: int = 61,
) -> dict[str, dict[str, float]]:
    """Scalar per-walker loop vs batched frontier walk throughput per engine.

    Runs ``rounds`` DeepWalk rounds per mode (the paper's workflow runs the
    application after every update batch, so the fused frontier tables are
    warm for all but the first round).  ``num_walkers=None`` uses the
    paper's placement: one walker per vertex.
    """
    from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk

    rng = ensure_rng(seed)
    graph = build_dataset(dataset, rng=rng)
    starts = sample_start_vertices(
        graph,
        num_walkers if num_walkers is not None else graph.num_vertices,
        rng=seed + 1,
    )
    config = DeepWalkConfig(walk_length=walk_length)
    output: dict[str, dict[str, float]] = {}
    for engine_name in engines:
        engine = create_engine(engine_name, rng=seed + 2)
        engine.build(graph.copy())

        # The two modes alternate round by round, so a burst of host load
        # lands on both sides of the ratio instead of on one mode alone.
        # Rounds run with the collector paused: a full collection in a
        # long-lived process outlasts a whole few-millisecond frontier round.
        scalar_steps = frontier_steps = 0
        scalar_seconds = frontier_seconds = 0.0
        for round_index in range(rounds):
            with gc_paused():
                round_start = time.perf_counter()
                scalar_steps += run_deepwalk(engine, config, starts=starts).total_steps
                scalar_seconds += time.perf_counter() - round_start

            with gc_paused():
                round_start = time.perf_counter()
                frontier_steps += run_deepwalk(
                    engine, config, starts=starts, frontier=True, rng=seed + 3 + round_index
                ).total_steps
                frontier_seconds += time.perf_counter() - round_start

        output[engine_name] = {
            "scalar_steps_per_second": (
                scalar_steps / scalar_seconds if scalar_seconds > 0 else float("inf")
            ),
            "frontier_steps_per_second": (
                frontier_steps / frontier_seconds
                if frontier_seconds > 0
                else float("inf")
            ),
            "frontier_speedup": (
                scalar_seconds / frontier_seconds if frontier_seconds > 0 else float("inf")
            ),
        }
    return output


def fig15_walk_length_sweep(
    *,
    dataset: str = "LJ",
    walk_lengths: Sequence[int] = (5, 10, 20, 40),
    seed: int = 47,
) -> dict[int, dict[str, float]]:
    """gSampler vs Bingo runtime as walk length grows (Figure 15b)."""
    output: dict[int, dict[str, float]] = {}
    for walk_length in walk_lengths:
        settings = EvaluationSettings(
            batch_size=100, num_batches=2, walk_length=walk_length, num_walkers=32
        )
        results = compare_engines(
            ("gsampler", "bingo"),
            dataset,
            "deepwalk",
            workload="mixed",
            settings=settings,
            seed=seed,
        )
        output[walk_length] = {r.engine: r.runtime_seconds for r in results}
    return output


def fig15_bias_distribution(
    *,
    dataset: str = "LJ",
    distributions: Sequence[str] = ("uniform", "gauss", "power-law"),
    batch_size: int = 200,
    num_batches: int = 2,
    num_samples: int = 2000,
    seed: int = 53,
) -> dict[str, dict[str, float]]:
    """Bingo time and memory across bias distributions (Figure 15c)."""
    from repro.bench.datasets import DATASETS as _SPECS
    from repro.graph.generators import power_law_graph, rmat_graph

    spec = _SPECS[dataset]
    output: dict[str, dict[str, float]] = {}
    for distribution in distributions:
        rng = ensure_rng(seed)
        if spec.generator == "rmat":
            graph = rmat_graph(
                spec.scale, spec.edge_factor, bias_distribution=distribution, rng=rng
            )
        else:
            graph = power_law_graph(
                spec.scale, spec.edge_factor, bias_distribution=distribution, rng=rng
            )
        stream = generate_update_stream(
            graph,
            batch_size=batch_size,
            num_batches=num_batches,
            workload=UpdateWorkload.MIXED,
            rng=rng,
        )
        engine = BingoEngine(rng=seed + 1)
        start = time.perf_counter()
        engine.build(stream.initial_graph.copy())
        for batch in stream.batches:
            engine.apply_batch(batch)
        starts = sample_start_vertices(stream.initial_graph, 64, rng=seed + 2)
        sample_rng = ensure_rng(seed + 3)
        for _ in range(num_samples):
            engine.sample_neighbor(starts[sample_rng.randrange(len(starts))])
        elapsed = time.perf_counter() - start
        output[distribution] = {
            "time_seconds": elapsed,
            "memory_bytes": engine.memory_report().total_bytes(),
        }
    return output


# --------------------------------------------------------------------------- #
# Ingest throughput — columnar batch pipeline vs the per-edge paths
# --------------------------------------------------------------------------- #
def ingest_throughput(
    *,
    dataset: str = "LJ",
    engines: Sequence[str] = SOTA_ENGINES,
    batch_size: int = 4000,
    num_batches: int = 2,
    walk_length: int = 10,
    num_walkers: int = 512,
    repeats: int = 3,
    workload: str = "mixed",
    seed: int = 67,
) -> dict[str, object]:
    """Update-ingestion throughput of the two ingestion paths per engine.

    For every engine, the identical update stream is ingested two ways:

    * ``columnar`` — the batched columnar pipeline (``apply_batch`` on
      :class:`~repro.graph.update_batch.UpdateBatch` columns);
    * ``streaming`` — the per-edge path (``apply_streaming``: one update at
      a time, sampler refreshed after every edge).

    Each is timed best-of-``repeats`` and reported as updates/s, together
    with an *ingest-while-walking* run of the paper's Section 6.1 loop
    (apply one batch, run a frontier DeepWalk round) that yields both
    updates/s and walk steps/s under the interleaved workload.  The batch
    size is clamped so the stream generator can always carve its insertion
    reserve out of the dataset.
    """
    from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk

    rng = ensure_rng(seed)
    graph = build_dataset(dataset, rng=rng)
    max_batch = max(1, graph.num_edges // (num_batches + 1))
    batch_size = min(batch_size, max_batch)
    stream = generate_update_stream(
        graph,
        batch_size=batch_size,
        num_batches=num_batches,
        workload=UpdateWorkload(workload),
        rng=rng,
    )
    total_updates = stream.num_updates
    scalar_batches = [list(batch) for batch in stream.batches]
    starts = sample_start_vertices(stream.initial_graph, num_walkers, rng=seed + 1)
    config = DeepWalkConfig(walk_length=walk_length)

    def timed_ingest(engine_name: str, method: str, batches) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            engine = create_engine(engine_name, rng=seed + 2)
            engine.build(stream.initial_graph.copy())
            start = time.perf_counter()
            for batch in batches:
                getattr(engine, method)(batch)
            best = min(best, time.perf_counter() - start)
        return total_updates / best if best > 0 else float("inf")

    per_engine: dict[str, dict[str, float]] = {}
    for engine_name in engines:
        columnar = timed_ingest(engine_name, "apply_batch", stream.batches)
        streaming = timed_ingest(engine_name, "apply_streaming", scalar_batches)

        # Ingest-while-walking: the paper's update-then-walk loop.
        engine = create_engine(engine_name, rng=seed + 2)
        engine.build(stream.initial_graph.copy())
        update_seconds = 0.0
        walk_seconds = 0.0
        walk_steps = 0
        for round_index, batch in enumerate(stream.batches):
            start = time.perf_counter()
            engine.apply_batch(batch)
            update_seconds += time.perf_counter() - start
            start = time.perf_counter()
            result = run_deepwalk(
                engine,
                config,
                starts=starts,
                frontier=True,
                rng=seed + 3 + round_index,
            )
            walk_seconds += time.perf_counter() - start
            walk_steps += result.total_steps

        per_engine[engine_name] = {
            "columnar_updates_per_second": columnar,
            "streaming_updates_per_second": streaming,
            "columnar_vs_streaming": columnar / streaming if streaming > 0 else float("inf"),
            "ingest_while_walking_updates_per_second": (
                total_updates / update_seconds if update_seconds > 0 else float("inf")
            ),
            "walk_steps_per_second": (
                walk_steps / walk_seconds if walk_seconds > 0 else float("inf")
            ),
        }

    return {
        "dataset": dataset,
        "workload": str(UpdateWorkload(workload)),
        "batch_size": batch_size,
        "num_batches": num_batches,
        "total_updates": total_updates,
        "walk_length": walk_length,
        "num_walkers": num_walkers,
        "engines": per_engine,
    }


# --------------------------------------------------------------------------- #
# Figure 16 — piecewise breakdown vs FlowWalker
# --------------------------------------------------------------------------- #
def fig16_piecewise(
    *,
    datasets: Sequence[str] = tuple(DATASETS),
    num_updates: int = 1000,
    num_samples: int = 1000,
    seed: int = 59,
) -> dict[str, dict[str, float]]:
    """Insertion vs deletion vs sampling time for Bingo, and FlowWalker's costs."""
    output: dict[str, dict[str, float]] = {}
    for dataset in datasets:
        rng = ensure_rng(seed)
        graph = build_dataset(dataset, rng=rng)
        insert_stream = generate_update_stream(
            graph, batch_size=num_updates, num_batches=1,
            workload=UpdateWorkload.INSERTION, rng=ensure_rng(seed + 1),
        )
        delete_stream = generate_update_stream(
            graph, batch_size=num_updates, num_batches=1,
            workload=UpdateWorkload.DELETION, rng=ensure_rng(seed + 2),
        )

        # Bingo: streaming insertions, streaming deletions, then samples.
        bingo_insert = run_update_only("bingo", insert_stream, streaming=True, rng=seed + 3)
        bingo_delete = run_update_only("bingo", delete_stream, streaming=True, rng=seed + 3)

        bingo = BingoEngine(rng=seed + 4)
        bingo.build(graph.copy())
        flow = FlowWalkerEngine(rng=seed + 4)
        flow.build(graph.copy())

        starts = sample_start_vertices(graph, 64, rng=seed + 5)
        sample_rng = ensure_rng(seed + 6)
        query = [starts[sample_rng.randrange(len(starts))] for _ in range(num_samples)]

        bingo_sample_start = time.perf_counter()
        for vertex in query:
            bingo.sample_neighbor(vertex)
        bingo_sampling = time.perf_counter() - bingo_sample_start

        flow_sample_start = time.perf_counter()
        for vertex in query:
            flow.sample_neighbor(vertex)
        flow_sampling = time.perf_counter() - flow_sample_start

        # FlowWalker "update": apply both streams as graph edits + reload.
        flow_reload = FlowWalkerEngine(rng=seed + 7)
        flow_reload.build(insert_stream.initial_graph.copy())
        reload_start = time.perf_counter()
        for batch in insert_stream.batches:
            flow_reload.apply_batch(batch)
        flow_reload_seconds = time.perf_counter() - reload_start

        output[dataset] = {
            "bingo_insert_seconds": bingo_insert.update_seconds,
            "bingo_delete_seconds": bingo_delete.update_seconds,
            "bingo_sampling_seconds": bingo_sampling,
            "flowwalker_reload_seconds": flow_reload_seconds,
            "flowwalker_sampling_seconds": flow_sampling,
        }
    return output


# --------------------------------------------------------------------------- #
# Scaling curve — shard-parallel walk execution (Section 9.1)
# --------------------------------------------------------------------------- #
def cross_owner_steps(matrix: np.ndarray, owner: np.ndarray, num_parts: int) -> int:
    """Steps of a ``-1``-padded walk matrix whose endpoints have different owners.

    ``owner[v]`` is vertex ``v``'s part; vertices past the owner column are
    assigned round-robin (``v % num_parts``).  Column ``j`` to ``j + 1`` is
    one step, and padding after a walk ends is none.
    """
    moving = matrix[:, 1:] >= 0

    def owners(vertices: np.ndarray) -> np.ndarray:
        parts = vertices % num_parts
        known = vertices < len(owner)
        parts[known] = owner[vertices[known]]
        return parts

    sources = owners(matrix[:, :-1][moving])
    return int(np.count_nonzero(sources != owners(matrix[:, 1:][moving])))


def scale_workers(
    *,
    dataset: str = "LJ",
    engines: Sequence[str] = SOTA_ENGINES,
    worker_counts: Sequence[int] = (1, 2, 4),
    walk_length: int = 10,
    num_walkers: int | None = None,
    rounds: int = 3,
    strategy: str = "degree_balanced",
    seed: int = 71,
) -> dict[str, object]:
    """Walk throughput vs worker count through the shard pool.

    For every engine and worker count, ``rounds`` DeepWalk rounds run
    through a fresh :class:`~repro.serve.router.ShardServePool` (one walker
    per start vertex, identical starts everywhere), booted from one source
    engine built with the same engine seed.  Each shard runs its starts'
    whole walks.  Two throughputs are reported per cell:

    * ``wall_steps_per_second`` — wall clock, which only scales when the
      host actually has spare cores;
    * ``steps_per_second`` — the critical-path model: total steps divided by
      the busiest shard's walk CPU time, summed over rounds.  This is the
      device-model throughput (one simulated device per shard), the same
      convention Figure 12 uses for batched-update parallelism, and the
      quantity whose scaling curve the paper's Section 9.1 ablation plots.

    ``transfer_rate`` is counted from the finished walk matrices against
    the pool's partition: the share of steps that cross a shard boundary,
    i.e. the hand-off rate the paper's walker-moving policy would incur.

    ``speedup_vs_baseline`` compares the modelled throughput against the
    smallest requested worker count (``speedup_baseline_workers`` in the
    report); when that baseline is 1 worker — whose walk matrices are
    bitwise-identical to the serial frontier — the same ratio is also
    emitted as ``speedup_vs_1``.
    """
    import os

    from repro.graph.partition import partition_graph
    from repro.serve.router import ShardServePool
    from repro.utils.timing import PhaseTimer
    from repro.walks.frontier import BatchedWalks

    if rounds < 1:
        raise BenchmarkError("scale experiment needs at least one round")
    counts = sorted({int(count) for count in worker_counts})
    if not counts or counts[0] < 1:
        raise BenchmarkError("worker counts must be positive integers")

    rng = ensure_rng(seed)
    graph = build_dataset(dataset, rng=rng)
    starts = np.asarray(
        sample_start_vertices(
            graph,
            num_walkers if num_walkers is not None else graph.num_vertices,
            rng=seed + 1,
        ),
        dtype=np.int64,
    )

    # The pool partitions with the same deterministic partition_graph, so
    # these engine-independent metrics describe the layout it runs.
    layouts: dict[int, dict[str, float]] = {}
    for workers in counts:
        partition = partition_graph(graph, workers, strategy=strategy)
        layouts[workers] = {
            "edge_cut": partition.edge_cut(graph),
            "balance": partition.balance(graph),
        }

    per_engine: dict[str, dict[int, dict[str, object]]] = {}
    for engine_name in engines:
        rows: dict[int, dict[str, object]] = {}
        for workers in counts:
            source = create_engine(engine_name, rng=seed + 2)
            source.build(graph.copy())
            timer = PhaseTimer()
            total_steps = 0
            critical_seconds = 0.0
            pool = ShardServePool(
                engine_name=engine_name,
                engine_kwargs=None,
                engine_seed=seed + 2,
                graph=source.graph,
                num_shards=workers,
                strategy=strategy,
                source_engine=source,
                epoch=0,
            )
            try:
                transfers = 0
                round_walk_seconds = []
                for round_index in range(rounds):
                    with timer.measure("walk"):
                        matrix, busy = pool.run(
                            "deepwalk",
                            starts,
                            walk_length,
                            {},
                            (seed + 3 + round_index,),
                            0,
                        )
                    total_steps += BatchedWalks(matrix=matrix).total_steps
                    critical_seconds += max(busy)
                    transfers += cross_owner_steps(matrix, pool.owner, workers)
                    # One reused timer, one summary per round (PhaseTimer's
                    # round-reset semantics keep later rounds honest).
                    round_walk_seconds.append(timer.finish_round()["walk"])
            finally:
                pool.close()
            wall_seconds = timer.totals()["walk"]
            rows[workers] = {
                "steps": total_steps,
                "wall_seconds": wall_seconds,
                "round_walk_seconds": round_walk_seconds,
                "critical_path_seconds": critical_seconds,
                "wall_steps_per_second": (
                    total_steps / wall_seconds if wall_seconds > 0 else float("inf")
                ),
                "steps_per_second": (
                    total_steps / critical_seconds
                    if critical_seconds > 0
                    else float("inf")
                ),
                "transfer_rate": transfers / total_steps if total_steps else 0.0,
                **layouts[workers],
            }
        baseline = rows[counts[0]]["steps_per_second"]
        for row in rows.values():
            speedup = (
                row["steps_per_second"] / baseline if baseline > 0 else float("inf")
            )
            row["speedup_vs_baseline"] = speedup
            if counts[0] == 1:
                row["speedup_vs_1"] = speedup
        per_engine[engine_name] = rows

    return {
        "dataset": dataset,
        "walk_length": walk_length,
        "num_walkers": len(starts),
        "rounds": rounds,
        "strategy": strategy,
        "worker_counts": counts,
        "speedup_baseline_workers": counts[0],
        "host_cpus": os.cpu_count(),
        "note": (
            "steps_per_second is the critical-path (busiest-shard CPU time) "
            "device model; wall_steps_per_second only scales with spare host "
            "cores; transfer_rate is the hand-off rate the paper's "
            "walker-moving policy would incur on the same partition, counted "
            "from the walks"
        ),
        "engines": per_engine,
    }
