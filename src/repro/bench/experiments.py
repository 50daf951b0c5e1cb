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
    """Insert/delete, rebuild and sampling time with and without group adaption."""
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
            for batch in stream.batches:
                engine.apply_batch(batch)
            starts = sample_start_vertices(stream.initial_graph, 64, rng=seed + 2)
            sample_rng = ensure_rng(seed + 3)
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
        scalar_steps = frontier_steps = 0
        scalar_seconds = frontier_seconds = 0.0
        for round_index in range(rounds):
            round_start = time.perf_counter()
            scalar_steps += run_deepwalk(engine, config, starts=starts).total_steps
            scalar_seconds += time.perf_counter() - round_start

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
    """Update-ingestion throughput of the three ingestion paths per engine.

    For every engine, the identical update stream is ingested three ways:

    * ``columnar`` — the batched columnar pipeline (``apply_batch`` on
      :class:`~repro.graph.update_batch.UpdateBatch` columns);
    * ``legacy_batch`` — the pre-columnar batched path
      (``apply_batch_scalar``: per-edge Python loops, one scalar rebuild per
      touched vertex);
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
        legacy = timed_ingest(engine_name, "apply_batch_scalar", scalar_batches)
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
            "legacy_batch_updates_per_second": legacy,
            "streaming_updates_per_second": streaming,
            "columnar_vs_legacy_batch": columnar / legacy if legacy > 0 else float("inf"),
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
# Streaming serve — concurrent ingest + snapshot-isolated walk queries
# --------------------------------------------------------------------------- #
def streaming_serve(
    *,
    dataset: str = "LJ",
    engines: Sequence[str] = SOTA_ENGINES,
    application: str = "deepwalk",
    workload: str = "mixed",
    batch_size: int = 1000,
    num_batches: int = 4,
    walk_length: int = 12,
    queries_per_round: int = 12,
    walkers_per_query: int = 320,
    fuse_limit: int | None = None,
    fuse_window_seconds: float = 0.004,
    seed: int = 79,
) -> dict[str, object]:
    """Strict-alternation vs concurrent serve throughput per engine.

    The identical mixed read/write workload — ``num_batches`` update batches,
    each followed by a wave of ``queries_per_round`` walk queries of
    ``walkers_per_query`` walkers — is executed twice per engine through the
    same :class:`~repro.serve.GraphService` code path:

    * ``alternation`` — sync mode: ingest a batch, then serve the wave one
      query at a time (the strict update-then-walk loop every prior layer
      runs).  Its duration is the serial sum of update and walk busy time.
    * ``concurrent`` — async mode: the writer thread ingests and publishes
      epochs while the dispatcher fuses each wave into one batched frontier
      against the published snapshot.

    Busy times are per-thread CPU seconds, so the concurrent cell reports
    both the wall clock (which cannot overlap threads on a starved host)
    and the two-device overlap model ``max(update_busy, query_busy)`` — the
    same critical-path convention the fig12 and scale experiments use.
    Fused queries are a *measured* win, not a modelled one: the dispatcher
    really runs one frontier of ``queries * walkers`` walkers.
    """
    import os

    from repro.serve import GraphService, WalkQuery

    if queries_per_round < 1 or walkers_per_query < 1:
        raise BenchmarkError("streaming serve needs at least one query and walker")
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
    fuse = int(fuse_limit) if fuse_limit is not None else int(queries_per_round)

    # Identical query workload for every engine and both modes: per-wave
    # start sets and per-query seeds drawn once up front.
    placement_rng = ensure_rng(seed + 1)
    waves: list[list[WalkQuery]] = []
    for _ in range(num_batches):
        wave = []
        for _ in range(queries_per_round):
            starts = sample_start_vertices(
                stream.initial_graph,
                walkers_per_query,
                rng=placement_rng.randrange(1 << 30),
            )
            wave.append(
                WalkQuery(
                    application=application,
                    starts=starts,
                    walk_length=walk_length,
                    rng=placement_rng.randrange(1 << 30),
                )
            )
        waves.append(wave)
    total_queries = num_batches * queries_per_round

    def run_mode(engine_name: str, concurrent: bool):
        service = GraphService(
            engine_name,
            stream.initial_graph,
            rng=seed + 2,
            sync=not concurrent,
            max_pending_queries=max(total_queries, 2),
            fuse_limit=fuse,
            fuse_window_seconds=fuse_window_seconds,
            service_seed=seed + 3,
        )
        tickets = []
        wall_start = time.perf_counter()
        try:
            for batch, wave in zip(stream.batches, waves):
                service.ingest(batch)
                if concurrent:
                    tickets.extend(service.submit_many(wave))
                else:
                    for query in wave:
                        tickets.extend(service.submit_many([query]))
            service.flush()
            results = [ticket.result(timeout=600.0) for ticket in tickets]
            wall_seconds = time.perf_counter() - wall_start
            stats = service.stats
        finally:
            service.close()
        return stats, results, wall_seconds

    per_engine: dict[str, dict[str, object]] = {}
    for engine_name in engines:
        alt_stats, alt_results, alt_wall = run_mode(engine_name, concurrent=False)
        alt_seconds = alt_stats.update_busy_seconds + alt_stats.query_busy_seconds
        alt_steps = alt_stats.total_walk_steps

        con_stats, con_results, con_wall = run_mode(engine_name, concurrent=True)
        con_steps = con_stats.total_walk_steps
        modelled = max(
            con_stats.update_busy_seconds, con_stats.query_busy_seconds
        )
        percentiles = con_stats.latency_percentiles()

        per_engine[engine_name] = {
            "alternation_update_seconds": alt_stats.update_busy_seconds,
            "alternation_walk_seconds": alt_stats.query_busy_seconds,
            "alternation_seconds": alt_seconds,
            "alternation_updates_per_second": (
                stream.num_updates / alt_seconds if alt_seconds > 0 else float("inf")
            ),
            "alternation_steps_per_second": (
                alt_steps / alt_seconds if alt_seconds > 0 else float("inf")
            ),
            "concurrent_update_busy_seconds": con_stats.update_busy_seconds,
            "concurrent_query_busy_seconds": con_stats.query_busy_seconds,
            "concurrent_modelled_seconds": modelled,
            "concurrent_wall_seconds": con_wall,
            "updates_per_second": (
                stream.num_updates / modelled if modelled > 0 else float("inf")
            ),
            "steps_per_second": (
                con_steps / modelled if modelled > 0 else float("inf")
            ),
            "concurrent_vs_alternation": (
                alt_seconds / modelled if modelled > 0 else float("inf")
            ),
            "query_latency_p50_seconds": percentiles["p50"],
            "query_latency_p99_seconds": percentiles["p99"],
            "queries_served": con_stats.queries_served,
            "mean_fused_queries": con_stats.mean_fused_queries(),
            "epochs_published": con_stats.epochs_published,
            "catchup_updates": con_stats.catchup_updates,
            "total_walk_steps": con_steps,
        }

    return {
        "dataset": dataset,
        "application": application,
        "workload": str(UpdateWorkload(workload)),
        "batch_size": batch_size,
        "num_batches": num_batches,
        "total_updates": stream.num_updates,
        "walk_length": walk_length,
        "queries_per_round": queries_per_round,
        "walkers_per_query": walkers_per_query,
        "total_queries": total_queries,
        "fuse_limit": fuse,
        "host_cpus": os.cpu_count(),
        "note": (
            "busy seconds are per-thread CPU time; concurrent_modelled_seconds "
            "= max(update_busy, query_busy) is the two-device overlap model "
            "(same convention as fig12/scale), wall seconds are also reported; "
            "query fusion is measured, not modelled"
        ),
        "engines": per_engine,
    }


# --------------------------------------------------------------------------- #
# Multi-tenant serving — fair-share fusing + back-buffer warming (PR 5)
# --------------------------------------------------------------------------- #
def multi_tenant_serve(
    *,
    dataset: str = "LJ",
    engine: str = "bingo",
    application: str = "deepwalk",
    walk_length: int = 10,
    light_walkers: int = 256,
    light_queries: int = 40,
    flood_walkers: int = 32,
    flood_queries: int = 400,
    fuse_limit: int = 4,
    fuse_window_seconds: float = 0.002,
    batch_size: int = 1000,
    num_batches: int = 6,
    workload: str = "mixed",
    probe_walkers: int = 64,
    seed: int = 97,
) -> dict[str, object]:
    """Fairness under a flooding co-tenant, and warm vs cold epoch flips.

    **Fairness.**  A *light* tenant runs a closed loop — submit one
    ``light_walkers``-walker query, wait for the result, repeat
    ``light_queries`` times — under three service configurations:

    * ``solo`` — the light tenant is alone (its baseline p50/p99);
    * ``fair_share`` — a *flood* tenant dumps ``flood_queries`` queries up
      front into its own lane; the deficit-round-robin fuser mixes both
      lanes into every fused wave, so the light tenant's latency tracks
      the wave time, not the flood's queue depth;
    * ``shared_queue`` — the same flood, but the light tenant submits into
      the *flood's* lane (the PR 4 single-queue world): every light query
      waits behind the whole backlog.

    The acceptance bar is ``fair_share.p99 <= 3 * solo.p99`` while
    ``shared_queue.p99`` blows up by orders of magnitude.

    **Warming.**  The identical update stream is ingested twice through
    the double-buffered service, once with ``warm_on_publish`` off and
    once on; after every epoch flip one probe query measures the
    cold-start spike.  Warm flips must beat cold flips at p99 — the probe
    pays a table gather instead of the full fused-table build.
    """
    import numpy as np

    from repro.serve import GraphService, TenantQuota, WalkQuery

    if light_queries < 1 or flood_queries < 1:
        raise BenchmarkError("multi-tenant serve needs light and flood queries")
    rng = ensure_rng(seed)
    graph = build_dataset(dataset, rng=rng)
    placement_rng = ensure_rng(seed + 1)
    light_starts = sample_start_vertices(
        graph, light_walkers, rng=placement_rng.randrange(1 << 30)
    )
    flood_starts = sample_start_vertices(
        graph, flood_walkers, rng=placement_rng.randrange(1 << 30)
    )
    probe_starts = sample_start_vertices(
        graph, probe_walkers, rng=placement_rng.randrange(1 << 30)
    )

    def percentiles(samples: list[float]) -> dict[str, float]:
        array = np.asarray(samples, dtype=np.float64)
        return {
            "p50": float(np.percentile(array, 50)),
            "p99": float(np.percentile(array, 99)),
        }

    def run_light(*, flood: bool, fair: bool) -> dict[str, object]:
        service = GraphService(
            engine,
            graph,
            rng=seed + 2,
            fuse_limit=fuse_limit,
            fuse_window_seconds=fuse_window_seconds,
            service_seed=seed + 3,
            # Serve warm so every mode measures queueing + wave time, not
            # the one-off construction-time fused-table build.
            warm_on_publish=True,
            tenants={
                "light": TenantQuota(max_pending=light_queries + 2),
                "flood": TenantQuota(max_pending=flood_queries + light_queries + 2),
            },
        )
        light_tenant = "light" if fair else "flood"
        latencies: list[float] = []
        try:
            if flood:
                service.submit_many(
                    [
                        WalkQuery(
                            application=application,
                            starts=flood_starts,
                            walk_length=walk_length,
                        )
                        for _ in range(flood_queries)
                    ],
                    tenant="flood",
                )
            for _ in range(light_queries):
                result = service.query(
                    application,
                    light_starts,
                    walk_length,
                    tenant=light_tenant,
                    timeout=600.0,
                )
                latencies.append(result.latency_seconds)
            tenant_stats = {
                name: {
                    "admitted": stats.admitted,
                    "served": stats.served,
                    "rejected": stats.rejected,
                }
                for name, stats in service.tenant_stats().items()
            }
        finally:
            service.close()
        return {**percentiles(latencies), "tenants": tenant_stats}

    solo = run_light(flood=False, fair=True)
    fair_share = run_light(flood=True, fair=True)
    shared_queue = run_light(flood=True, fair=False)

    # ---------------------------------------------------------------- #
    # warm vs cold epoch flips
    # ---------------------------------------------------------------- #
    stream = generate_update_stream(
        graph,
        batch_size=min(batch_size, max(1, graph.num_edges // (num_batches + 1))),
        num_batches=num_batches,
        workload=UpdateWorkload(workload),
        rng=ensure_rng(seed + 4),
    )

    def run_flips(warm: bool) -> dict[str, object]:
        service = GraphService(
            engine,
            stream.initial_graph,
            rng=seed + 5,
            fuse_limit=1,
            fuse_window_seconds=0.0,
            service_seed=seed + 6,
            warm_on_publish=warm,
        )
        probe_latencies: list[float] = []
        try:
            for batch in stream.batches:
                service.ingest(batch)
                service.flush()
                result = service.query(
                    application, probe_starts, walk_length, timeout=600.0
                )
                probe_latencies.append(result.latency_seconds)
            stats = service.stats
            warm_seconds = stats.warm_seconds
            epochs_warmed = stats.epochs_warmed
        finally:
            service.close()
        return {
            **percentiles(probe_latencies),
            "probe_latencies_seconds": probe_latencies,
            "warm_seconds": warm_seconds,
            "epochs_warmed": epochs_warmed,
        }

    cold = run_flips(warm=False)
    warm = run_flips(warm=True)

    return {
        "dataset": dataset,
        "engine": engine,
        "application": application,
        "walk_length": walk_length,
        "fuse_limit": fuse_limit,
        "fairness": {
            "light_walkers": light_walkers,
            "light_queries": light_queries,
            "flood_walkers": flood_walkers,
            "flood_queries": flood_queries,
            "solo": solo,
            "fair_share": fair_share,
            "shared_queue": shared_queue,
            "fair_vs_solo_p99": (
                fair_share["p99"] / solo["p99"] if solo["p99"] > 0 else float("inf")
            ),
            "shared_vs_solo_p99": (
                shared_queue["p99"] / solo["p99"] if solo["p99"] > 0 else float("inf")
            ),
        },
        "warming": {
            "flips": stream.num_batches,
            "updates_per_flip": (
                stream.num_updates // stream.num_batches if stream.num_batches else 0
            ),
            "probe_walkers": probe_walkers,
            "cold": cold,
            "warm": warm,
            "warm_vs_cold_p99": (
                warm["p99"] / cold["p99"] if cold["p99"] > 0 else float("inf")
            ),
        },
        "note": (
            "latencies are wall-clock submit-to-resolve seconds; fairness runs "
            "a closed-loop light tenant against a queued flood (fair_share = "
            "per-tenant DRR lanes, shared_queue = both tenants in one FIFO "
            "lane); warming probes the first query after every epoch flip "
            "with warm_on_publish off/on"
        ),
    }


# --------------------------------------------------------------------------- #
# Scaling curve — epoch-delta publication cost vs graph size
# --------------------------------------------------------------------------- #
def scale_flip(
    *,
    engine: str = "bingo",
    scales: Sequence[int] = (9, 10, 11),
    edge_factor: int = 8,
    batch_size: int = 64,
    num_batches: int = 6,
    repeats: int = 3,
    seed: int = 83,
) -> dict[str, object]:
    """Warm-cost-per-flip vs graph size: dirty-set delta vs full rebuild.

    For every R-MAT ``scale`` (``2**scale`` vertices, ``edge_factor *
    2**scale`` edges) update batches touching exactly ``batch_size``
    distinct, uniformly drawn source vertices are applied to one fused
    engine (each source inserts one edge to a fresh sink vertex, so no
    batch ever collides with an existing edge and the touched set is the
    same size at every scale), and the cost of re-publishing the fused
    frontier tables is measured twice per flip:

    * ``delta`` — :meth:`warm_frontier_tables` re-derives only the batch's
      dirty vertex slices inside the sliced stores (the epoch-delta path
      the serving writer ships);
    * ``full`` — the frontier cache is invalidated wholesale and the
      tables re-concatenated end to end, the pre-delta publication cost.

    The per-vertex sampler caches are primed *before* either timing: those
    are maintained by the update path in both worlds, so the timed regions
    isolate publication cost — each slice's gather from its sampler plus
    the O(touched) slice repair vs the O(V) re-concatenation.  At a fixed batch size the delta median must stay
    flat while vertices grow 4x and the full-rebuild median grows roughly
    linearly with the vertex count — the gap ``scripts/check_bench.py``
    gates on through the committed ``BENCH_PR6.json``.
    """
    import statistics

    from repro.graph.generators import rmat_graph
    from repro.graph.update_batch import GraphUpdate, UpdateBatch, UpdateKind

    if num_batches < 1:
        raise BenchmarkError("scale_flip needs at least one batch per scale")
    if batch_size < 1:
        raise BenchmarkError("scale_flip batch size must be positive")
    if repeats < 1:
        raise BenchmarkError("scale_flip needs at least one timing repeat")
    sweep = sorted({int(scale) for scale in scales})
    if not sweep or sweep[0] < 1:
        raise BenchmarkError("scale_flip scales must be positive integers")
    if batch_size > (1 << sweep[0]):
        raise BenchmarkError(
            "scale_flip batch size exceeds the smallest scale's vertex count"
        )

    rows: list[dict[str, object]] = []
    for scale in sweep:
        graph = rmat_graph(scale, edge_factor, rng=ensure_rng(seed + scale))
        generator = ensure_rng(seed + 100 + scale)
        base_vertices = graph.num_vertices
        instance = create_engine(engine, rng=seed + 1)
        instance.build(graph)
        warm = getattr(instance, "warm_frontier_tables", None)
        if warm is None:
            raise BenchmarkError(
                f"engine {engine!r} does not publish fused frontier tables; "
                "scale_flip measures the fused-table warm path"
            )
        tables = instance.frontier_tables

        def prime(vertices) -> None:
            # Re-derive the touched vertices' sampler caches outside the
            # timed regions: sampler maintenance happens on the update path
            # in both the delta and the pre-delta world.  Slice parts are
            # not cached, so both timed arms still pay their gather.
            for vertex in vertices:
                instance._frontier_parts(vertex)

        warm()  # the one cold build; every flip below is a delta against it
        delta_seconds: list[float] = []
        full_seconds: list[float] = []
        delta_vertices = 0
        delta_full_rebuilds = 0
        for flip in range(num_batches):
            touched = generator.sample(range(base_vertices), batch_size)
            sink = base_vertices + flip  # fresh vertex: never a duplicate edge
            batch = UpdateBatch.from_updates(
                [
                    GraphUpdate(UpdateKind.INSERT, src, sink, 1.0, position)
                    for position, src in enumerate(touched)
                ]
            )
            instance.apply_batch(batch)
            prime(touched)
            # Slice repair is idempotent (same widths patch in place), so
            # re-dirtying the same touched set and repairing again measures
            # the same work; min-of-repeats strips scheduler noise from the
            # sub-millisecond samples.
            samples = []
            for attempt in range(repeats):
                if attempt:
                    tables.mark_dirty(touched)
                started = time.perf_counter()
                delta = warm()
                samples.append(time.perf_counter() - started)
                if attempt == 0:
                    delta_vertices += delta.vertices
                    delta_full_rebuilds += int(delta.full_rebuild)
            delta_seconds.append(min(samples))
            # The monolithic pre-delta behaviour: any update invalidated
            # the whole cache, so publication re-concatenated every slice.
            samples = []
            for attempt in range(repeats):
                tables.invalidate()
                if attempt == 0:
                    prime(range(instance.num_vertices()))
                started = time.perf_counter()
                warm()
                samples.append(time.perf_counter() - started)
            full_seconds.append(min(samples))
        flips = num_batches
        delta_median = statistics.median(delta_seconds)
        full_median = statistics.median(full_seconds)
        rows.append(
            {
                "scale": scale,
                # The pre-flip count: the sweep's independent variable
                # (each flip adds one sink vertex on top).
                "num_vertices": base_vertices,
                "num_edges": graph.num_edges,
                "flips": flips,
                "delta_vertices_per_flip": delta_vertices / flips,
                "delta_full_rebuilds": delta_full_rebuilds,
                "delta_warm_seconds_per_flip": delta_median,
                "full_rebuild_seconds_per_flip": full_median,
                "full_vs_delta": (
                    full_median / delta_median if delta_median > 0 else float("inf")
                ),
                "delta_warm_seconds": delta_seconds,
                "full_rebuild_seconds": full_seconds,
            }
        )

    smallest, largest = rows[0], rows[-1]
    return {
        "engine": engine,
        "edge_factor": edge_factor,
        "batch_size": batch_size,
        "num_batches": num_batches,
        "repeats": repeats,
        "scales": rows,
        "vertex_growth": largest["num_vertices"] / smallest["num_vertices"],
        "delta_flatness": (
            largest["delta_warm_seconds_per_flip"]
            / smallest["delta_warm_seconds_per_flip"]
            if smallest["delta_warm_seconds_per_flip"] > 0
            else float("inf")
        ),
        "full_vs_delta_at_largest": largest["full_vs_delta"],
        "note": (
            "per-flip medians of min-of-repeats wall-clock seconds with "
            "per-vertex sampler tables primed outside the timed regions; "
            "delta = dirty-set slice repair (warm_frontier_tables), full = "
            "wholesale cache invalidation + end-to-end re-concatenation at "
            "the same point in the update stream; batch size is fixed so "
            "delta cost tracks touched vertices, not graph size"
        ),
    }


# --------------------------------------------------------------------------- #
# Scaling curve — shard-parallel walk execution (Section 9.1)
# --------------------------------------------------------------------------- #
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

    import numpy as np

    from repro.gpu.multi_device import MultiDeviceTracker
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
                tracker = MultiDeviceTracker(pool.owner, workers)
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
                    tracker.record_walk_matrix(matrix)
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
                "transfer_rate": tracker.stats.transfer_rate(),
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


def chaos_serve(
    *,
    dataset: str = "AM",
    engine: str = "bingo",
    application: str = "deepwalk",
    walk_length: int = 8,
    num_walkers: int = 48,
    queries_per_batch: int = 3,
    batch_size: int = 150,
    num_batches: int = 6,
    workload: str = "mixed",
    http_queries: int = 8,
    seed: int = 41,
) -> dict[str, object]:
    """The chaos suite: seeded faults against the self-healing serve layer.

    Three scenarios, one seeded :class:`~repro.serve.FaultPlan` each, all
    feeding one ticket ledger:

    * **writer** — a double-buffered service ingests ``num_batches``
      *insertion* batches (insert-only batches are mutually independent,
      so quarantining one cannot poison its successors the way a mixed
      stream's delete-what-you-inserted ordering does) with sampled
      ``writer.apply`` failures (plus one guaranteed at the first batch)
      and short ``dispatcher.wave`` delays.  Poisoned batches must land
      in the dead-letter list while the healthy remainder still publish
      and every interleaved query resolves; the scenario runs **twice**
      with the same seed and the two injector histories must be identical
      (the replayability gate).  MTTR is
      ``recovery_seconds / writer_recoveries``.
    * **worker** — a two-shard :class:`~repro.serve.RouterService` takes
      a scheduled ``kill_worker`` on its second ``router.dispatch``; the
      router must respawn the dead shard from the current snapshot and
      retry the wave once, so every ticket still resolves.  (The router
      needs a sliced-table engine: bingo, knightking or gsampler.)
    * **http** — the event-loop front-end drops injected 503s on a
      :class:`~repro.serve.ServiceClient`, whose capped-backoff retries
      (honouring ``Retry-After``) must hide them from the caller.

    The headline numbers — ``tickets.success_rate`` (must be ≥ 0.99),
    ``tickets.hung`` (must be 0, the no-hung-tickets contract) and
    ``replay_identical`` — are what the PR 7 gate in
    ``scripts/check_bench.py`` pins.
    """
    from repro.serve import (
        FaultInjector,
        FaultPlan,
        GraphService,
        RouterService,
        ServiceClient,
        ServiceConfig,
        TenantQuota,
        WalkQuery,
        serve_event_loop,
    )
    from repro.serve.faults import chaos_points

    if queries_per_batch < 1 or http_queries < 1:
        raise BenchmarkError("chaos_serve needs at least one query per scenario")
    graph = build_dataset(dataset, rng=ensure_rng(seed))
    # Serving workloads repeat popular start vertices, so the walker count
    # is not capped by the synthetic dataset's vertex count: top the
    # distinct sample up with replacement.  Without this the per-query
    # numpy step constants swamp the partitioned per-walker work and the
    # scale-out measurement would be meaningless on the small datasets.
    starts = sample_start_vertices(graph, num_walkers, rng=seed + 1)
    if starts and len(starts) < num_walkers:
        filler = ensure_rng(seed + 1)
        starts = starts + [
            starts[filler.randrange(len(starts))]
            for _ in range(num_walkers - len(starts))
        ]
    effective_batch = min(
        batch_size, max(1, graph.num_edges // (num_batches + 1))
    )
    stream = generate_update_stream(
        graph,
        batch_size=effective_batch,
        num_batches=num_batches,
        workload=UpdateWorkload(workload),
        rng=seed + 2,
    )
    writer_stream = generate_update_stream(
        graph,
        batch_size=effective_batch,
        num_batches=num_batches,
        workload=UpdateWorkload.INSERTION,
        rng=seed + 2,
    )
    ledger = {"submitted": 0, "resolved": 0, "failed": 0, "hung": 0}

    def settle(tickets) -> None:
        for ticket in tickets:
            ledger["submitted"] += 1
            try:
                ticket.result(timeout=120.0)
                ledger["resolved"] += 1
            except Exception:
                # A clean error still honours the never-hang contract;
                # only an unresolved ticket is a chaos failure.
                ledger["failed" if ticket.done else "hung"] += 1

    # ---------------------------------------------------------------- #
    # scenario 1: writer self-healing (run twice for replay identity)
    # ---------------------------------------------------------------- #
    def writer_plan() -> FaultPlan:
        plan = FaultPlan.sample(
            seed, {"writer.apply": 0.25}, horizon=num_batches
        )
        plan.fail("writer.apply", 0, message="guaranteed chaos fault")
        plan.delay("dispatcher.wave", 1, 0.01)
        return plan

    def run_writer(count_tickets: bool) -> dict[str, object]:
        injector = FaultInjector(writer_plan())
        service = GraphService(
            engine,
            writer_stream.initial_graph,
            rng=seed + 3,
            service_seed=seed + 4,
            warm_on_publish=True,
            fault_injector=injector,
            writer_recovery_limit=num_batches + 1,
        )
        tickets = []
        try:
            for batch in writer_stream.batches:
                service.ingest(batch)
                tickets.extend(
                    service.submit_many(
                        [
                            WalkQuery(application, starts, walk_length)
                            for _ in range(queries_per_batch)
                        ]
                    )
                )
                service.flush()
            if count_tickets:
                settle(tickets)
            else:
                for ticket in tickets:
                    ticket.result(timeout=120.0)
            stats = service.stats_snapshot()
        finally:
            service.close(drain=True)
        recoveries = int(stats["writer_recoveries"])
        return {
            "history": chaos_points(injector.history()),
            "recoveries": recoveries,
            "batches_quarantined": int(stats["batches_quarantined"]),
            "dead_letter_depth": len(stats["dead_letter"]),
            "epochs_published": int(stats["epochs_published"]),
            "recovery_seconds": float(stats["recovery_seconds"]),
            "mttr_seconds": (
                float(stats["recovery_seconds"]) / recoveries
                if recoveries
                else 0.0
            ),
        }

    writer_first = run_writer(count_tickets=True)
    writer_second = run_writer(count_tickets=False)
    replay_identical = writer_first["history"] == writer_second["history"]

    # ---------------------------------------------------------------- #
    # scenario 2: worker crash + respawn mid-wave
    # ---------------------------------------------------------------- #
    kill_plan = FaultPlan().kill_worker("router.dispatch", 1, shard=1)
    kill_injector = FaultInjector(kill_plan)
    service = RouterService(
        engine,
        stream.initial_graph,
        shards=2,
        rng=seed + 5,
        service_seed=seed + 6,
        fault_injector=kill_injector,
    )
    try:
        # Two waves, settled one after the other: the second dispatch
        # takes the kill.
        for _ in range(2):
            settle(
                service.submit_many(
                    [
                        WalkQuery(application, starts, walk_length)
                        for _ in range(queries_per_batch)
                    ]
                )
            )
        # A post-crash ingest proves the respawned pool also flips.
        service.ingest(stream.batches[0])
        service.flush()
        settle(
            service.submit_many([WalkQuery(application, starts, walk_length)])
        )
        worker_stats = service.stats_snapshot()
    finally:
        service.close(drain=True)
    worker_summary = {
        "respawns": int(worker_stats["worker_respawns"]),
        "wave_retries": int(worker_stats["wave_retries"]),
        "history": chaos_points(kill_injector.history()),
    }

    # ---------------------------------------------------------------- #
    # scenario 3: HTTP 503s hidden by client backoff
    # ---------------------------------------------------------------- #
    http_plan = FaultPlan()
    for index in range(0, http_queries, 3):
        http_plan.fail("http.handler", index, message="chaos front-end fault")
    http_injector = FaultInjector(http_plan)
    service = GraphService(
        engine,
        stream.initial_graph,
        rng=seed + 7,
        service_seed=seed + 8,
        default_quota=TenantQuota(max_pending=64),
    )
    server = None
    client_retries = 0
    http_resolved = 0
    expired = 0
    try:
        server, _ = serve_event_loop(
            service,
            config=ServiceConfig(retry_after_seconds=0.05),
            fault_injector=http_injector,
        )
        client = ServiceClient(
            server.url, max_retries=4, backoff_seconds=0.05, timeout=120.0
        )
        for _ in range(http_queries):
            ledger["submitted"] += 1
            try:
                client.query(
                    application,
                    starts,
                    walk_length,
                    timeout=120.0,
                    deadline_seconds=120.0,
                )
                ledger["resolved"] += 1
                http_resolved += 1
            except Exception:
                ledger["failed"] += 1
        client_retries = client.retries_performed
        expired = int(service.stats_snapshot()["queries_expired"])
    finally:
        if server is not None:
            server.shutdown()
        service.close()
    http_summary = {
        "queries": http_queries,
        "resolved": http_resolved,
        "client_retries": int(client_retries),
        "injected_faults": len(http_plan),
        "queries_expired": expired,
        "history": chaos_points(http_injector.history()),
    }

    submitted = ledger["submitted"]
    success_rate = ledger["resolved"] / submitted if submitted else 0.0
    return {
        "experiment": "chaos_serve",
        "dataset": dataset,
        "engine": engine,
        "application": application,
        "seed": seed,
        "walk_length": walk_length,
        "num_batches": num_batches,
        "tickets": {**ledger, "success_rate": success_rate},
        "writer": {
            key: value for key, value in writer_first.items() if key != "history"
        },
        "worker": worker_summary,
        "http": http_summary,
        "replay_identical": replay_identical,
        "fault_history": writer_first["history"],
        "note": (
            "success_rate counts every chaos-scenario query; hung is the "
            "count of tickets that never resolved (the gate pins it to 0)"
        ),
    }


def concurrency_sweep(
    *,
    dataset: str = "AM",
    engine: str = "bingo",
    application: str = "deepwalk",
    walk_length: int = 8,
    num_walkers: int = 32,
    low_clients: int = 64,
    high_clients: int = 640,
    queries_per_phase: int = 384,
    wire_walkers: int = 256,
    wire_walk_length: int = 40,
    wire_queries: int = 6,
    seed: int = 67,
) -> dict[str, object]:
    """PR 8 headline: keep-alive connection scaling + binary wire format.

    Against the event-loop front-end the sweep opens ``low_clients`` and
    then ``high_clients`` persistent keep-alive
    :class:`~repro.serve.ServiceClient` connections, issues the *same*
    number of walk queries round-robin across them in both phases (so the
    p50/p99 comparison is load-for-load), and records how many OS threads
    the server grew to hold the connections: the loop holds every
    connection in one ``selectors`` thread, so
    ``clients_per_server_thread`` equals the client count.

    The ``check_bench.py`` PR 8 gate pins the event loop to
    ``clients_per_server_thread >= 10`` at the high client count with
    ``high_vs_low_p99 <= 2`` (latency must not degrade with connection
    count — the ROADMAP's 10k-client target in miniature).

    The server also gets a JSON-vs-binary transfer comparison: the same
    large query (``wire_walkers`` × ``wire_walk_length``) repeated
    ``wire_queries`` times per format, binary negotiated via
    ``Accept: application/x-walks-bin`` and decoded zero-copy
    (:mod:`repro.serve.wire`).
    """
    import threading as _threading

    import numpy as np

    from repro.serve import (
        GraphService,
        ServiceClient,
        TenantQuota,
        serve_event_loop,
    )

    if low_clients < 1 or high_clients <= low_clients:
        raise BenchmarkError(
            "concurrency_sweep needs 1 <= low_clients < high_clients"
        )
    if queries_per_phase < 1 or wire_queries < 1:
        raise BenchmarkError("concurrency_sweep needs at least one query")
    graph = build_dataset(dataset, rng=ensure_rng(seed))
    starts = sample_start_vertices(graph, num_walkers, rng=seed + 1)
    wire_starts = sample_start_vertices(graph, wire_walkers, rng=seed + 2)

    def percentiles(samples: list[float]) -> dict[str, float]:
        array = np.asarray(samples, dtype=np.float64)
        return {
            "p50": float(np.percentile(array, 50)),
            "p99": float(np.percentile(array, 99)),
        }

    def run_phase(url: str, clients_count: int, baseline_threads: int):
        clients = [
            ServiceClient(url, max_retries=2, backoff_seconds=0.05, timeout=120.0)
            for _ in range(clients_count)
        ]
        try:
            # Open every keep-alive connection up front (a cheap GET per
            # client), then measure the server's thread growth while all
            # of them are held open.
            for client in clients:
                client.health()
            peak_threads = _threading.active_count()
            latencies: list[float] = []
            begin = time.perf_counter()
            for index in range(queries_per_phase):
                client = clients[index % clients_count]
                t0 = time.perf_counter()
                client.query(
                    application, starts, walk_length, timeout=120.0
                )
                latencies.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - begin
        finally:
            for client in clients:
                client.close()
        stats = percentiles(latencies)
        return {
            "clients": int(clients_count),
            "queries": int(queries_per_phase),
            "p50": stats["p50"],
            "p99": stats["p99"],
            "queries_per_second": (
                queries_per_phase / elapsed if elapsed > 0 else float("inf")
            ),
            "server_threads": max(1, peak_threads - baseline_threads),
        }

    def run_wire(url: str) -> dict[str, object]:
        client = ServiceClient(
            url, max_retries=2, backoff_seconds=0.05, timeout=120.0
        )
        try:
            expected_shape = (wire_walkers, wire_walk_length + 1)
            json_body = None
            t0 = time.perf_counter()
            for _ in range(wire_queries):
                json_body = client.query(
                    application, wire_starts, wire_walk_length, timeout=120.0
                )
            json_seconds = (time.perf_counter() - t0) / wire_queries
            decoded = None
            t0 = time.perf_counter()
            for _ in range(wire_queries):
                decoded = client.query(
                    application,
                    wire_starts,
                    wire_walk_length,
                    timeout=120.0,
                    binary=True,
                )
            binary_seconds = (time.perf_counter() - t0) / wire_queries
        finally:
            client.close()
        json_matrix = np.asarray(json_body["walks"], dtype=np.int64)
        shapes_match = (
            json_matrix.shape == expected_shape
            and decoded.matrix.shape == expected_shape
            and decoded.matrix.dtype == np.int64
        )
        import json as _json

        return {
            "walkers": int(wire_walkers),
            "walk_length": int(wire_walk_length),
            "queries_per_format": int(wire_queries),
            "json_seconds_per_query": json_seconds,
            "binary_seconds_per_query": binary_seconds,
            "binary_speedup": (
                json_seconds / binary_seconds
                if binary_seconds > 0
                else float("inf")
            ),
            "json_bytes": len(_json.dumps(json_body).encode()),
            "binary_bytes": 64 + decoded.matrix.nbytes,
            "shapes_match": bool(shapes_match),
        }

    def run_server() -> dict[str, object]:
        service = GraphService(
            engine,
            graph,
            rng=seed + 3,
            service_seed=seed + 4,
            warm_on_publish=True,
            # The event loop submits from its only thread, so admission
            # must reject (429 + Retry-After, absorbed by the client's
            # backoff), never block.
            default_quota=TenantQuota(max_pending=4096),
        )
        server = None
        try:
            baseline_threads = _threading.active_count()
            server, _ = serve_event_loop(service)
            low = run_phase(server.url, low_clients, baseline_threads)
            high = run_phase(server.url, high_clients, baseline_threads)
            wire_report = run_wire(server.url)
        finally:
            if server is not None:
                server.shutdown()
            service.close()
        return {
            "low": low,
            "high": high,
            "wire": wire_report,
            "clients_per_server_thread": high["clients"] / high["server_threads"],
            "high_vs_low_p99": (
                high["p99"] / low["p99"] if low["p99"] > 0 else float("inf")
            ),
        }

    return {
        "dataset": dataset,
        "engine": engine,
        "application": application,
        "walk_length": int(walk_length),
        "num_walkers": int(num_walkers),
        "low_clients": int(low_clients),
        "high_clients": int(high_clients),
        "queries_per_phase": int(queries_per_phase),
        "servers": {"eventloop": run_server()},
        "note": (
            "both phases issue queries_per_phase queries round-robin over "
            "the open keep-alive connections, so p99 compares the same "
            "query load while the connection count grows 10x"
        ),
    }


# --------------------------------------------------------------------------- #
# PR 9 — sharded multi-process serve scale-out
# --------------------------------------------------------------------------- #
def shard_scaleout(
    *,
    dataset: str = "AM",
    engine: str = "bingo",
    application: str = "deepwalk",
    shard_counts: Sequence[int] = (1, 4),
    walk_length: int = 16,
    num_walkers: int = 16384,
    queries_per_round: int = 3,
    batch_size: int = 150,
    num_batches: int = 3,
    workload: str = "mixed",
    seed: int = 43,
) -> dict[str, object]:
    """Scale-out gate for the multi-process shard router (PR 9).

    Three measurements, all against :class:`~repro.serve.RouterService`
    fronts serving the same ingest-interleaved query stream:

    * **critical path** — every shard count in ``shard_counts`` runs the
      identical workload; per query the router records each shard's CPU
      busy seconds (``time.process_time`` inside the worker) and the
      query's critical path (the slowest shard).  The headline
      ``critical_path_speedup`` divides the 1-shard arm's accumulated
      critical path by the widest arm's.  This is deliberately *not*
      wall-clock: CI boxes (and this container) may expose a single
      core, where four time-sliced processes can never beat one on the
      wall.  ``cpu_cores`` is recorded alongside so the number is honest
      about the hardware it came from.
    * **O(touched) flips** — the widest arm's epoch flips must ship
      slice *patches*, not snapshots: ``patch_to_full_ratio`` compares
      the mean flip payload against one full
      ``export_frontier_state()`` serialization, and
      ``full_snapshots`` must stay 0 on the healthy path.
    * **chaos** — the PR 7 contract inherited by the router: a scheduled
      SIGKILL of one shard mid-dispatch must respawn + retry to a
      bitwise-identical response versus an unfaulted same-seed run,
      with zero hung tickets.
    """
    import os

    import numpy as np

    from repro.engines.sliced_tables import pack_arrays
    from repro.serve import FaultInjector, FaultPlan, WalkQuery
    from repro.serve.faults import chaos_points
    from repro.serve.router import RouterService

    counts = sorted({int(count) for count in shard_counts})
    if not counts or counts[0] < 1:
        raise BenchmarkError("shard_counts must be positive integers")
    if queries_per_round < 1:
        raise BenchmarkError("shard_scaleout needs at least one query per round")
    graph = build_dataset(dataset, rng=ensure_rng(seed))
    # Serving workloads repeat popular start vertices, so the walker count
    # is not capped by the synthetic dataset's vertex count: top the
    # distinct sample up with replacement.  Without this the per-query
    # numpy step constants swamp the partitioned per-walker work and the
    # scale-out measurement would be meaningless on the small datasets.
    starts = sample_start_vertices(graph, num_walkers, rng=seed + 1)
    if starts and len(starts) < num_walkers:
        filler = ensure_rng(seed + 1)
        starts = starts + [
            starts[filler.randrange(len(starts))]
            for _ in range(num_walkers - len(starts))
        ]
    effective_batch = min(
        batch_size, max(1, graph.num_edges // (num_batches + 1))
    )
    stream = generate_update_stream(
        graph,
        batch_size=effective_batch,
        num_batches=num_batches,
        workload=UpdateWorkload(workload),
        rng=seed + 2,
    )

    def run_arm(shards: int) -> dict[str, object]:
        service = RouterService(
            engine,
            stream.initial_graph,
            shards=shards,
            rng=seed + 3,
            service_seed=seed + 4,
        )
        try:
            wall_start = time.perf_counter()
            queries = 0
            for batch in stream.batches:
                service.ingest(batch)
                service.flush()
                tickets = service.submit_many(
                    [
                        WalkQuery(application, starts, walk_length)
                        for _ in range(queries_per_round)
                    ]
                )
                for ticket in tickets:
                    ticket.result(timeout=120.0)
                queries += len(tickets)
            wall_seconds = time.perf_counter() - wall_start
            # Same explicit stream key twice -> the response must be
            # bitwise reproducible whatever the shard count.
            probe = [
                service.submit(
                    application, starts, walk_length, rng=seed + 9
                ).result(timeout=120.0)
                for _ in range(2)
            ]
            deterministic = bool(
                np.array_equal(probe[0].walks.matrix, probe[1].walks.matrix)
            )
            stats = service.stats_snapshot()
            full_state_bytes = len(
                pack_arrays(service.engine.export_frontier_state())
            )
        finally:
            service.close(drain=True)
        busy = [float(value) for value in stats["shard_walk_busy_seconds"]]
        return {
            "shards": int(shards),
            "queries": queries,
            "wall_seconds": wall_seconds,
            "walk_critical_path_seconds": float(
                stats["walk_critical_path_seconds"]
            ),
            "shard_busy_seconds_total": float(sum(busy)),
            "per_shard_busy_seconds": busy,
            "flip_critical_path_seconds": float(
                stats["flip_critical_path_seconds"]
            ),
            "epochs_published": int(stats["epochs_published"]),
            "shard_flips": int(stats["shard_flips"]),
            "flip_full_snapshots": int(stats["flip_full_snapshots"]),
            "flip_payload_bytes": int(stats["flip_payload_bytes"]),
            "full_state_bytes": int(full_state_bytes),
            "deterministic": deterministic,
        }

    arms = {str(count): run_arm(count) for count in counts}
    baseline = arms[str(counts[0])]
    widest = arms[str(counts[-1])]
    scaled_critical = widest["walk_critical_path_seconds"]
    speedup = (
        baseline["walk_critical_path_seconds"] / scaled_critical
        if scaled_critical > 0
        else float("inf")
    )
    conservation = (
        widest["shard_busy_seconds_total"] / baseline["shard_busy_seconds_total"]
        if baseline["shard_busy_seconds_total"] > 0
        else float("inf")
    )
    patch_per_flip = (
        widest["flip_payload_bytes"] / widest["shard_flips"]
        if widest["shard_flips"]
        else 0.0
    )
    flip_summary = {
        "flips": widest["shard_flips"],
        "full_snapshots": widest["flip_full_snapshots"],
        "payload_bytes_total": widest["flip_payload_bytes"],
        "patch_bytes_per_flip": patch_per_flip,
        "full_state_bytes": widest["full_state_bytes"],
        "patch_to_full_ratio": (
            patch_per_flip / widest["full_state_bytes"]
            if widest["full_state_bytes"]
            else float("inf")
        ),
    }

    # ---------------------------------------------------------------- #
    # chaos: SIGKILL one shard mid-dispatch, demand a bitwise retry
    # ---------------------------------------------------------------- #
    chaos_shards = counts[-1] if counts[-1] > 1 else 2
    chaos_queries = max(3, queries_per_round)

    def run_chaos(injector) -> dict[str, object]:
        service = RouterService(
            engine,
            stream.initial_graph,
            shards=chaos_shards,
            rng=seed + 5,
            service_seed=seed + 6,
            fault_injector=injector,
        )
        ledger = {"submitted": 0, "resolved": 0, "failed": 0, "hung": 0}
        matrices = []
        try:
            # One query at a time so both runs fuse identically and the
            # per-group stream keys line up for the bitwise comparison.
            for _ in range(chaos_queries):
                ticket = service.submit(application, starts, walk_length)
                ledger["submitted"] += 1
                try:
                    result = ticket.result(timeout=120.0)
                    matrices.append(result.walks.matrix)
                    ledger["resolved"] += 1
                except Exception:
                    ledger["failed" if ticket.done else "hung"] += 1
            service.ingest(stream.batches[0])
            service.flush()
            stats = service.stats_snapshot()
        finally:
            service.close(drain=True)
        return {
            "ledger": ledger,
            "matrices": matrices,
            "respawns": int(stats["shard_respawns"]),
            "wave_retries": int(stats["wave_retries"]),
            "shards_alive": sum(1 for alive in stats["shards_alive"] if alive),
            "epochs_published": int(stats["epochs_published"]),
        }

    kill_plan = FaultPlan().kill_worker(
        "router.dispatch", 1, shard=chaos_shards - 1
    )
    kill_injector = FaultInjector(kill_plan)
    clean = run_chaos(None)
    faulted = run_chaos(kill_injector)
    bitwise_identical = len(clean["matrices"]) == len(faulted["matrices"]) and all(
        np.array_equal(left, right)
        for left, right in zip(clean["matrices"], faulted["matrices"])
    )
    chaos_summary = {
        "shards": chaos_shards,
        "queries": chaos_queries,
        "tickets": faulted["ledger"],
        "hung": faulted["ledger"]["hung"],
        "respawns": faulted["respawns"],
        "wave_retries": faulted["wave_retries"],
        "shards_alive_after": faulted["shards_alive"],
        "post_kill_epochs_published": faulted["epochs_published"],
        "bitwise_identical_to_clean_run": bitwise_identical,
        "history": chaos_points(kill_injector.history()),
    }

    return {
        "experiment": "shard_scaleout",
        "dataset": dataset,
        "engine": engine,
        "application": application,
        "seed": seed,
        "cpu_cores": int(os.cpu_count() or 1),
        "walk_length": int(walk_length),
        "num_walkers": int(num_walkers),
        "queries_per_round": int(queries_per_round),
        "batch_size": int(effective_batch),
        "num_batches": int(num_batches),
        "shard_counts": counts,
        "arms": arms,
        "critical_path_speedup": speedup,
        "shard_work_conservation": conservation,
        "flip": flip_summary,
        "chaos": chaos_summary,
        "deterministic": all(arm["deterministic"] for arm in arms.values()),
        "note": (
            "critical_path_speedup divides the accumulated slowest-shard "
            "CPU busy seconds of the narrowest arm by the widest arm's; "
            "wall_seconds is reported per arm but is NOT the gate metric "
            "because a single-core runner time-slices the shard processes"
        ),
    }
