"""The evaluation harness: runs the paper's update-then-walk workflow.

:func:`run_evaluation` reproduces the Section 6.1 loop for one
(engine, dataset, application, workload) cell of Table 3 and returns wall
clock time, modelled memory and the per-phase breakdown.  The scaled defaults
keep a full Table 3 sweep tractable in pure Python; the knobs are exposed so
users with more patience (or the real datasets) can scale back up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.bench.datasets import build_dataset
from repro.bench.workloads import (
    application_params,
    run_application,
    sample_start_vertices,
)
from repro.engines.registry import create_engine
from repro.engines.sliced_tables import pack_arrays
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.update_stream import UpdateStream, UpdateWorkload, generate_update_stream
from repro.serve.router import ShardServePool, flip_payload
from repro.utils.rng import RandomSource, ensure_rng
from repro.walks.frontier import BatchedWalks


@dataclass(frozen=True)
class EvaluationSettings:
    """Scaling knobs for one evaluation run (paper defaults in comments)."""

    batch_size: int = 200          # paper: 100_000
    num_batches: int = 4           # paper: 10
    walk_length: int = 10          # paper: 80
    num_walkers: int = 64          # paper: one per vertex
    streaming: bool = False        # paper evaluates both streaming and batched
    workers: int = 1               # >1: shard-parallel walk execution
    partition_strategy: str = "degree_balanced"  # shard layout for workers > 1
    engine_kwargs: dict[str, object] = field(default_factory=dict)


@dataclass
class EvaluationResult:
    """Outcome of one (engine, dataset, application, workload) evaluation."""

    engine: str
    dataset: str
    application: str
    workload: str
    runtime_seconds: float
    update_seconds: float
    walk_seconds: float
    memory_gigabytes: float
    memory_bytes: int
    phase_breakdown: dict[str, float]
    total_updates: int
    total_walk_steps: int

    def updates_per_second(self) -> float:
        """Ingestion rate over the update portion of the run."""
        if self.update_seconds <= 0:
            return float("inf") if self.total_updates else 0.0
        return self.total_updates / self.update_seconds


def run_evaluation(
    engine_name: str,
    dataset: str | DynamicGraph,
    application: str,
    *,
    workload: UpdateWorkload | str = UpdateWorkload.MIXED,
    settings: EvaluationSettings | None = None,
    update_stream: UpdateStream | None = None,
    rng: RandomSource = None,
) -> EvaluationResult:
    """Run the paper's update-then-walk loop for one configuration.

    Parameters
    ----------
    engine_name:
        One of ``bingo``, ``knightking``, ``gsampler``, ``flowwalker``.
    dataset:
        Dataset abbreviation (see :mod:`repro.bench.datasets`) or a prebuilt
        graph (useful when several engines must see the identical workload).
    application:
        ``deepwalk``, ``node2vec`` or ``ppr``.
    update_stream:
        A pre-generated stream; when omitted one is generated from the
        dataset with the settings' batch size and count.
    """
    if settings is None:
        settings = EvaluationSettings()
    generator = ensure_rng(rng)
    workload = UpdateWorkload(workload)

    if update_stream is None:
        if isinstance(dataset, DynamicGraph):
            base_graph = dataset
            dataset_label = "custom"
        else:
            base_graph = build_dataset(dataset, rng=generator)
            dataset_label = dataset
        update_stream = generate_update_stream(
            base_graph,
            batch_size=settings.batch_size,
            num_batches=settings.num_batches,
            workload=workload,
            rng=generator,
        )
    else:
        dataset_label = dataset if isinstance(dataset, str) else "custom"

    if settings.workers < 1:
        raise ValueError("settings.workers must be at least 1")
    engine = create_engine(engine_name, rng=generator, **settings.engine_kwargs)
    engine.build(update_stream.initial_graph.copy())

    starts = sample_start_vertices(
        update_stream.initial_graph, settings.num_walkers, rng=generator
    )
    pool = None
    epoch = 0
    total_walk_steps = 0
    update_seconds = 0.0
    walk_seconds = 0.0
    run_start = time.perf_counter()
    try:
        for batch in update_stream.batches:
            update_start = time.perf_counter()
            if settings.streaming:
                engine.apply_streaming(batch)
            else:
                engine.apply_batch(batch)
            update_seconds += time.perf_counter() - update_start

            if settings.workers > 1:
                # Shard-parallel walk phase: boot the shard pool from the
                # updated snapshot on the first round, then flip it with
                # the router's O(touched) payload.  Boot and flips are
                # sampler maintenance, not walking — they stay outside
                # walk_seconds so the workers>1 rows stay comparable to
                # the serial ones.
                if pool is None:
                    pool = ShardServePool(
                        engine_name=engine_name,
                        engine_kwargs=dict(settings.engine_kwargs),
                        engine_seed=generator.randrange(1 << 48),
                        graph=engine.graph,
                        num_shards=settings.workers,
                        strategy=settings.partition_strategy,
                        source_engine=engine,
                        epoch=epoch,
                    )
                else:
                    epoch += 1
                    # FlowWalker keeps no fused tables: nothing to warm,
                    # and its flip ships only the batch columns.
                    warm = getattr(engine, "warm_frontier_tables", None)
                    payload, _ = flip_payload(
                        engine, batch, warm() if warm is not None else None
                    )
                    pool.flip(epoch, pack_arrays(payload), engine)
            walk_start = time.perf_counter()
            if pool is None:
                result = run_application(
                    application,
                    engine,
                    walk_length=settings.walk_length,
                    starts=starts,
                    rng=generator,
                )
                steps = result.total_steps
            else:
                matrix, _ = pool.run(
                    application,
                    np.asarray(starts, dtype=np.int64),
                    settings.walk_length,
                    application_params(application, settings.walk_length),
                    # The serial frontier's derivation from a Random:
                    # default_rng(getrandbits(64)).
                    (generator.getrandbits(64),),
                    epoch,
                )
                steps = BatchedWalks(matrix=matrix).total_steps
            walk_seconds += time.perf_counter() - walk_start
            total_walk_steps += steps
        runtime = time.perf_counter() - run_start
    finally:
        if pool is not None:
            pool.close()

    memory = engine.memory_report()
    return EvaluationResult(
        engine=engine_name,
        dataset=dataset_label,
        application=application,
        workload=str(workload),
        runtime_seconds=runtime,
        update_seconds=update_seconds,
        walk_seconds=walk_seconds,
        memory_gigabytes=memory.total_gigabytes(),
        memory_bytes=memory.total_bytes(),
        phase_breakdown=engine.breakdown.as_dict(),
        total_updates=update_stream.num_updates,
        total_walk_steps=total_walk_steps,
    )


def run_update_only(
    engine_name: str,
    update_stream: UpdateStream,
    *,
    streaming: bool,
    engine_kwargs: dict[str, object] | None = None,
    rng: RandomSource = None,
) -> EvaluationResult:
    """Ingest an update stream without running any application.

    Each update counts until walks can see it: a fused engine warms its
    tables after every batch, or after every update when ``streaming``.
    Used by the Figure 12 (streaming vs batched throughput), Figure 15a
    (batch size) and Figure 16 (piecewise update/sampling breakdown)
    experiments.
    """
    generator = ensure_rng(rng)
    engine = create_engine(engine_name, rng=generator, **(engine_kwargs or {}))
    engine.build(update_stream.initial_graph.copy())
    warm = getattr(engine, "warm_frontier_tables", None)
    if warm is not None:
        # The build's first warm is part of boot, not of any update.
        warm()

    start = time.perf_counter()
    for batch in update_stream.batches:
        if streaming:
            for update in batch:
                engine.apply_streaming_update(update)
                if warm is not None:
                    warm()
        else:
            engine.apply_batch(batch)
            if warm is not None:
                warm()
    elapsed = time.perf_counter() - start

    memory = engine.memory_report()
    return EvaluationResult(
        engine=engine_name,
        dataset="custom",
        application="updates-only",
        workload=str(update_stream.workload),
        runtime_seconds=elapsed,
        update_seconds=elapsed,
        walk_seconds=0.0,
        memory_gigabytes=memory.total_gigabytes(),
        memory_bytes=memory.total_bytes(),
        phase_breakdown=engine.breakdown.as_dict(),
        total_updates=update_stream.num_updates,
        total_walk_steps=0,
    )


def compare_engines(
    engine_names: Sequence[str],
    dataset: str,
    application: str,
    *,
    workload: UpdateWorkload | str = UpdateWorkload.MIXED,
    settings: EvaluationSettings | None = None,
    seed: int = 2025,
) -> list[EvaluationResult]:
    """Run several engines on the identical dataset + update stream.

    The dataset and stream are generated once with a fixed seed so every
    engine ingests the same edits and walks from the same start vertices.
    """
    if settings is None:
        settings = EvaluationSettings()
    stream_rng = ensure_rng(seed)
    base_graph = build_dataset(dataset, rng=stream_rng)
    stream = generate_update_stream(
        base_graph,
        batch_size=settings.batch_size,
        num_batches=settings.num_batches,
        workload=UpdateWorkload(workload),
        rng=stream_rng,
    )
    results = []
    for engine_name in engine_names:
        results.append(
            run_evaluation(
                engine_name,
                dataset,
                application,
                workload=workload,
                settings=settings,
                update_stream=stream,
                rng=seed + 1,
            )
        )
    return results
