"""Workload builders: applications and update streams for the evaluation.

The paper's evaluation workflow (Section 6.1) interleaves update ingestion and
application execution:

    repeat 10 times:
        apply BATCHSIZE updates
        run the random walk application

The applications are biased DeepWalk, node2vec (p = 0.5, q = 2) and PPR
(termination probability 1/80), all with one walker per vertex and walk
length 80.  The reproduction keeps the same structure but exposes scaling
knobs (walk length, walkers, batch size, rounds) so the pure-Python benchmark
finishes in seconds while preserving the relative comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.bench.datasets import build_dataset
from repro.engines.base import RandomWalkEngine
from repro.errors import BenchmarkError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.update_stream import (
    UpdateStream,
    UpdateWorkload,
    generate_update_stream,
)
from repro.utils.rng import AnyRngSource, RandomSource, ensure_rng
from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk
from repro.walks.node2vec import Node2VecConfig, run_node2vec
from repro.walks.ppr import PPRConfig, run_ppr
from repro.walks.walker import WalkResult


@dataclass(frozen=True)
class ApplicationSpec:
    """One random walk application with paper-default hyper-parameters."""

    name: str
    runner: Callable[..., WalkResult]

    def run(
        self,
        engine: RandomWalkEngine,
        *,
        walk_length: int,
        starts: Sequence[int] | None = None,
        rng: AnyRngSource = None,
    ) -> WalkResult:
        """Execute the application on ``engine`` with a scaled walk length."""
        return self.runner(engine, walk_length=walk_length, starts=starts, rng=rng)


def _run_deepwalk(engine, *, walk_length, starts, rng) -> WalkResult:
    return run_deepwalk(
        engine, DeepWalkConfig(walk_length=walk_length), starts=starts, rng=rng
    )


def _run_node2vec(engine, *, walk_length, starts, rng) -> WalkResult:
    config = Node2VecConfig(
        walk_length=walk_length, **application_params("node2vec", walk_length)
    )
    return run_node2vec(engine, config, starts=starts, rng=rng)


def _run_ppr(engine, *, walk_length, starts, rng) -> WalkResult:
    config = PPRConfig(**application_params("ppr", walk_length))
    return run_ppr(engine, config, starts=starts, rng=rng)


#: Applications evaluated in Table 3, keyed by the names used in the paper.
APPLICATIONS: dict[str, ApplicationSpec] = {
    "deepwalk": ApplicationSpec("deepwalk", _run_deepwalk),
    "node2vec": ApplicationSpec("node2vec", _run_node2vec),
    "ppr": ApplicationSpec("ppr", _run_ppr),
}


def application_names() -> list[str]:
    """Application identifiers in Table 3 order."""
    return list(APPLICATIONS)


def _application_spec(name: str) -> ApplicationSpec:
    spec = APPLICATIONS.get(name)
    if spec is None:
        raise BenchmarkError(
            f"unknown application {name!r}; available: {', '.join(APPLICATIONS)}"
        )
    return spec


def application_params(name: str, walk_length: int) -> dict[str, float]:
    """The hyper-parameters of application ``name`` at ``walk_length``.

    node2vec uses the paper's p = 0.5, q = 2.  PPR's termination
    probability 1/walk_length gives an expected length of walk_length
    (the paper's 1/80 default) and ``max_steps`` caps the tail.  The
    dict is the ``params`` a :class:`~repro.serve.router.ShardServePool`
    run takes.
    """
    _application_spec(name)
    if name == "node2vec":
        return {"p": 0.5, "q": 2.0}
    if name == "ppr":
        return {
            "termination_probability": 1.0 / walk_length,
            "max_steps": 4 * walk_length,
        }
    return {}


def run_application(
    name: str,
    engine: RandomWalkEngine,
    *,
    walk_length: int = 80,
    starts: Sequence[int] | None = None,
    rng: AnyRngSource = None,
) -> WalkResult:
    """Run one named application on an engine through the walk frontier."""
    return _application_spec(name).run(
        engine, walk_length=walk_length, starts=starts, rng=rng
    )


def build_update_stream(
    dataset: str | DynamicGraph,
    *,
    batch_size: int,
    num_batches: int = 10,
    workload: UpdateWorkload | str = UpdateWorkload.MIXED,
    rng: RandomSource = None,
) -> UpdateStream:
    """Build a paper-style update stream for a dataset abbreviation or graph."""
    generator = ensure_rng(rng)
    if isinstance(dataset, DynamicGraph):
        graph = dataset
    else:
        graph = build_dataset(dataset, rng=generator)
    return generate_update_stream(
        graph,
        batch_size=batch_size,
        num_batches=num_batches,
        workload=workload,
        rng=generator,
    )


def sample_start_vertices(
    graph: DynamicGraph,
    count: int,
    *,
    rng: RandomSource = None,
) -> list[int]:
    """Pick ``count`` start vertices with out-edges (scaled walker placement).

    The paper launches one walker per vertex; the scaled benchmarks launch
    walkers from a random subset so runtime stays bounded while every engine
    sees the same start set.
    """
    generator = ensure_rng(rng)
    candidates = [v for v in range(graph.num_vertices) if graph.degree(v) > 0]
    if not candidates:
        return []
    if count >= len(candidates):
        return candidates
    return generator.sample(candidates, count)
