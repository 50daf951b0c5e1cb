"""Golden walk matrices: the frontier drivers' exact output, pinned by hash.

The determinism suites compare a run with itself, so they cannot notice a
change in the *order* of generator calls.  This module pins the sha256 of
every walk matrix (shape and bytes) for all four engines × deepwalk / ppr /
node2vec on a graph built to hit the awkward paths: sink vertices, an
isolated start, out-of-range starts, repeated (fused multi-query) starts,
fractional biases that send Bingo draws through the decimal-group fallback,
and a second run after an insert + delete batch.  A driver or kernel
rewrite that keeps every draw must leave these digests unchanged.  Bingo's
post-batch walks equal a cold build's of the post-batch graph, so its
``updated`` digests are that cold build's.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engines import bingo
from repro.engines.registry import create_engine, engine_names
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.update_batch import UpdateBatch
from repro.graph.update_stream import GraphUpdate, UpdateKind
from repro.walks.frontier import (
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)

NUM_VERTICES = 48
#: Vertices 40..46 keep no out-edges (sinks); 47 has no edges at all.
SINKS = range(40, 47)
ISOLATED = 47
ENGINE_SEED = 99
APPLICATIONS = ("deepwalk", "ppr", "node2vec")


def make_graph() -> DynamicGraph:
    rng = np.random.default_rng(2024)
    graph = DynamicGraph(NUM_VERTICES)
    for src in range(40):
        degree = int(rng.integers(1, 9))
        targets = rng.choice(ISOLATED, size=degree, replace=False)
        for dst in targets.tolist():
            if dst != src:
                # Fractional biases: with λ = 1 the fractions form a heavy
                # decimal group, so Bingo's rejection fallback fires.
                graph.add_edge(src, dst, round(float(rng.uniform(0.1, 4.0)), 2))
    return graph


def make_engine(engine_name: str):
    kwargs = {"lam": 1.0} if engine_name == "bingo" else {}
    engine = create_engine(engine_name, rng=ENGINE_SEED, **kwargs)
    engine.build(make_graph())
    return engine


def fused_starts() -> list[int]:
    """Three queries' start lists concatenated, the way a fused wave runs them."""
    first = list(range(0, 40, 3))
    second = [5, 5, 5, 12, 12, ISOLATED, 41, NUM_VERTICES + 3]
    third = list(range(39, -1, -4)) + [SINKS[0]]
    return first + second + third


def churn_batch(graph: DynamicGraph) -> UpdateBatch:
    updates = []
    for src in (0, 7, 13, 21):
        dst = graph.neighbors(src)[0]
        updates.append(GraphUpdate(UpdateKind.DELETE, src, dst))
    updates.append(GraphUpdate(UpdateKind.INSERT, 40, 3, 1.75))
    updates.append(GraphUpdate(UpdateKind.INSERT, 0, 44, 2.5))
    updates.append(GraphUpdate(UpdateKind.INSERT, 5, 5, 0.35))
    return UpdateBatch.from_updates(updates)


def run_app(application: str, engine, seed: int) -> np.ndarray:
    starts = fused_starts()
    if application == "deepwalk":
        walks = run_frontier_deepwalk(engine, starts, 10, rng=seed)
    elif application == "ppr":
        walks = run_frontier_ppr(
            engine, starts, termination_probability=0.15, max_steps=40, rng=seed
        )
    else:
        walks = run_frontier_node2vec(engine, starts, 10, p=0.5, q=2.0, rng=seed)
    return walks.matrix


def digest(matrix: np.ndarray) -> str:
    hasher = hashlib.sha256(repr(matrix.shape).encode())
    hasher.update(np.ascontiguousarray(matrix, dtype=np.int64).tobytes())
    return hasher.hexdigest()


def golden_runs(engine_name: str, application: str) -> dict[str, str]:
    engine = make_engine(engine_name)
    static = run_app(application, engine, seed=7)
    engine.apply_batch(churn_batch(engine.graph))
    updated = run_app(application, engine, seed=8)
    return {"static": digest(static), "updated": digest(updated)}


GOLDEN: dict[tuple[str, str], dict[str, str]] = {
    ("bingo", "deepwalk"): {
        "static": "3b634a798fa01c560eef809f291cf41315d768519dfa0ff629842cf143ea0d58",
        "updated": "930b2ae08c0e42990f538dfbe4af7e612cf694c74df1418ee173226c1afd06ae",
    },
    ("bingo", "ppr"): {
        "static": "b9064e3cbae162ca8c5ecd89441ffcd5fba35af5ebfc3dbfd8b9493defcbea4e",
        "updated": "1d570160bb19bc4fbbcb21e510befe835c2d7452ac094c564c992ed2664d5a77",
    },
    ("bingo", "node2vec"): {
        "static": "13bcaa58b2835659b46190522dd97737b261447588ae455cbc12ecf703931e8b",
        "updated": "408a75ae45464271095a7c7f1efdb2644da26a053434529f2ec314096e327172",
    },
    ("knightking", "deepwalk"): {
        "static": "5b0b1d04b29dbc07d312039ced0f94eb1ae07cbc3d6efd53400757b4349608ea",
        "updated": "24b34b38b820accf05353464e5fadf493d5b46513d231c82c7aa85ef579e4f5f",
    },
    ("knightking", "ppr"): {
        "static": "e9b8ac14c34ee63547cbb09c614750b112c4078897d139cdcafd4f37954438db",
        "updated": "f16c7258f5910418a780b93888e39eea3b3af25abcd3ce212478e83d767cc3ce",
    },
    ("knightking", "node2vec"): {
        "static": "22f270f04c5f2f6645597a50b481584884063bb606f32319feb6072d33a292bd",
        "updated": "6dc9c96b117d52ca4406c164941cec0de392371d99a2edd764044fdba27a15c1",
    },
    ("gsampler", "deepwalk"): {
        "static": "7eb6fe75c3fd176018e3a85ce30c9eb351e590faf8ddc2fd3bacdb9c68e10745",
        "updated": "e53359f02bc4f91c6a3b3cf3fa2d2d24db4a35f48bec786083dfe4ee67bca04b",
    },
    ("gsampler", "ppr"): {
        "static": "d8e2a0f310d9640787f2f766bf63dd532d86b2fae55c3167709e5d3b44a4e476",
        "updated": "7fd030a2449555e12a33af329b9e21666df5121f11aa2bc07ebbe4b0388e9b92",
    },
    ("gsampler", "node2vec"): {
        "static": "107c9b1eb6df80b08e8307bf446f84b233519f5b8881d0605f3b0f49a7fd8bd0",
        "updated": "be03fafeefdd97e3341d24d900934f030116888df340dec8ffee189c8e6c8f49",
    },
    ("flowwalker", "deepwalk"): {
        "static": "92cb97892180070605f5e7a54832d583a40d48195cbf62dc4ac4fe7606ef4d5d",
        "updated": "dce59de869788bb8b7e940f4e94bbef22764b11eedf060d107abe34c7c2d5b48",
    },
    ("flowwalker", "ppr"): {
        "static": "1db7216c760d2d37f0512574759f6735cbb25a1852b305ab8404ee6348204cdc",
        "updated": "d7e440c1e23dd56b976bab7a464074a184a8c499feb605d4190306efee7e30b2",
    },
    ("flowwalker", "node2vec"): {
        "static": "efee49b546543b19f4a1e0836528b82fa2f5f96158f3ce0e42344303ba2a081f",
        "updated": "3ec80bb5fcba98554cb6399e3a198f68819a3b106573408d4fbb0ad12c0d1ca8",
    },
}


@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("engine_name", engine_names())
def test_walk_matrix_matches_golden_digest(engine_name, application):
    assert golden_runs(engine_name, application) == GOLDEN[(engine_name, application)]


@pytest.mark.parametrize("application", APPLICATIONS)
def test_bingo_walks_after_a_batch_equal_a_cold_build(application):
    engine = make_engine("bingo")
    engine.apply_batch(churn_batch(engine.graph))
    cold = create_engine("bingo", rng=ENGINE_SEED, lam=1.0)
    cold.build(engine.graph.copy())
    assert np.array_equal(
        run_app(application, engine, seed=8), run_app(application, cold, seed=8)
    )


def count_decimal_draws(monkeypatch) -> list[int]:
    """Record the size of every rejection draw from Bingo's ``decimal`` store."""
    draws = []
    original = bingo.sample_by_fraction

    def counted(fractions, count, rng):
        draws.append(count)
        return original(fractions, count, rng)

    monkeypatch.setattr(bingo, "sample_by_fraction", counted)
    return draws


@pytest.mark.parametrize("application", APPLICATIONS)
def test_bingo_runs_hit_the_decimal_fallback(application, monkeypatch):
    engine = make_engine("bingo")
    draws = count_decimal_draws(monkeypatch)
    run_app(application, engine, seed=7)
    assert draws


def test_edge_cases_are_present():
    graph = make_graph()
    starts = fused_starts()
    assert all(graph.degree(vertex) == 0 for vertex in SINKS)
    assert graph.degree(ISOLATED) == 0
    assert ISOLATED in starts and NUM_VERTICES + 3 in starts
    assert len(starts) > len(set(starts))
