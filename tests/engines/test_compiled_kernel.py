"""The compiled frontier kernel against the NumPy kernels it replaces.

The NumPy kernels and the Python node2vec driver are the reference: with
the kernel loaded, every fused engine (Bingo, KnightKing, gSampler) ×
DeepWalk / PPR / node2vec must produce the same walk matrix, the same
``samples_drawn`` and leave the generator in the same state as with the
loader forced to ``None``.  The graphs cover integer biases and fractional
ones (Bingo's decimal-group pause, at a plain step and inside a node2vec
rejection round), sinks, an isolated vertex, out-of-range and repeated
starts, an undirected graph, walks past the matrix's initial width, the
repaired tables after a churn batch and a node2vec step that runs out of
rejection rounds.  The loader tests pin the fallback and cache behaviour.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.engines import compiled
from repro.engines.registry import create_engine
from repro.errors import SamplerStateError
from repro.graph.dynamic_graph import DynamicGraph
from repro.walks.frontier import (
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)
from tests.walks.test_frontier_golden import (
    APPLICATIONS,
    ENGINE_SEED,
    GOLDEN,
    churn_batch,
    count_decimal_draws,
    fused_starts,
    golden_runs,
    make_graph,
)

FUSED_ENGINES = ("bingo", "knightking", "gsampler")
SRC = Path(compiled.__file__).resolve().parents[2]

requires_kernel = pytest.mark.skipif(
    compiled.load() is None, reason="no C compiler: the NumPy kernels run"
)


def integer_graph() -> DynamicGraph:
    """``make_graph``'s topology with integer biases (no decimal group)."""
    fractional = make_graph()
    graph = DynamicGraph(fractional.num_vertices)
    for vertex in range(fractional.num_vertices):
        for dst, bias in zip(
            fractional.neighbor_array(vertex).tolist(),
            fractional.bias_array(vertex).tolist(),
        ):
            graph.add_edge(vertex, dst, float(max(1, round(bias))))
    return graph


GRAPHS = {"integer": integer_graph, "fractional": make_graph}


def build(engine_name: str, graph_name: str):
    kwargs = {"lam": 1.0} if engine_name == "bingo" else {}
    engine = create_engine(engine_name, rng=ENGINE_SEED, **kwargs)
    engine.build(GRAPHS[graph_name]())
    return engine


def walk(application: str, engine, rng: np.random.Generator) -> np.ndarray:
    starts = fused_starts()
    if application == "deepwalk":
        walks = run_frontier_deepwalk(engine, starts, 12, rng=rng)
    elif application == "ppr":
        walks = run_frontier_ppr(
            engine, starts, termination_probability=0.1, max_steps=150, rng=rng
        )
    else:
        walks = run_frontier_node2vec(engine, starts, 12, p=0.5, q=2.0, rng=rng)
    return walks.matrix


def observe(engine_name: str, graph_name: str, application: str):
    """Matrices, ``samples_drawn`` and the next uniform, before and after churn."""
    engine = build(engine_name, graph_name)
    observed = []
    for seed in (7, 8):
        if seed == 8:
            engine.apply_batch(churn_batch(engine.graph))
        rng = np.random.default_rng(seed)
        matrix = walk(application, engine, rng)
        observed.append((matrix, engine.samples_drawn, rng.random()))
    return observed


def force_numpy(monkeypatch) -> None:
    monkeypatch.setattr(compiled, "load", lambda: None)


@requires_kernel
@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_compiled_walks_equal_numpy_walks(engine_name, graph_name, application, monkeypatch):
    fast = observe(engine_name, graph_name, application)
    force_numpy(monkeypatch)
    assert_same_runs(fast, observe(engine_name, graph_name, application))


def assert_same_runs(fast, reference) -> None:
    """Equal matrices (or errors), ``samples_drawn`` and next uniforms."""
    assert len(fast) == len(reference)
    for (matrix, drawn, after), (ref_matrix, ref_drawn, ref_after) in zip(fast, reference):
        if isinstance(ref_matrix, str):
            assert matrix == ref_matrix
        else:
            assert matrix.shape == ref_matrix.shape
            np.testing.assert_array_equal(matrix, ref_matrix)
        assert drawn == ref_drawn
        assert after == ref_after


def circulant_graph() -> DynamicGraph:
    """No sinks, so walks outlive the matrix's initial width."""
    graph = DynamicGraph(60)
    for vertex in range(60):
        for hop, bias in ((1, 1.5), (5, 2.25), (17, 3.0)):
            graph.add_edge(vertex, (vertex + hop) % 60, bias)
    return graph


@requires_kernel
@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_long_walks_grow_the_matrix_like_numpy(engine_name, application, monkeypatch):
    """Walks past the initial 129 columns pause the kernel to widen the matrix."""

    def long_walk():
        kwargs = {"lam": 1.0} if engine_name == "bingo" else {}
        engine = create_engine(engine_name, rng=ENGINE_SEED, **kwargs)
        engine.build(circulant_graph())
        starts = list(range(60)) * 2
        rng = np.random.default_rng(11)
        if application == "deepwalk":
            walks = run_frontier_deepwalk(engine, starts, 300, rng=rng)
        elif application == "ppr":
            walks = run_frontier_ppr(
                engine, starts, termination_probability=0.002, max_steps=300, rng=rng
            )
        else:
            walks = run_frontier_node2vec(engine, starts, 300, p=0.5, q=2.0, rng=rng)
        return [(walks.matrix, engine.samples_drawn, rng.random())]

    fast = long_walk()
    force_numpy(monkeypatch)
    reference = long_walk()
    assert fast[0][0].shape[1] > 129
    assert_same_runs(fast, reference)


def node2vec_runs(make_engine, starts, length, p, q, *, churn=churn_batch):
    """Two node2vec runs (the second after ``churn``), as :func:`observe` records them.

    A run that fails records the error's text instead of a matrix.
    """
    engine = make_engine()
    observed = []
    for seed in (7, 8):
        if seed == 8 and churn is not None:
            engine.apply_batch(churn(engine.graph))
        rng = np.random.default_rng(seed)
        try:
            matrix = run_frontier_node2vec(engine, starts, length, p=p, q=q, rng=rng).matrix
        except SamplerStateError as error:
            matrix = f"SamplerStateError: {error}"
        observed.append((matrix, engine.samples_drawn, rng.random()))
    return observed


@requires_kernel
@pytest.mark.parametrize(
    "p, q", [(0.5, 2.0), (1.0, 1.0), (2.0, 0.25), (0.3, 0.3), (4.0, 2.0)]
)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_compiled_node2vec_equals_the_python_driver(
    engine_name, graph_name, p, q, monkeypatch
):
    """Sinks, an isolated start, out-of-range and repeated starts, churn."""

    def runs():
        make_engine = partial(build, engine_name, graph_name)
        return node2vec_runs(make_engine, fused_starts(), 15, p, q)

    fast = runs()
    force_numpy(monkeypatch)
    assert_same_runs(fast, runs())


def undirected_graph() -> DynamicGraph:
    """``make_graph``'s arcs as undirected edges (every arc mirrored)."""
    directed = make_graph()
    graph = DynamicGraph(directed.num_vertices, undirected=True)
    for vertex in range(directed.num_vertices):
        for dst, bias in zip(
            directed.neighbor_array(vertex).tolist(),
            directed.bias_array(vertex).tolist(),
        ):
            if not graph.has_edge(vertex, dst):
                graph.add_edge(vertex, dst, bias)
    return graph


@requires_kernel
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_compiled_node2vec_on_an_undirected_graph(engine_name, monkeypatch):
    def make_engine():
        kwargs = {"lam": 1.0} if engine_name == "bingo" else {}
        engine = create_engine(engine_name, rng=ENGINE_SEED, **kwargs)
        engine.build(undirected_graph())
        return engine

    def runs():
        return node2vec_runs(make_engine, fused_starts(), 15, 0.5, 2.0)

    fast = runs()
    force_numpy(monkeypatch)
    assert_same_runs(fast, runs())
    # The churn refreshed both endpoints of every mirrored arc.
    engine = make_engine()
    engine.apply_batch(churn_batch(engine.graph))
    engine.check_consistency()


@requires_kernel
def test_node2vec_decimal_pauses_at_step_zero_and_inside_a_round(monkeypatch):
    kernel = compiled.load()
    pauses = set()
    original = kernel.walk

    def recorded(tables, kind, rng, state, *args):
        code = original(tables, kind, rng, state, *args)
        if code == compiled.WALK_DECIMAL:
            pauses.add((int(state[compiled.S_STEPS]) == 0, int(state[compiled.S_PHASE])))
        return code

    def runs():
        make_engine = partial(build, "bingo", "fractional")
        return node2vec_runs(make_engine, fused_starts(), 15, 0.5, 2.0)

    monkeypatch.setattr(kernel, "walk", recorded)
    fast = runs()
    assert (True, 1) in pauses  # a plain first step paused (PHASE_DRAWN)
    assert (False, compiled.PHASE_ROUND) in pauses
    force_numpy(monkeypatch)
    assert_same_runs(fast, runs())


@requires_kernel
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_exhausted_rejection_rounds_fail_like_the_python_driver(engine_name, monkeypatch):
    """A walker that cannot backtrack, with p tiny: no proposal is ever accepted."""

    def make_engine():
        graph = DynamicGraph(6)
        for vertex in range(5):
            graph.add_edge(vertex, vertex + 1, 1.5)
        engine = create_engine(engine_name, rng=ENGINE_SEED)
        engine.build(graph)
        return engine

    def runs():
        return node2vec_runs(make_engine, [0, 3, 3], 4, 1e-12, 1.0, churn=None)

    fast = runs()
    assert all(isinstance(run[0], str) for run in fast)
    force_numpy(monkeypatch)
    assert_same_runs(fast, runs())


@requires_kernel
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_compiled_step_equals_numpy_step(engine_name, graph_name, monkeypatch):
    engine = build(engine_name, graph_name)
    reference = build(engine_name, graph_name)
    frontier = np.array([-1, 0, 5, 5, 5, 41, 47, 48, 53, 12, 12, 39, -7], dtype=np.int64)
    fast_rng = np.random.default_rng(3)
    draws = [engine.sample_frontier(frontier, fast_rng) for _ in range(20)]
    force_numpy(monkeypatch)
    ref_rng = np.random.default_rng(3)
    expected = [reference.sample_frontier(frontier, ref_rng) for _ in range(20)]
    np.testing.assert_array_equal(np.stack(draws), np.stack(expected))
    assert engine.samples_drawn == reference.samples_drawn
    assert fast_rng.random() == ref_rng.random()


@requires_kernel
@pytest.mark.parametrize("application", APPLICATIONS)
def test_compiled_walk_pauses_for_the_decimal_group(application, monkeypatch):
    engine = build("bingo", "fractional")
    assert engine.frontier_kernel == "compiled"
    resolved = count_decimal_draws(monkeypatch)

    def no_step(*_args, **_kwargs):
        raise AssertionError("a compiled walk takes no Python step")

    monkeypatch.setattr(engine, "sample_frontier", no_step)
    monkeypatch.setattr(engine, "has_arcs", no_step)
    walk(application, engine, np.random.default_rng(7))
    assert resolved


@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_golden_digests_hold_on_the_numpy_path(engine_name, application, monkeypatch):
    force_numpy(monkeypatch)
    assert build(engine_name, "integer").frontier_kernel == "numpy"
    assert golden_runs(engine_name, application) == GOLDEN[(engine_name, application)]


def test_flowwalker_has_no_compiled_walk():
    engine = create_engine("flowwalker", rng=ENGINE_SEED)
    engine.build(make_graph())
    assert engine.frontier_kernel == "numpy"
    assert not engine.compiled_walk(object())


# --------------------------------------------------------------------------- #
# the loader
# --------------------------------------------------------------------------- #
def test_missing_compiler_returns_none_and_walks_stay_identical(tmp_path, monkeypatch):
    assert compiled.load_from(tmp_path, compiler=["/nonexistent/bin/cc"]) is None
    assert not list(tmp_path.iterdir())
    monkeypatch.setattr(compiled, "_loaded", False)
    monkeypatch.setattr(compiled, "_kernel", None)
    monkeypatch.setattr(compiled, "default_cache_dir", lambda: tmp_path / "cache")
    monkeypatch.setattr(compiled, "_temp_cache_dir", lambda: tmp_path / "temp")
    monkeypatch.setattr(compiled, "compiler_command", lambda: None)
    assert compiled.load() is None
    assert compiled.kernel_name() == "numpy"
    for application in APPLICATIONS:
        assert golden_runs("bingo", application) == GOLDEN[("bingo", application)]


@requires_kernel
def test_unwritable_cache_dir_falls_back_to_the_temp_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    temp = tmp_path / "temp"
    monkeypatch.setattr(compiled, "_temp_cache_dir", lambda: temp)
    kernel = compiled.load_from(blocker / "repro")
    assert kernel is not None
    assert kernel.path.parent == temp
    assert [path.name for path in temp.iterdir()] == [kernel.path.name]


@requires_kernel
def test_cache_location_is_an_argument(tmp_path):
    assert inspect.signature(compiled.load).parameters == {}
    kernel = compiled.load_from(tmp_path / "chosen")
    assert kernel is not None
    assert kernel.path.parent == tmp_path / "chosen"
    assert kernel.path.name == compiled.library_name(compiled.SOURCE.read_bytes())
    # A second load reuses the cached library instead of recompiling.
    mtime = kernel.path.stat().st_mtime_ns
    assert compiled.load_from(tmp_path / "chosen").path == kernel.path
    assert kernel.path.stat().st_mtime_ns == mtime


def test_default_cache_dir_follows_xdg(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert compiled.default_cache_dir() == tmp_path / "repro"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert compiled.default_cache_dir() == Path.home() / ".cache" / "repro"


_CHILD = """
import sys
from pathlib import Path
import numpy as np
from repro.engines import compiled
from repro.engines.registry import create_engine
from repro.graph.generators import power_law_graph

kernel = compiled.load_from(Path(sys.argv[1]))
assert kernel is not None
engine = create_engine("knightking", rng=1)
engine.build(power_law_graph(200, 3, rng=2))
views = engine.frontier_tables.views()
tables = compiled.pack_tables(views, engine.kernel_fields, len(views["table_length"]))
vertices = np.arange(-2, 210, dtype=np.int64)
draws, _ = kernel.step(tables, compiled.KIND_KNIGHTKING, np.random.default_rng(5), vertices)
expected = engine._sample_frontier_numpy(vertices, np.random.default_rng(5))
assert np.array_equal(draws, expected)
print("ok", kernel.path)
"""


@requires_kernel
def test_concurrent_compiles_both_load_a_valid_library(tmp_path):
    cache = tmp_path / "shared"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(cache)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        for _ in range(2)
    ]
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        assert out.startswith("ok")
    # One library, no half-written leftovers.
    assert [path.name for path in cache.iterdir()] == [
        compiled.library_name(compiled.SOURCE.read_bytes())
    ]


def _take_the_load_lock() -> None:
    sys.exit(0 if compiled._lock.acquire(timeout=10) else 1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_fork_during_a_compile_gets_a_free_load_lock():
    with compiled._lock:  # another thread compiling when a shard forks
        child = multiprocessing.get_context("fork").Process(target=_take_the_load_lock)
        child.start()
        child.join(30)
    assert child.exitcode == 0
