"""Walks read only the fused tables: no frontier draw touches a sampler.

The writer keeps per-vertex samplers for its update paths and scalar
``sample_neighbor``; a walk in any process must not read them.  With
``engine._samplers`` replaced by a mapping that raises on any access, the
three fused engines still run DeepWalk, PPR and node2vec — on the compiled
kernel and on the NumPy one, with Bingo's decimal picks firing.  Bingo's
walks also run the delta warm, which derives from the graph rows;
KnightKing and gSampler derive their slices from their samplers, so they
warm first.  A shard replica, booted, flipped and walked, holds no
sampler at all.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pytest

from repro.engines import compiled
from repro.engines.registry import create_engine
from repro.engines.sliced_tables import pack_arrays, unpack_arrays
from repro.graph.update_batch import UpdateBatch
from repro.serve.router import _boot_blob, flip_payload
from repro.serve.shard_worker import apply_flip, boot_replica
from tests.walks.test_frontier_golden import (
    APPLICATIONS,
    ENGINE_SEED,
    churn_batch,
    count_decimal_draws,
    make_engine,
    make_graph,
    run_app,
)

FUSED_ENGINES = ("bingo", "knightking", "gsampler")


class NoSamplers(Mapping):
    """A sampler mapping that fails every read."""

    def __getitem__(self, vertex):
        raise AssertionError(f"a walk read the sampler of vertex {vertex}")

    def __iter__(self):
        raise AssertionError("a walk iterated the samplers")

    def __len__(self):
        raise AssertionError("a walk counted the samplers")


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request, monkeypatch):
    if request.param == "compiled":
        if compiled.load() is None:
            pytest.skip("no C compiler: the NumPy kernels run")
    else:
        monkeypatch.setattr(compiled, "load", lambda: None)
    return request.param


@pytest.mark.parametrize("application", APPLICATIONS)
@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_walks_read_no_sampler(engine_name, application, kernel, monkeypatch):
    engine = make_engine(engine_name)
    engine.apply_batch(churn_batch(engine.graph))
    if engine_name != "bingo":
        engine.warm_frontier_tables()
    engine._samplers = NoSamplers()
    draws = count_decimal_draws(monkeypatch)
    assert engine.frontier_kernel == kernel
    run_app(application, engine, seed=8)
    if engine_name == "bingo":
        assert draws


@pytest.mark.parametrize("engine_name", FUSED_ENGINES)
def test_a_booted_flipped_walked_replica_holds_no_sampler(engine_name, kernel):
    writer = make_engine(engine_name)
    replica = boot_replica(
        engine_name,
        {"lam": 1.0} if engine_name == "bingo" else {},
        ENGINE_SEED,
        unpack_arrays(_boot_blob(writer, 0)),
    )
    batch = UpdateBatch.coerce(churn_batch(writer.graph))
    writer.apply_batch(batch)
    payload, full = flip_payload(writer, batch, writer.warm_frontier_tables())
    assert not full
    apply_flip(replica, unpack_arrays(pack_arrays(payload)))
    for application in APPLICATIONS:
        assert np.array_equal(
            run_app(application, replica, seed=8), run_app(application, writer, seed=8)
        )
    assert replica._samplers == {}
    assert replica.graph.num_vertices == make_graph().num_vertices
