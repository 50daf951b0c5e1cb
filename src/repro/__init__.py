"""Bingo reproduction: radix-based bias factorization for random walks on dynamic graphs.

The package is organised as the paper's system is:

* :mod:`repro.graph` — dynamic graph substrate (adjacency, generators,
  update streams, partitioning).
* :mod:`repro.sampling` — classical Monte Carlo samplers (alias, ITS,
  rejection, reservoir) used as baselines and building blocks.
* :mod:`repro.core` — the contribution: radix-based bias factorization,
  hierarchical O(1) sampling, O(K) updates, adaptive group representation,
  floating-point bias handling, arbitrary radix bases.
* :mod:`repro.walks` — DeepWalk, node2vec, PPR and simple sampling.
* :mod:`repro.engines` — the Bingo engine and baseline engines
  (KnightKing, gSampler, FlowWalker) behind one interface.
* :mod:`repro.bench` — dataset stand-ins, workload builders and the
  experiment functions that regenerate every table and figure.

Quickstart::

    from repro import BingoEngine, power_law_graph, run_deepwalk, DeepWalkConfig

    graph = power_law_graph(1000, 4, rng=7)
    engine = BingoEngine(rng=7)
    engine.build(graph)
    walks = run_deepwalk(engine, DeepWalkConfig(walk_length=20))
"""

from repro.errors import (
    ReproError,
    GraphError,
    SamplerError,
    EngineError,
    UpdateError,
    InvalidBiasError,
)
from repro.graph import (
    DynamicGraph,
    CSRGraph,
    Edge,
    erdos_renyi_graph,
    power_law_graph,
    rmat_graph,
    running_example_graph,
    GraphUpdate,
    UpdateKind,
    UpdateStream,
    generate_update_stream,
    load_edge_list,
    save_edge_list,
)
from repro.sampling import (
    AliasTable,
    InverseTransformSampler,
    RejectionSampler,
    WeightedReservoirSampler,
)
from repro.core import (
    BingoVertexSampler,
    ArbitraryRadixSampler,
    GroupClassifier,
    GroupKind,
    decompose_bias,
    group_weights,
    choose_amortization_factor,
)
from repro.engines import (
    BingoEngine,
    KnightKingEngine,
    GSamplerEngine,
    FlowWalkerEngine,
    create_engine,
    engine_names,
)
from repro.walks import (
    DeepWalkConfig,
    Node2VecConfig,
    PPRConfig,
    run_deepwalk,
    run_node2vec,
    run_ppr,
    run_simple_sampling,
)
from repro.serve import (
    GraphService,
    ServeResult,
    WalkQuery,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "SamplerError",
    "EngineError",
    "UpdateError",
    "InvalidBiasError",
    # graph
    "DynamicGraph",
    "CSRGraph",
    "Edge",
    "erdos_renyi_graph",
    "power_law_graph",
    "rmat_graph",
    "running_example_graph",
    "GraphUpdate",
    "UpdateKind",
    "UpdateStream",
    "generate_update_stream",
    "load_edge_list",
    "save_edge_list",
    # sampling
    "AliasTable",
    "InverseTransformSampler",
    "RejectionSampler",
    "WeightedReservoirSampler",
    # core
    "BingoVertexSampler",
    "ArbitraryRadixSampler",
    "GroupClassifier",
    "GroupKind",
    "decompose_bias",
    "group_weights",
    "choose_amortization_factor",
    # engines
    "BingoEngine",
    "KnightKingEngine",
    "GSamplerEngine",
    "FlowWalkerEngine",
    "create_engine",
    "engine_names",
    # walks
    "DeepWalkConfig",
    "Node2VecConfig",
    "PPRConfig",
    "run_deepwalk",
    "run_node2vec",
    "run_ppr",
    "run_simple_sampling",
    # serve
    "GraphService",
    "ServeResult",
    "WalkQuery",
]
