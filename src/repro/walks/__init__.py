"""Random walk applications (Section 2.2 / the paper's evaluation workloads).

The three applications evaluated in the paper — biased DeepWalk, node2vec and
Personalized PageRank — plus the simple one-step sampling kernel.  Every
application is written against the :class:`~repro.walks.walker.NeighborSampler`
protocol, so any engine (Bingo or the baselines) can execute it.
"""

from repro.walks.walker import (
    NeighborSampler,
    VisitCounter,
    WalkResult,
    collect_walks,
)
from repro.walks.frontier import (
    BatchedWalks,
    WalkFrontier,
    run_frontier_deepwalk,
    run_frontier_node2vec,
    run_frontier_ppr,
)
from repro.walks.deepwalk import DeepWalkConfig, run_deepwalk
from repro.walks.node2vec import Node2VecConfig, run_node2vec
from repro.walks.ppr import PPRConfig, run_ppr, ppr_scores
from repro.walks.simple import run_simple_sampling

__all__ = [
    "NeighborSampler",
    "VisitCounter",
    "WalkResult",
    "collect_walks",
    "BatchedWalks",
    "WalkFrontier",
    "run_frontier_deepwalk",
    "run_frontier_node2vec",
    "run_frontier_ppr",
    "DeepWalkConfig",
    "run_deepwalk",
    "Node2VecConfig",
    "run_node2vec",
    "PPRConfig",
    "run_ppr",
    "ppr_scores",
    "run_simple_sampling",
]
