"""BGL012 — a batch reaches a graph only through the graph's batch step.

Every engine and every shard replica applies an update batch through
``DynamicGraph.batch_changes`` / ``remove_arcs`` / ``add_arcs`` (or
``DynamicGraph.apply_batch``, which runs all three): Section 5.2's net
effect, validated before the first arc changes.  A second path once
replayed batches per source with ``group_by_source`` and the per-vertex
bulk mutators, and gave the same batch another meaning: the Bingo writer
accepted a repeated insert that every shard replica then refused, which
closed the shard pool.  Those names survive only for perfbench, so the
engines, the serve layer and the update-stream module never call them.
"""

from __future__ import annotations

import ast

from bingolint.astutil import call_attr
from bingolint.finding import Finding
from bingolint.registry import Rule, register

#: Methods of the per-source replay the batch step replaced.
_REPLAY_CALLS = {"group_by_source", "add_edges_bulk", "remove_edges_bulk"}


@register
class OneBatchPathRule(Rule):
    rule_id = "BGL012"
    name = "one-batch-path"
    rationale = (
        "src/repro/engines, src/repro/serve and graph/update_stream.py apply a "
        "batch only through DynamicGraph.apply_batch / batch_changes, never a "
        "per-source replay"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(("src/repro/engines/", "src/repro/serve/")) or (
            path == "src/repro/graph/update_stream.py"
        )

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        lines = source.splitlines()
        return [
            self.finding(
                path,
                node,
                f".{call_attr(node)}(...) replays a batch per source; apply it "
                "with DynamicGraph.apply_batch (or batch_changes, remove_arcs "
                "and add_arcs) instead",
                lines,
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and call_attr(node) in _REPLAY_CALLS
        ]
