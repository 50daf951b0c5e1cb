"""BGL011 — the engines and the serve layer build no per-vertex Bingo sampler.

Bingo's served state is the graph plus the fused tables derived from its
rows; walks, scalar draws, reports and updates all read those.  The
per-vertex :class:`BingoVertexSampler` survives as the test oracle and as
the object Table 1 times directly (``src/repro/bench/experiments.py``).
Building samplers again on the engine or serve path brings back state
that every batch must maintain and nothing reads: about 70% of
``apply_batch`` and tens of thousands of GC-tracked objects per boot.
"""

from __future__ import annotations

import ast

from bingolint.astutil import call_attr, call_name
from bingolint.finding import Finding
from bingolint.registry import Rule, register

#: Callees that construct per-vertex samplers.
_CONSTRUCTORS = {"BingoVertexSampler", "BingoVertexSampler.from_neighbors"}


@register
class ServedSamplerRule(Rule):
    rule_id = "BGL011"
    name = "served-vertex-sampler"
    rationale = (
        "src/repro/engines and src/repro/serve never build BingoVertexSampler "
        "objects: the graph and the fused tables are the served state"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(("src/repro/engines/", "src/repro/serve/"))

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        lines = source.splitlines()
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node) or ""
            constructs = any(
                dotted == name or dotted.endswith("." + name) for name in _CONSTRUCTORS
            )
            if constructs or call_attr(node) == "samplers":
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"{dotted or '.samplers'}(...) builds per-vertex Bingo "
                        "samplers on the served path; derive from the graph rows "
                        "(RadixLayout) and the fused tables instead",
                        lines,
                    )
                )
        return findings
