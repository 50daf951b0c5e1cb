"""BGL008 — the front-end never hand-rolls responses; protocol.py owns them.

PR 8/9 moved routing and error mapping into ``serve/protocol.py``
because the two front-ends of the time had drifted (different error
bodies, different status mapping) while both claimed the same API.  The
``/v1`` surface promises ONE canonical envelope
``{"error": {code, message, retry_after}}``.  A front-end that
constructs a response inline — ``send_error``, a literal status code, or
an inline ``{"error": ...}`` dict — reintroduces drift the moment the
envelope evolves.  The front-end may only pass ``Response`` objects
built by the protocol helpers.
"""

from __future__ import annotations

import ast

from bingolint.finding import Finding
from bingolint.registry import Rule, register

#: The transport front-end modules held to the envelope contract.  A new
#: front-end must be added here when it lands.
_FRONT_END_SUFFIXES = ("serve/eventloop.py",)


@register
class ResponseEnvelopeRule(Rule):
    rule_id = "BGL008"
    name = "response-outside-protocol"
    rationale = (
        "HTTP responses are built only by serve/protocol.py helpers; "
        "inline envelopes drift from the /v1 contract (PR 8/9)"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/") and path.endswith(_FRONT_END_SUFFIXES)

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        lines = source.splitlines()
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "send_error":
                    findings.append(
                        self.finding(
                            path,
                            node,
                            "send_error() emits the stdlib HTML error page, "
                            "not the canonical JSON envelope; build the "
                            "response with protocol.error_response()",
                            lines,
                        )
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "send_response"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, int)
                ):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"literal status code "
                            f"{node.args[0].value} bypasses the protocol "
                            "layer's status mapping; send response.status "
                            "from a protocol-built Response",
                            lines,
                        )
                    )
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and key.value == "error":
                        findings.append(
                            self.finding(
                                path,
                                node,
                                "inline {'error': ...} envelope in a "
                                "front-end; only protocol.error_response() "
                                "may construct the error envelope",
                                lines,
                            )
                        )
                        break
        return findings
