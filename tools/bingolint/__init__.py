"""bingolint — project-specific static analysis for the Bingo serve stack.

Every rule in this suite encodes an invariant that a real postmortem in
this repository established (see the README's "Static analysis" section
for the rule-by-rule rationale): lock discipline in the serve layer,
non-blocking discipline in the event loop, interpreter-signal hygiene in
broad exception handlers, shared-memory lifetime discipline, seeded-RNG
determinism, the per-worker-pipe reply convention, thread naming/join
discipline, response-envelope unification, monotonic-clock timing, and
keeping the test tree out of the package.

Run it as::

    python -m bingolint src tests benchmarks examples

with ``tools/`` on ``PYTHONPATH``.  Findings can be suppressed inline
with ``# bingolint: allow[BGL0XX]`` on the offending line (or the line
above), or grandfathered in the committed baseline file
(``tools/bingolint/baseline.json``).
"""

from bingolint.finding import Finding
from bingolint.registry import all_rules, get_rule, register

__version__ = "1.0.0"

__all__ = ["Finding", "__version__", "all_rules", "get_rule", "register"]
