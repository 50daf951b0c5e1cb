"""Every script in ``examples/`` runs to completion from a clean directory.

The examples are the library's documented entry points; each one runs in
its own interpreter with only ``src`` on the path, from an empty working
directory it must leave empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []
