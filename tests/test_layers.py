import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmbubble

EXACT_LAYER = ("algebra", "parsing", "weyl", "susy", "pointmass", "ordering")


@pytest.mark.parametrize("module", EXACT_LAYER)
def test_exact_layer_imports_without_numpy_or_scipy(module):
    """Each exact-layer module loads alone in a fresh interpreter, and neither
    numpy nor scipy comes with it."""
    src = str(Path(pdmbubble.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        f"import sys, pdmbubble.{module}\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
