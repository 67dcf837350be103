import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmbubble

EXACT_LAYER = ("algebra", "parsing", "weyl", "susy", "pointmass", "ordering")


def loaded_after_import(module: str) -> str:
    """Which of numpy and scipy a fresh interpreter holds after importing
    pdmbubble.<module>, as printed by that interpreter."""
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
    return proc.stdout


@pytest.mark.parametrize("module", EXACT_LAYER)
def test_exact_layer_imports_without_numpy_or_scipy(module):
    """Each exact-layer module loads alone in a fresh interpreter, and neither
    numpy nor scipy comes with it."""
    assert loaded_after_import(module) == "[]\n"


def test_cli_imports_numpy_without_scipy():
    """scipy is loaded only when eigenvalues are taken, so the commands that
    take none do not pay for it."""
    assert loaded_after_import("cli") == "['numpy']\n"
