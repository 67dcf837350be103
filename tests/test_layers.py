import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmbubble

EXACT_LAYER = ("algebra", "parsing", "weyl", "susy", "pointmass", "ordering")


def run_fresh(code: str) -> str:
    """What a fresh interpreter that finds this pdmbubble prints for code."""
    src = str(Path(pdmbubble.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after_import(module: str) -> str:
    """Which of numpy and scipy a fresh interpreter holds after importing
    pdmbubble.<module>, as printed by that interpreter."""
    return run_fresh(
        f"import sys, pdmbubble.{module}\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )


@pytest.mark.parametrize("module", EXACT_LAYER)
def test_exact_layer_imports_without_numpy_or_scipy(module):
    """Each exact-layer module loads alone in a fresh interpreter, and neither
    numpy nor scipy comes with it."""
    assert loaded_after_import(module) == "[]\n"


def test_helium_imports_without_the_exact_layer():
    """helium computes from numbers: c_a is an argument, so importing it
    loads neither susy nor algebra."""
    assert run_fresh(
        "import sys, pdmbubble.helium\n"
        "print(sorted(m for m in ('pdmbubble.algebra', 'pdmbubble.susy') "
        "if m in sys.modules))"
    ) == "[]\n"


def test_cli_imports_numpy_without_scipy():
    """No scipy module is loaded until eigenvalues are taken, so the commands
    that take none do not pay for it; see the test below for what a spectrum
    loads."""
    assert loaded_after_import("cli") == "['numpy']\n"


def test_spectrum_loads_flapack_without_scipy_linalg():
    """A spectrum loads scipy's compiled LAPACK module alone: neither
    ``scipy.linalg`` nor ``scipy`` itself is imported.  A later
    ``import scipy.linalg`` reuses that module, so its dstebz is the solver's."""
    code = (
        "import io, sys\n"
        "from pdmbubble import cli, spectral\n"
        "assert cli.run(['spectrum', '--a=-1/3'], io.StringIO()) == 0\n"
        "print(sorted(m for m in ('scipy', 'scipy.linalg', "
        "'scipy.linalg._flapack') if m in sys.modules))\n"
        "import scipy.linalg.lapack\n"
        "print(spectral._dstebz() is scipy.linalg.lapack.dstebz)"
    )
    assert run_fresh(code) == "['scipy.linalg._flapack']\nTrue\n"
