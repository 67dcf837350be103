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


LOADED = "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"


def loaded_after_import(*modules: str) -> str:
    """Which of numpy and scipy a fresh interpreter holds after importing
    each pdmbubble.<module>, as printed by that interpreter."""
    return run_fresh(
        "import sys, " + ", ".join(f"pdmbubble.{m}" for m in modules) + "\n"
        + LOADED
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


def test_numeric_layer_imports_without_numpy_or_scipy():
    """cli, helium and spectral import numpy on their first numeric call and
    scipy's LAPACK module on the first eigen-solve, so importing them loads
    neither; see the tests below for what the commands load."""
    assert loaded_after_import("cli", "helium", "spectral") == "[]\n"


def test_exact_commands_run_without_numpy_and_scan_without_scipy():
    """weyl, susy, transform, match and params compute exactly or on Python
    floats, so none of them loads numpy or scipy; a scan loads numpy alone."""
    exact = (["weyl", "--hamiltonian", "p^2/x^3"], ["susy", "--a=-1/3"],
             ["transform", "--a=-1/3"], ["match"], ["params"])
    code = (
        "import io, sys\n"
        "from pdmbubble import cli\n"
        f"for argv in {exact!r}:\n"
        "    assert cli.run(argv, io.StringIO()) == 0, argv\n"
        + LOADED
        + "assert cli.run(['scan'], io.StringIO()) == 0\n"
        + LOADED
    )
    assert run_fresh(code) == "[]\n['numpy']\n"


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
