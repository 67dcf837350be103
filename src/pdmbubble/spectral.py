"""Finite-difference discretization of unit-measure second-order operators
and selective eigenvalue extraction.

The assembled matrices are symmetric tridiagonal (3-point stencil, uniform
grid, Dirichlet boundaries); the lowest eigenvalues come from LAPACK's
Sturm-sequence bisection driver ``dstebz``.  It is called from scipy's
compiled ``scipy.linalg._flapack`` module, loaded on first use without
``scipy/linalg/__init__.py``: that package's array-API shims take about
180 ms to import, the one extension module a few ms.  numpy, too, is
imported by the first function that builds or reads an array.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import TYPE_CHECKING

from .algebra import DiffOp, DomainError

if TYPE_CHECKING:
    import numpy as np


class AssembleError(ValueError):
    """Operator cannot be discretized as stated."""


def check_range(z_min: float, z_max: float) -> None:
    """Refuse a non-finite, empty or reversed interval."""
    if not (math.isfinite(z_min) and math.isfinite(z_max)):
        raise ValueError("z range requires finite z_min and z_max")
    if not z_max > z_min:
        raise ValueError("z_max must exceed z_min")


def check_count(count: int, size: int) -> None:
    """Refuse a level count outside 1..size."""
    if not 1 <= count <= size:
        raise ValueError("count must satisfy 1 <= count <= N")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [z_min, z_max] with N points (Dirichlet endpoints)."""

    z_min: float
    z_max: float
    points: int

    def __post_init__(self):
        if self.points < 3:
            raise ValueError("grid needs at least 3 points")
        check_range(self.z_min, self.z_max)

    @property
    def h(self) -> float:
        return (self.z_max - self.z_min) / (self.points + 1)

    @property
    def interior(self) -> np.ndarray:
        import numpy as np
        # Dirichlet: unknowns live strictly inside [z_min, z_max]
        return self.z_min + self.h * np.arange(1, self.points + 1)


@dataclass(frozen=True)
class SymTriMatrix:
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        if len(self.off_diagonal) != len(self.diagonal) - 1:
            raise ValueError("off-diagonal length must be N - 1")

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def max_difference(self, other: "SymTriMatrix") -> float:
        import numpy as np
        if self.size != other.size:
            raise ValueError("size mismatch")
        return max(
            float(np.max(np.abs(self.diagonal - other.diagonal))),
            float(np.max(np.abs(self.off_diagonal - other.off_diagonal))),
        )


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: tuple[float, ...]


def stencil(a_val: float, grid: Grid, *columns) -> SymTriMatrix:
    """3-point stencil for A D^2 + C with constant A: diag_i = -2A/h^2 + C(z_i),
    off_i = A/h^2; C is one or more columns on grid.interior, summed in order."""
    import numpy as np
    h2 = grid.h**2
    diag = sum(columns, np.full(grid.points, -2.0 * a_val / h2))
    off = np.full(grid.points - 1, a_val / h2)
    return SymTriMatrix(diagonal=diag, off_diagonal=off)


def assemble(op: DiffOp, grid: Grid) -> SymTriMatrix:
    """The stencil of a unit-measure operator A D^2 + C with constant A.

    A nonzero first-derivative term is refused: restore unit measure first.
    """
    if op.order > 2:
        raise AssembleError("operator order above 2")
    if not op.coefficient(1).is_zero():
        raise AssembleError(
            "nonzero first-derivative coefficient; restore unit measure first"
        )
    a_poly = op.coefficient(2)
    if not a_poly.is_constant():
        raise AssembleError("second-derivative coefficient must be constant")
    c_poly = op.coefficient(0)
    try:
        c_vals = [c_poly.eval(z).real for z in grid.interior]
    except DomainError as exc:
        raise AssembleError(f"coefficient singular on grid: {exc}") from None
    return stencil(a_poly.eval(1.0).real, grid, c_vals)


@functools.cache
def _dstebz():
    """LAPACK's dstebz from ``scipy.linalg._flapack``.  A module not yet
    imported is loaded from its file and registered under its own name, so
    ``scipy.linalg``, if imported later, reuses this module object."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        # find_spec of a top-level package does not run its __init__
        linalg = Path(
            importlib.util.find_spec("scipy").submodule_search_locations[0],
            "linalg")
        for suffix in EXTENSION_SUFFIXES:
            path = linalg / f"_flapack{suffix}"
            if path.is_file():
                break
        else:
            raise ImportError(f"no {name} extension in {linalg}")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dstebz


def eigenvalues(matrix: SymTriMatrix, count: int,
                grid: Grid | None = None) -> SpectralResult:
    """The `count` smallest eigenvalues, by Sturm-sequence bisection.  A grid,
    if given, is named when the solve does not converge."""
    import numpy as np
    check_count(count, matrix.size)
    d = np.asarray_chkfinite(matrix.diagonal)  # scipy's refusal, word for word
    e = np.asarray_chkfinite(matrix.off_diagonal)
    if matrix.size == 1:  # dstebz's wrapper refuses an empty e; scipy returns d
        return SpectralResult(eigenvalues=tuple(d.tolist()))
    # range 2: indices il..iu; tol 0: LAPACK's own; order "E": ascending
    m, w, _, _, info = _dstebz()(d, e, 2, 0.0, 1.0, 1, count, 0.0, "E")
    if info > 0:  # bisection fails on too wide a range
        where = "" if grid is None else (
            f" on the grid over [{grid.z_min:g}, {grid.z_max:g}]"
            f" with h = {grid.h:g}"
        )
        raise ValueError(f"eigenvalues did not converge{where}")
    if info < 0:
        raise RuntimeError(f"dstebz refused its argument {-info}")
    return SpectralResult(eigenvalues=tuple(w[:m].tolist()))


def compare_spectra(
    op1: DiffOp, op2: DiffOp, grid: Grid, count: int
) -> tuple[float, float]:
    """(matrix max-difference, eigenvalue max-difference over lowest count)."""
    m1 = assemble(op1, grid)
    m2 = assemble(op2, grid)
    dist = m1.max_difference(m2)
    e1 = eigenvalues(m1, count, grid).eigenvalues
    e2 = eigenvalues(m2, count, grid).eigenvalues
    return dist, max(abs(x - y) for x, y in zip(e1, e2))
