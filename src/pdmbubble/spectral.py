"""Finite-difference discretization of unit-measure second-order operators
and selective eigenvalue extraction.

The assembled matrices are symmetric tridiagonal (3-point stencil, uniform
grid, Dirichlet boundaries); the lowest eigenvalues come from LAPACK's
Sturm-sequence bisection driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .algebra import DiffOp, DomainError


class AssembleError(Exception):
    """Operator cannot be discretized as stated."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [z_min, z_max] with N points (Dirichlet endpoints)."""

    z_min: float
    z_max: float
    points: int

    def __post_init__(self):
        if self.points < 3:
            raise ValueError("grid needs at least 3 points")
        if not self.z_max > self.z_min:
            raise ValueError("z_max must exceed z_min")

    @property
    def h(self) -> float:
        return (self.z_max - self.z_min) / (self.points + 1)

    @property
    def interior(self) -> np.ndarray:
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
        if self.size != other.size:
            raise ValueError("size mismatch")
        return max(
            float(np.max(np.abs(self.diagonal - other.diagonal))),
            float(np.max(np.abs(self.off_diagonal - other.off_diagonal))),
        )


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: tuple[float, ...]
    grid: Grid


def assemble(
    op: DiffOp,
    grid: Grid,
    potential: Optional[Callable[[float], float]] = None,
    scale: float = 1.0,
) -> SymTriMatrix:
    """3-point stencil for A D^2 + C with constant A (unit-measure form).

    diag_i = -2 A / h^2 + C(z_i) (+ potential(z_i)); off_i = A / h^2.
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
    a_val = a_poly.eval(1.0).real * scale
    c_poly = op.coefficient(0)
    zs = grid.interior
    h2 = grid.h**2
    try:
        c_vals = np.array([c_poly.eval(z).real * scale for z in zs])
    except DomainError as exc:
        raise AssembleError(f"coefficient singular on grid: {exc}") from None
    diag = -2.0 * a_val / h2 + c_vals
    if potential is not None:
        diag = diag + np.array([potential(z) for z in zs])
    off = np.full(grid.points - 1, a_val / h2)
    return SymTriMatrix(diagonal=diag, off_diagonal=off)


def eigenvalues(matrix: SymTriMatrix, count: int,
                grid: Grid | None = None) -> SpectralResult:
    """The `count` smallest eigenvalues, by Sturm-sequence bisection."""
    if not 1 <= count <= matrix.size:
        raise ValueError("count must satisfy 1 <= count <= N")
    vals = eigvalsh_tridiagonal(
        matrix.diagonal,
        matrix.off_diagonal,
        select="i",
        select_range=(0, count - 1),
        lapack_driver="stebz",
    )
    return SpectralResult(
        eigenvalues=tuple(sorted(float(v) for v in vals)),
        grid=grid if grid is not None else Grid(0.0, 1.0, matrix.size),
    )


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
