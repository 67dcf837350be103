"""Point-mass coordinate transform, measure computation, and unit-measure
restoration for second-order operators.

The transform x = c z^alpha is chosen so that a power-law mass x^n becomes
constant, and conjugating by sqrt(mu), mu = dx/dz, restores unit measure.
Both are stated as substitutions and composed by DiffOp.compose; no
chain-rule or restore coefficient is written out.  Transformed coefficients
stay exact as long as the accumulated power of the map constant c is
rational, which holds for the whole kinetic family; otherwise an
ExactnessError is raised rather than falling back to floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import DiffOp, ExactnessError, PolyX, _frac


class TransformError(ValueError):
    """Unsupported coordinate transform request."""


@dataclass(frozen=True)
class CoordinateMap:
    """x = c z^alpha with c = c_base^c_exp; a bijection on (0, inf)."""

    alpha: Fraction
    c_base: Fraction
    c_exp: Fraction

    def __post_init__(self):
        if self.alpha <= 0 or self.c_base <= 0:
            raise TransformError("coordinate map needs alpha > 0 and c > 0")

    def is_identity(self) -> bool:
        return self.alpha == 1 and (self.c_base == 1 or self.c_exp == 0)

    def c_power(self, t: Fraction) -> Fraction:
        """c^t as an exact rational; requires c_base^(t c_exp) rational."""
        u = t * self.c_exp
        if u.denominator != 1:
            raise ExactnessError(
                f"c^{t} = {self.c_base}^{u} leaves the rational field"
            )
        return self.c_base ** u


@dataclass(frozen=True)
class Measure:
    """Power-form measure mu(z) = coeff_base^coeff_exp * z^z_exp = dx/dz."""

    coeff_base: Fraction
    coeff_exp: Fraction
    z_exp: Fraction


def pm_map(n) -> CoordinateMap:
    """Map making the mass x^n constant: alpha = 2/(n+2), c = ((n+2)/2)^alpha."""
    n = _frac(n)
    if n <= -2:
        raise TransformError("mass exponent must exceed -2")
    alpha = Fraction(2) / (n + 2)
    return CoordinateMap(alpha=alpha, c_base=(n + 2) / Fraction(2), c_exp=alpha)


def measure_of_map(map: CoordinateMap) -> Measure:
    """mu(z) = dx/dz = c alpha z^(alpha - 1)."""
    # c alpha = c_base^(c_exp - 1) when alpha = 1/c_base, as for every pm_map
    if map.c_base == 1 / map.alpha:
        return Measure(map.c_base, map.c_exp - 1, map.alpha - 1)
    raise ExactnessError("measure only available in power form for pm maps")


def transform_diffop(op: DiffOp, map: CoordinateMap) -> DiffOp:
    """Rewrite an operator in x as an operator in z under x = c z^alpha:
    each f(x) D_x^k becomes f(c z^alpha) c^-k d^k with d = (1/alpha)
    z^(1 - alpha) D, and d^k is composed.  f c^-k is exact through c_power,
    term by term in op's order."""
    if op.order > 2:
        raise TransformError("transform implemented for order <= 2 only")
    if map.is_identity():
        return op
    alpha = map.alpha
    d = DiffOp([(PolyX.mono(1 / alpha, 1 - alpha), 1)])
    fs = [PolyX([(coeff * map.c_power(e - k), alpha * e)
                 for coeff, e in op.coefficient(k).terms])
          for k in range(op.order + 1)]
    out = DiffOp.zero()
    for f in reversed(fs):  # Horner in d: (f_2 d + f_1) d + f_0
        out = DiffOp(out.compose(d).terms + ((f, 0),))
    return out


def unit_measure_restore(op: DiffOp, mu: Measure) -> DiffOp:
    """Conjugate by sqrt(mu) so the inner-product weight becomes 1:
    z^(e/2) o op o z^(-e/2) with e = mu.z_exp, composed exactly (mu's
    constant factor cancels)."""
    if op.order > 2:
        raise TransformError("restoration implemented for order <= 2 only")
    half = mu.z_exp / 2
    return (DiffOp.multiplication(PolyX.mono(1, half)).compose(op)
            .compose(DiffOp.multiplication(PolyX.mono(1, -half))))
