"""Point-mass coordinate transform, measure computation, and unit-measure
restoration for second-order operators.

The transform x = c z^alpha is chosen so that a power-law mass x^n becomes
constant.  Transformed coefficients stay exact as long as the accumulated
power of the map constant c is rational, which holds for the whole kinetic
family; otherwise an ExactnessError is raised rather than falling back to
floats.
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
    # represent c * alpha exactly when alpha is itself a power of c_base
    # inverse: alpha = c_base^(-1) holds for pm_map since c_base = 1/alpha
    if map.c_base == 1 / map.alpha:
        return Measure(map.c_base, map.c_exp - 1, map.alpha - 1)
    raise ExactnessError("measure only available in power form for pm maps")


def transform_diffop(op: DiffOp, map: CoordinateMap) -> DiffOp:
    """Rewrite an operator in x as an operator in z under x = c z^alpha.

    Chain rule, applied exactly: d/dx = (1/(c alpha)) z^(1 - alpha) d/dz, so
    a term coeff x^e D^k (k <= 2) becomes lead z^(alpha e + k(1 - alpha)) D^k
    with lead = coeff c^(e - k) / alpha^k, and for k = 2 also
    (1 - alpha) lead z^(alpha e + 1 - 2 alpha) D, from d^2 z/dx^2.
    """
    if op.order > 2:
        raise TransformError("transform implemented for order <= 2 only")
    if map.is_identity():
        return op
    alpha = map.alpha
    out = []
    for poly, k in op.terms:
        for coeff, e in poly.terms:
            lead = coeff * (map.c_power(e - k) / alpha**k)
            z_exp = alpha * e + k * (1 - alpha)
            out.append((PolyX.mono(lead, z_exp), k))
            if k == 2:
                out.append((PolyX.mono(lead * (1 - alpha), z_exp - 1), 1))
    return DiffOp(out)


def unit_measure_restore(op: DiffOp, mu: Measure) -> DiffOp:
    """Conjugate by sqrt(mu) so the inner-product weight becomes 1.

    For A D^2 + B D + C and power-form mu:
    A~ = A;  B~ = B - A mu'/mu;
    C~ = A [3/4 (mu'/mu)^2 - 1/2 mu''/mu] - B (mu'/mu)/2 + C.
    """
    if op.order > 2:
        raise TransformError("restoration implemented for order <= 2 only")
    e = mu.z_exp
    log_d = PolyX.mono(e, -1)                     # mu'/mu
    second = PolyX.mono(e * (e - 1), -2)          # mu''/mu
    a = op.coefficient(2)
    b = op.coefficient(1)
    c = op.coefficient(0)
    b_t = b - a * log_d
    c_t = (
        a * (log_d * log_d).scale(Fraction(3, 4))
        - a * second.scale(Fraction(1, 2))
        - (b * log_d).scale(Fraction(1, 2))
        + c
    )
    return DiffOp([(a, 2), (b_t, 1), (c_t, 0)])
