"""Which sandwich orderings realize the Weyl-quantized kinetic operator.

Solves the matching condition as an exact quadratic in the ordering
parameter a, verifies every root at the operator level, and expands the
usual named candidate orderings for side-by-side comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Coeff,
    DiffOp,
    ExactnessError,
    OrderingParam,
    PolyX,
    PowerLawMass,
    _frac,
    expand_sandwich,
    rational_sqrt,
)
from .pointmass import measure_of_map, pm_map, transform_diffop, unit_measure_restore
from .susy import PAPER_QUADRATIC, SOURCE_EXPANDED, normalize_source


class MatchError(Exception):
    """Target operator is not of the expected kinetic-family shape."""


def kinetic_family_coefficient(n, a) -> Fraction:
    """gamma(n, a): the derivative-free coefficient of the sandwich family,
    in the convention sandwich = -(1/2)[x^-n D^2 - n x^(-n-1) D + gamma x^(-n-2)].

    Read off from the composed operator, not from a closed form.
    """
    n = _frac(n)
    op = expand_sandwich(PowerLawMass(n), OrderingParam(_frac(a)))
    return _family_scale_and_gamma(n, op)[1]


def _family_scale_and_gamma(n: Fraction, target: DiffOp) -> tuple[Coeff, Fraction]:
    """Write target = s [x^-n D^2 - n x^(-n-1) D + gamma x^(-n-2)]; return
    (s, gamma)."""
    a2 = target.coefficient(2)
    if not a2.is_monomial():
        raise MatchError("second-order coefficient is not a monomial")
    s, e2 = a2.monomial_parts()
    if e2 != -n:
        raise MatchError(f"second-order exponent {e2} does not match mass n={n}")
    b = target.coefficient(1)
    expected_b = PolyX.mono(s * Coeff.of(-n), -n - 1)
    if b != expected_b:
        raise MatchError("first-order term does not match the kinetic family")
    c = target.coefficient(0)
    if c.is_zero():
        return s, Fraction(0)
    if not c.is_monomial():
        raise MatchError("zero-order coefficient is not a monomial")
    c0, e0 = c.monomial_parts()
    if e0 != -n - 2:
        raise MatchError("zero-order exponent does not match the kinetic family")
    gamma = c0 / s
    if not gamma.is_rational():
        raise ExactnessError("gamma is not rational")
    return s, gamma.rational


@dataclass(frozen=True)
class RootCheck:
    a: Fraction | float
    exact: bool
    verified: bool
    residual: DiffOp

    def to_jsonable(self) -> dict:
        return {
            "a": str(self.a) if self.exact else repr(self.a),
            "exact": self.exact,
            "verified": self.verified,
            "residual_terms": len(self.residual.terms),
        }


@dataclass(frozen=True)
class OrderingSolution:
    source: str
    quadratic: tuple[Fraction, Fraction, Fraction]  # c2 a^2 + c1 a + c0 = 0
    roots: tuple[RootCheck, ...]
    discriminant: Fraction

    @property
    def root_values(self) -> tuple:
        return tuple(r.a for r in self.roots)

    def to_jsonable(self) -> dict:
        return {
            "source": self.source,
            "quadratic": [str(c) for c in self.quadratic],
            "discriminant": str(self.discriminant),
            "roots": [r.to_jsonable() for r in self.roots],
        }


def _solve_quadratic(c2: Fraction, c1: Fraction, c0: Fraction):
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return disc, []
    root = rational_sqrt(disc)
    if root is not None:
        lo = (-c1 - root) / (2 * c2)
        hi = (-c1 + root) / (2 * c2)
        return disc, sorted({lo, hi})
    s = math.sqrt(float(disc))
    return disc, sorted({(float(-c1) - s) / float(2 * c2),
                         (float(-c1) + s) / float(2 * c2)})


def _verify_root(n: Fraction, a, target: DiffOp, scale: Coeff) -> RootCheck:
    if isinstance(a, Fraction):
        sandwich = expand_sandwich(PowerLawMass(n), OrderingParam(a))
        # normalize target to the sandwich convention: -(1/2) bracket
        normalized = target.scale(Coeff.of(Fraction(-1, 2)) / scale)
        residual = sandwich - normalized
        return RootCheck(
            a=a, exact=True, verified=residual.is_zero(), residual=residual
        )
    return RootCheck(a=a, exact=False, verified=False, residual=DiffOp.zero())


def match_orderings(n, target: DiffOp, source: str) -> OrderingSolution:
    """Find ordering parameters a whose sandwich matches the target operator.

    expanded: solve gamma(a) = gamma_target exactly, then verify each root by
    full operator expansion.  paper: map the target to its unit-measure
    z-space coefficient c and solve the paper quadratic = 100 c; roots are
    also run through the same operator-level verification.
    """
    n = _frac(n)
    source = normalize_source(source)
    scale, gamma_t = _family_scale_and_gamma(n, target)
    if source == SOURCE_EXPANDED:
        # gamma(a) = -n a (n a + n + 1) as an exact quadratic in a
        c2, c1, c0 = n * n, n * (n + 1), gamma_t
    else:
        if n != 3:
            raise MatchError("paper-mode matching is transcribed for n = 3 only")
        cmap = pm_map(n)
        z_op = unit_measure_restore(
            transform_diffop(target, cmap), measure_of_map(cmap)
        )
        a2 = z_op.coefficient(2)
        s2, _ = a2.monomial_parts()
        c_poly = z_op.coefficient(0)
        c_val = (
            Fraction(0)
            if c_poly.is_zero()
            else (c_poly.monomial_parts()[0] / s2).rational
        )
        c2, c1, c0 = PAPER_QUADRATIC
        c0 -= 100 * c_val
    disc, roots = _solve_quadratic(c2, c1, c0)
    checks = tuple(_verify_root(n, a, target, scale) for a in roots)
    return OrderingSolution(
        source=source, quadratic=(c2, c1, c0), roots=checks, discriminant=disc
    )


def named_orderings(n=3) -> list[tuple[str, DiffOp]]:
    """Expand the simple candidate orderings of p^2 / x^n (hbar = 1)."""
    n = _frac(n)
    if n != 3:
        raise MatchError("named orderings are listed for n = 3 only")
    i = Coeff.imag_unit()
    p = DiffOp.derivative().scale(-i)
    inv_x3 = DiffOp.multiplication(PolyX.mono(1, -n))
    inv_x = DiffOp.multiplication(PolyX.mono(1, -1))
    p2 = p.compose(p)
    return [
        ("p (1/x^3) p", p.compose(inv_x3).compose(p)),
        (
            "(1/2)[p^2 (1/x^3) + (1/x^3) p^2]",
            (p2.compose(inv_x3) + inv_x3.compose(p2)).scale(Fraction(1, 2)),
        ),
        (
            "(1/x) p (1/x) p (1/x)",
            inv_x.compose(p).compose(inv_x).compose(p).compose(inv_x),
        ),
    ]
