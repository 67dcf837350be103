"""Weyl ordering of classical symbols at most quadratic in p.

Two independent routes are provided: closed-form ordering rules and a
brute-force symmetrization oracle built from exact operator composition.
A Hermiticity checker covers both unit and power-law measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Coeff, DiffOp, PolyX

_I = Coeff.imag_unit()


class UnsupportedDegreeError(Exception):
    """Symbol has p-degree above 2; Weyl rules are not implemented there."""


def weyl_order(sym) -> DiffOp:
    """Weyl-quantize a ClassicalSymbol (hbar = 1 units).

    Rules: f(x) p^2 -> -[f D^2 + f' D + f''/4]; g(x) p -> -i [g D + g'/2];
    h(x) -> multiplication by h.
    """
    out = DiffOp.zero()
    for poly, k in sym.terms:
        if k == 0:
            out = out + DiffOp.multiplication(poly)
        elif k == 1:
            d1 = poly.derivative()
            out = out + DiffOp(
                [(poly, 1), (d1.scale(Fraction(1, 2)), 0)], prefactor=-_I
            )
        elif k == 2:
            d1 = poly.derivative()
            d2 = d1.derivative()
            out = out + DiffOp(
                [(poly, 2), (d1, 1), (d2.scale(Fraction(1, 4)), 0)], prefactor=-1
            )
        else:
            raise UnsupportedDegreeError(f"p^{k} is not supported")
    return out


def symmetrization_oracle(f: PolyX, k: int) -> DiffOp:
    """Independent oracle for the Weyl rule, by explicit symmetrization with
    P = -i D: k=2 -> (P^2 f + 2 P f P + f P^2)/4; k=1 -> (P f + f P)/2."""
    if k not in (0, 1, 2):
        raise UnsupportedDegreeError(f"p^{k} is not supported")
    p_op = DiffOp.derivative().scale(-_I)
    f_op = DiffOp.multiplication(f)
    if k == 0:
        return f_op
    if k == 1:
        return (p_op.compose(f_op) + f_op.compose(p_op)).scale(Fraction(1, 2))
    p2 = p_op.compose(p_op)
    return (
        p2.compose(f_op)
        + p_op.compose(f_op).compose(p_op).scale(2)
        + f_op.compose(p2)
    ).scale(Fraction(1, 4))


@dataclass(frozen=True)
class HermiticityReport:
    """Residuals of the Hermiticity conditions for A D^2 + B D + C.

    Unit measure: (i) A real, (ii) A' = Re B, (iii) Im C = Im B' / 2.
    With a power-law measure mu: B = A' + (mu'/mu) A (single residual,
    stored as condition_ii; the other two are unit-style checks).
    """

    condition_i: PolyX
    condition_ii: PolyX
    condition_iii: PolyX
    measure_corrected: bool

    @property
    def passes(self) -> bool:
        return (
            self.condition_i.is_zero()
            and self.condition_ii.is_zero()
            and self.condition_iii.is_zero()
        )

    def to_jsonable(self) -> dict:
        return {
            "passes": self.passes,
            "measure_corrected": self.measure_corrected,
            "condition_i_zero": self.condition_i.is_zero(),
            "condition_ii_zero": self.condition_ii.is_zero(),
            "condition_iii_zero": self.condition_iii.is_zero(),
        }


def hermiticity_check(op: DiffOp, measure=None) -> HermiticityReport:
    """Check the Hermiticity conditions of a second-order operator.

    measure=None tests the unit-measure conditions; otherwise measure is a
    power-form ``pointmass.Measure`` and the corrected condition
    B = A' + (mu'/mu) A is tested.
    """
    if op.order > 2:
        raise UnsupportedDegreeError("operator order above 2")
    a = op.coefficient(2)
    b = op.coefficient(1)
    c = op.coefficient(0)
    if measure is None:
        res_i = a.imag_part()
        res_ii = a.derivative() - b.real_part()
        res_iii = c.imag_part() - b.derivative().imag_part().scale(Fraction(1, 2))
        return HermiticityReport(res_i, res_ii, res_iii, measure_corrected=False)
    log_deriv = PolyX.mono(measure.z_exp, -1)
    res = b - a.derivative() - a * log_deriv
    return HermiticityReport(
        a.imag_part(), res, PolyX.zero(), measure_corrected=True
    )
