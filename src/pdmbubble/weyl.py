"""Weyl ordering of classical symbols at most quadratic in p.

The Weyl order of f(x) p^k is McCoy's symmetrization
2^-k sum_j C(k, j) p^j f p^(k-j) with p = -i D (N. H. McCoy, PNAS 18, 674
(1932)), composed exactly in one Leibniz pass; no per-power rule is written
out (the tests keep the closed forms as the oracle).  An operator is
Hermitian under a power-law measure mu exactly when mu o op is Hermitian
under unit measure, so one set of conditions serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import ONE, Coeff, DiffOp, PolyX, _leibniz, _monomials

_I = Coeff.imag_unit()

#: McCoy's weights 2^-k C(k, j) (-i)^k, p^k = (-i)^k D^k, by k = 0, 1, 2
_WEIGHTS = tuple(tuple(f * Fraction(comb(k, j), 2 ** k) for j in range(k + 1))
                 for k, f in enumerate((ONE, -_I, -ONE)))


class UnsupportedDegreeError(ValueError):
    """Symbol has p-degree above 2; Weyl rules are not implemented there."""


def weyl_order(sym) -> DiffOp:
    """Weyl-quantize a ClassicalSymbol (hbar = 1 units): each monomial
    c x^e p^k becomes 2^-k sum_j C(k, j) (-i)^k D^j c x^e D^(k-j),
    normal-ordered in one Leibniz pass (algebra._leibniz)."""
    for _, k in sym.terms:
        if k > 2:
            raise UnsupportedDegreeError(f"p^{k} is not supported")
    den, (monomials,) = _monomials(sym)
    return _leibniz((((w, 0, j), (c, e, k - j)) for c, e, k in monomials
                     for j, w in enumerate(_WEIGHTS[k])), den)


@dataclass(frozen=True)
class HermiticityReport:
    """Residuals of the unit-measure Hermiticity conditions for
    A D^2 + B D + C: (i) A real, (ii) A' = Re B, (iii) Im C = Im B' / 2.
    With a measure mu they are the residuals of mu o op."""

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

    measure=None tests op under unit measure.  Otherwise measure is a
    power-form ``pointmass.Measure`` mu, and op is Hermitian under mu
    exactly when mu o op is under unit measure: the conditions are tested
    on z^e o op with e = mu.z_exp (mu's constant factor cancels).
    """
    if op.order > 2:
        raise UnsupportedDegreeError("operator order above 2")
    if measure is not None:
        op = DiffOp.multiplication(PolyX.mono(1, measure.z_exp)).compose(op)
    a, b, c = (op.coefficient(k) for k in (2, 1, 0))
    return HermiticityReport(
        a.imag_part(), a.derivative() - b.real_part(),
        c.imag_part() - b.derivative().imag_part().scale(Fraction(1, 2)),
        measure_corrected=measure is not None)
