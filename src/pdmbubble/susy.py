"""Supersymmetric factorization of the power-law-mass kinetic family.

Builds the superpotential and ladder operators, verifies the Heisenberg
algebra, extracts partner potentials by two routes, and gives the
inverse-square coefficient c_a and the symbolic operator in the oscillator
variable z.  c_a is the one number ``helium.potential_profile`` takes from
this layer, passed in by ``cli``, to tabulate the potentials of the same
Hamiltonian in joules.

Two partner-potential sources are carried side by side:

* ``paper``    -- literal transcription of the published closed form
                  (n = 3 only);
* ``expanded`` -- exact operator subtraction A(+-) A(-+) minus the kinetic
                  sandwich.

``paper``'s V+ and c_a at a equal ``expanded``'s at the dual ordering
b = -1/2 - a, so at the same a they agree only at a = -1/4; V- agrees at every
a.  The divergence is surfaced, not resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Coeff,
    DiffOp,
    OrderingParam,
    PolyX,
    PowerLawMass,
    _frac,
    expand_sandwich,
)

SOURCE_PAPER = "paper"
SOURCE_EXPANDED = "expanded"
_SOURCE_ALIASES = {
    "paper": SOURCE_PAPER,
    "paper-eq12": SOURCE_PAPER,
    "expanded": SOURCE_EXPANDED,
}


def normalize_source(source: str) -> str:
    try:
        return _SOURCE_ALIASES[source]
    except KeyError:
        raise ValueError(f"unknown partner-potential source: {source!r}") from None


@dataclass(frozen=True)
class Superpotential:
    """W(x) for a power-law mass; two monomial terms in general."""

    W: PolyX


def superpotential(mass: PowerLawMass, ord: OrderingParam) -> Superpotential:
    """W = (1/2) integral sqrt(2 m) dx + ((4a+1)/2) (1/sqrt(2 m))'.

    For m = x^n (M0 = 1) this is
    sqrt2/(n+2) x^((n+2)/2) - n(4a+1) sqrt2/8 x^(-(n+2)/2).
    """
    n = mass.n
    half = (n + 2) / 2
    grow = Coeff.sqrt2(Fraction(1, 1) / (n + 2))
    sing = Coeff.sqrt2(-n * (4 * ord.a + 1) * Fraction(1, 8))
    return Superpotential(W=PolyX([(grow, half), (sing, -half)]))


def ladder_operator(mass: PowerLawMass, ord: OrderingParam, sign: str) -> DiffOp:
    """A- = (1/sqrt2) m^b D m^a + W, and A+ as its formal adjoint,
    -(1/sqrt2) m^a D m^b + W (W is real)."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    minus = (
        DiffOp.multiplication(mass.power(ord.b))
        .compose(DiffOp.derivative())
        .compose(DiffOp.multiplication(mass.power(ord.a)))
        .scale(Coeff.sqrt2(Fraction(1, 2)))  # 1/sqrt2 = sqrt2/2
        + DiffOp.multiplication(superpotential(mass, ord).W)
    )
    return minus if sign == "-" else minus.adjoint()


def ladder_product(mass: PowerLawMass, ord: OrderingParam, sign: str) -> DiffOp:
    """H(sign) = A(sign) A(-sign), expanded to normal order."""
    minus = ladder_operator(mass, ord, "-")
    plus = minus.adjoint()
    if sign == "+":
        return plus.compose(minus)
    if sign == "-":
        return minus.compose(plus)
    raise ValueError("sign must be '+' or '-'")


def commutator_check(mass: PowerLawMass, ord: OrderingParam) -> DiffOp:
    """[A-, A+] - 1; the zero operator iff the Heisenberg algebra holds."""
    minus = ladder_operator(mass, ord, "-")
    return minus.commutator(minus.adjoint()) - DiffOp.identity()


@dataclass(frozen=True)
class PartnerPotential:
    """Derivative-free part of A(sign) A(-sign)."""

    V: PolyX
    sign: str
    source: str


#: The paper's quadratic 21 + 48a - 144a^2, as (c2, c1, c0) of c2 a^2 + c1 a + c0.
#: It is 32 times the x^-5 coefficient of V(+-) and -100 c_a.
PAPER_QUADRATIC = (Fraction(-144), Fraction(48), Fraction(21))


def _paper_quadratic(a: Fraction) -> Fraction:
    c2, c1, c0 = PAPER_QUADRATIC
    return c2 * a * a + c1 * a + c0


def _paper_partner(ord: OrderingParam, sign: str) -> PolyX:
    inv5 = _paper_quadratic(ord.a) / 32
    shift = Fraction(-1, 2) if sign == "+" else Fraction(1, 2)
    return PolyX([(inv5, -5), (Fraction(2, 25), 5), (shift, 0)])


def partner_potential(
    mass: PowerLawMass, ord: OrderingParam, sign: str, source: str
) -> PartnerPotential:
    """V(sign) by literal transcription ('paper', n = 3 only) or by exact
    operator subtraction of the kinetic sandwich ('expanded')."""
    source = normalize_source(source)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if source == SOURCE_PAPER:
        if mass.n != 3:
            raise ValueError("paper source is transcribed for n = 3 only")
        return PartnerPotential(V=_paper_partner(ord, sign), sign=sign, source=source)
    product = ladder_product(mass, ord, sign)
    # A(-) A(+) leaves the sandwich with a and b swapped: ordering b, since
    # -1/2 - b = a.
    kinetic = expand_sandwich(mass, ord if sign == "+" else OrderingParam(ord.b))
    residual = product - kinetic
    if residual.order != 0:
        raise AlgebraError(
            "partner-potential subtraction left derivative terms; "
            "algebra inconsistency"
        )
    return PartnerPotential(V=residual.coefficient(0), sign=sign, source=source)


def inverse_square_coefficient(a, source: str) -> Fraction:
    """Dimensionless coefficient c_a of the z-space term +k c_a / z^2.

    paper:    c_a = -q(a)/100, with q the paper quadratic (PAPER_QUADRATIC)
    expanded: c_a = +(144a^2 + 192a + 39)/100
    """
    a = _frac(a)
    source = normalize_source(source)
    if source == SOURCE_PAPER:
        return -_paper_quadratic(a) / 100
    return (144 * a * a + 192 * a + 39) / Fraction(100)


def z_space_operator(ord: OrderingParam, source: str) -> DiffOp:
    """Kinetic plus inverse-square part in symbolic units (M0 = hbar = R_c = 1,
    so k = 1/2): -(1/2) D^2 + (c_a / 2) z^-2."""
    c_a = inverse_square_coefficient(ord.a, source)
    return DiffOp(
        [
            (PolyX.const(Fraction(-1, 2)), 2),
            (PolyX.mono(c_a / 2, -2), 0),
        ]
    )
