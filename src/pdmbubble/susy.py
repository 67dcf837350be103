"""Supersymmetric factorization of the power-law-mass kinetic family.

Builds the superpotential and the factorization, verifies the Heisenberg
algebra, extracts partner potentials by two routes, and gives the
inverse-square coefficient c_a and the symbolic operator in the oscillator
variable z.  c_a is the one number ``helium.potential_profile`` takes from
this layer, passed in by ``cli``, to tabulate the potentials of the same
Hamiltonian in joules.

``factorize`` composes K = (1/sqrt2) m^b D m^a, its adjoint K^dagger,
A- = K + W, A+ = K^dagger + W (= (A-)^dagger, as W is real), H+ = A+ A- and
H- = A- A+ once per mass and ordering, and a call with the same mass and
ordering as the call before it returns that call's ``Factorization``.
``commutator_check``, ``ladder_product`` and ``partner_potential`` read
their results from it, so the commutator and both expanded partner
potentials of one ordering share one build.  Two partner-potential sources are carried side by
side:

* ``paper``    -- literal transcription of the published closed form
                  (n = 3 only);
* ``expanded`` -- H+- less its kinetic half: K^dagger K, the sandwich at a,
                  for V+, and K K^dagger, the sandwich at b, for V-.

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
    _last_result,
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


def _check_sign(sign: str) -> None:
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")


@dataclass(frozen=True)
class Factorization:
    """W, K, K^dagger, A-, A+, H+ and H- for one mass and ordering (see
    ``factorize``)."""

    W: PolyX
    kinetic: DiffOp
    kinetic_dagger: DiffOp
    minus: DiffOp
    plus: DiffOp
    h_plus: DiffOp
    h_minus: DiffOp


@_last_result
def factorize(mass: PowerLawMass, ord: OrderingParam) -> Factorization:
    """The factorization H+ = A+ A- of the kinetic family at ordering a;
    the same object as the call before it when mass and ordering repeat."""
    W = superpotential(mass, ord).W
    kinetic = (
        DiffOp.multiplication(mass.power(ord.b))
        .compose(DiffOp.derivative())
        .compose(DiffOp.multiplication(mass.power(ord.a)))
        .scale(Coeff.sqrt2(Fraction(1, 2)))  # 1/sqrt2 = sqrt2/2
    )
    kinetic_dagger = kinetic.adjoint()
    w = DiffOp.multiplication(W)  # real, so its own adjoint
    minus, plus = kinetic + w, kinetic_dagger + w
    return Factorization(W, kinetic, kinetic_dagger, minus, plus,
                         h_plus=plus.compose(minus), h_minus=minus.compose(plus))


def ladder_product(mass: PowerLawMass, ord: OrderingParam, sign: str) -> DiffOp:
    """H(sign) = A(sign) A(-sign), expanded to normal order."""
    _check_sign(sign)
    f = factorize(mass, ord)
    return f.h_plus if sign == "+" else f.h_minus


def commutator_check(mass: PowerLawMass, ord: OrderingParam) -> DiffOp:
    """[A-, A+] - 1 = H- - H+ - 1; the zero operator iff the Heisenberg
    algebra holds."""
    f = factorize(mass, ord)
    return f.h_minus - f.h_plus - DiffOp.identity()


def partner_potential(mass: PowerLawMass, ord: OrderingParam, sign: str,
                      source: str) -> PartnerPotential:
    """V(sign) by literal transcription ('paper', n = 3 only), which builds
    no operator, or as H(sign) less its kinetic half ('expanded'): less
    K^dagger K (the sandwich at a) for + and less K K^dagger (at b) for -."""
    source = normalize_source(source)
    _check_sign(sign)
    if source == SOURCE_EXPANDED:
        f = factorize(mass, ord)
        if sign == "+":
            residual = f.h_plus - f.kinetic_dagger.compose(f.kinetic)
        else:
            residual = f.h_minus - f.kinetic.compose(f.kinetic_dagger)
        if residual.order != 0:
            raise AlgebraError("partner-potential subtraction left derivative "
                               "terms; algebra inconsistency")
        return PartnerPotential(V=residual.coefficient(0), sign=sign, source=source)
    if mass.n != 3:
        raise ValueError("paper source is transcribed for n = 3 only")
    inv5 = _paper_quadratic(ord.a) / 32
    shift = Fraction(-1, 2) if sign == "+" else Fraction(1, 2)
    V = PolyX([(inv5, -5), (Fraction(2, 25), 5), (shift, 0)])
    return PartnerPotential(V=V, sign=sign, source=source)


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
