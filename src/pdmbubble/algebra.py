"""Exact symbolic algebra: the number field Q(sqrt2, i), rational-exponent
polynomials in one variable, and normal-ordered linear differential operators.

Everything here is immutable and exact; floating point enters only through
the explicit numeric-evaluation helpers.  All operator work is done in units
M0 = hbar = 1; physical scales are reattached numerically elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, sqrt
from typing import Callable, Iterable, Sequence, Union

RationalLike = Union[int, Fraction]


class AlgebraError(Exception):
    """Base class for exact-algebra failures."""


class DomainError(AlgebraError):
    """Numeric evaluation requested at a singular or invalid point."""


class ExactnessError(AlgebraError):
    """An operation would leave the exact coefficient field."""


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


_SQRT2 = sqrt(2.0)


class Coeff:
    """An element (a + b*sqrt2) + i*(c + d*sqrt2) of Q(sqrt2, i).

    The field is closed under +, -, *, / (nonzero divisor) and equality is
    exact.  It is large enough to hold every numeric factor appearing in the
    power-law-mass pipeline (sqrt2/5, -3(4a+1)/(4 sqrt2), -i, ...).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, *_):
        raise AttributeError("Coeff is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(v) -> "Coeff":
        if isinstance(v, Coeff):
            return v
        return Coeff(_frac(v))

    @staticmethod
    def sqrt2(mult: RationalLike = 1) -> "Coeff":
        return Coeff(0, mult)

    @staticmethod
    def imag_unit() -> "Coeff":
        return Coeff(0, 0, 1, 0)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def is_rational(self) -> bool:
        return self.is_real() and not self.b

    @property
    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ExactnessError(f"{self} is not rational")
        return self.a

    def real(self) -> "Coeff":
        return Coeff(self.a, self.b)

    def imag(self) -> "Coeff":
        return Coeff(self.c, self.d)

    def conjugate(self) -> "Coeff":
        return Coeff(self.a, self.b, -self.c, -self.d)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other) -> "Coeff":
        o = Coeff.of(other)
        return Coeff(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return Coeff(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other) -> "Coeff":
        return self + (-Coeff.of(other))

    def __rsub__(self, other) -> "Coeff":
        return Coeff.of(other) + (-self)

    def __mul__(self, other) -> "Coeff":
        o = Coeff.of(other)
        # complex product over Q(sqrt2): (re1 + i im1)(re2 + i im2)
        ra, rb = _q2_mul(self.a, self.b, o.a, o.b)
        sa, sb = _q2_mul(self.c, self.d, o.c, o.d)
        ta, tb = _q2_mul(self.a, self.b, o.c, o.d)
        ua, ub = _q2_mul(self.c, self.d, o.a, o.b)
        return Coeff(ra - sa, rb - sb, ta + ua, tb + ub)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coeff":
        o = Coeff.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero Coeff")
        num = self * o.conjugate()
        # |o|^2 = re^2 + im^2, an element of Q(sqrt2)
        na, nb = _q2_mul(o.a, o.b, o.a, o.b)
        ma, mb = _q2_mul(o.c, o.d, o.c, o.d)
        ia, ib = _q2_inv(na + ma, nb + mb)
        ra, rb = _q2_mul(num.a, num.b, ia, ib)
        ca, cb = _q2_mul(num.c, num.d, ia, ib)
        return Coeff(ra, rb, ca, cb)

    def __rtruediv__(self, other) -> "Coeff":
        return Coeff.of(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Coeff)):
            o = Coeff.of(other)
            return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __complex__(self) -> complex:
        return complex(
            float(self.a) + float(self.b) * _SQRT2,
            float(self.c) + float(self.d) * _SQRT2,
        )

    def __float__(self) -> float:
        if not self.is_real():
            raise ExactnessError(f"{self} has an imaginary part")
        return float(self.a) + float(self.b) * _SQRT2

    def __repr__(self):
        return f"Coeff({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}*sqrt2")
        if self.c:
            parts.append(f"{self.c}*i")
        if self.d:
            parts.append(f"{self.d}*i*sqrt2")
        return " + ".join(parts) if parts else "0"


def _q2_mul(a, b, c, d):
    """(a + b sqrt2)(c + d sqrt2) in Q(sqrt2)."""
    return a * c + 2 * b * d, a * d + b * c


def _q2_inv(a, b):
    """Inverse of a + b sqrt2 in Q(sqrt2)."""
    norm = a * a - 2 * b * b
    if norm == 0:
        raise ZeroDivisionError("zero element of Q(sqrt2)")
    return a / norm, -b / norm


ZERO = Coeff(0)
ONE = Coeff(1)


class PolyX:
    """A finite sum of terms coeff * x**exponent with exact coefficients and
    rational exponents, kept canonical (sorted, merged, zero-free)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        merged: dict[Fraction, Coeff] = {}
        for coeff, exp in terms:
            c = Coeff.of(coeff)
            e = _frac(exp)
            if e in merged:
                merged[e] = merged[e] + c
            else:
                merged[e] = c
        object.__setattr__(
            self,
            "terms",
            tuple(
                (merged[e], e) for e in sorted(merged) if not merged[e].is_zero()
            ),
        )

    def __setattr__(self, *_):
        raise AttributeError("PolyX is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def mono(coeff, exponent: RationalLike = 0) -> "PolyX":
        return PolyX([(coeff, exponent)])

    @staticmethod
    def const(coeff) -> "PolyX":
        return PolyX.mono(coeff, 0)

    @staticmethod
    def zero() -> "PolyX":
        return PolyX()

    @staticmethod
    def one() -> "PolyX":
        return PolyX.const(1)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][1] == 0)

    def coefficient(self, exponent: RationalLike) -> Coeff:
        e = _frac(exponent)
        for c, te in self.terms:
            if te == e:
                return c
        return ZERO

    def monomial_parts(self) -> tuple[Coeff, Fraction]:
        if not self.is_monomial():
            raise ExactnessError(f"not a monomial: {self}")
        c, e = self.terms[0]
        return c, e

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "PolyX") -> "PolyX":
        return PolyX([(c, e) for c, e in self.terms] + [(c, e) for c, e in other.terms])

    def __sub__(self, other: "PolyX") -> "PolyX":
        return self + (-other)

    def __neg__(self) -> "PolyX":
        return PolyX([(-c, e) for c, e in self.terms])

    def __mul__(self, other: "PolyX") -> "PolyX":
        out = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                out.append((c1 * c2, e1 + e2))
        return PolyX(out)

    def scale(self, k) -> "PolyX":
        k = Coeff.of(k)
        if k == ONE:
            return self
        return PolyX([(c * k, e) for c, e in self.terms])

    def derivative(self) -> "PolyX":
        return PolyX([(c * e, e - 1) for c, e in self.terms if e != 0])

    def real_part(self) -> "PolyX":
        return PolyX([(c.real(), e) for c, e in self.terms])

    def imag_part(self) -> "PolyX":
        return PolyX([(c.imag(), e) for c, e in self.terms])

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyX):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    # -- numerics ----------------------------------------------------------
    def eval(self, x: float) -> complex:
        total = 0j
        for c, e in self.terms:
            if x == 0 and e < 0:
                raise DomainError("evaluation at a pole (x = 0)")
            if x < 0 and e.denominator != 1:
                raise DomainError(f"fractional power x**{e} at negative x")
            total += complex(c) * float(x) ** float(e)
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*x^({e})" for c, e in self.terms)

    def __repr__(self):
        return f"PolyX({list(self.terms)!r})"

    # -- serialization ---------------------------------------------------------
    def to_jsonable(self) -> list:
        entries = []
        for c, e in self.terms:
            entry = {
                "p": str(c.a),
                "q": str(c.b),
                "exponent_num": e.numerator,
                "exponent_den": e.denominator,
            }
            if c.c or c.d:
                entry["ip"] = str(c.c)
                entry["iq"] = str(c.d)
            entries.append(entry)
        return entries


class DiffOp:
    """A normal-ordered linear differential operator sum_k f_k(x) D^k.

    All derivatives stand to the right of their coefficients; at most one
    term per derivative order.  Equality is exact termwise comparison.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = (), prefactor=1):
        merged: dict[int, PolyX] = {}
        for poly, order in terms:
            if order < 0:
                raise ValueError("negative derivative order")
            merged[order] = merged.get(order, PolyX.zero()) + poly
        pf = Coeff.of(prefactor)
        scaled = ((merged[k].scale(pf), k) for k in sorted(merged))
        object.__setattr__(
            self, "terms", tuple((p, k) for p, k in scaled if not p.is_zero())
        )

    def __setattr__(self, *_):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zero() -> "DiffOp":
        return DiffOp()

    @staticmethod
    def identity() -> "DiffOp":
        return DiffOp([(PolyX.one(), 0)])

    @staticmethod
    def derivative(order: int = 1) -> "DiffOp":
        return DiffOp([(PolyX.one(), order)])

    @staticmethod
    def multiplication(poly: PolyX) -> "DiffOp":
        return DiffOp([(poly, 0)])

    # -- inspection -------------------------------------------------------------
    def coefficient(self, order: int) -> PolyX:
        for poly, k in self.terms:
            if k == order:
                return poly
        return PolyX.zero()

    @property
    def order(self) -> int:
        return max((k for _, k in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "DiffOp") -> "DiffOp":
        return DiffOp(list(self.terms) + list(other.terms))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __neg__(self) -> "DiffOp":
        return DiffOp([(-p, k) for p, k in self.terms])

    def scale(self, factor) -> "DiffOp":
        return DiffOp(self.terms, prefactor=factor)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product self o other via the Leibniz rule:
        (f D^m)(g D^n) = f * sum_j C(m, j) g^(j) D^(m + n - j)."""
        out = []
        for f, m in self.terms:
            for g, n in other.terms:
                gj = g
                for j in range(m + 1):
                    out.append((f * gj.scale(comb(m, j)), m + n - j))
                    gj = gj.derivative()
        return DiffOp(out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def adjoint(self) -> "DiffOp":
        """Formal adjoint under unit weight: (f D^k)* = (-D)^k conj(f)."""
        out = DiffOp.zero()
        for f, k in self.terms:
            conj = PolyX([(c.conjugate(), e) for c, e in f.terms])
            term = DiffOp.multiplication(conj)
            minus_d = DiffOp.derivative().scale(-1)
            for _ in range(k):
                term = minus_d.compose(term)
            out = out + term
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffOp):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return "  +  ".join(f"[{p}] D^{k}" for p, k in self.terms)

    __repr__ = __str__

    # -- serialization ---------------------------------------------------------
    def to_jsonable(self) -> dict:
        terms = [
            {"order": order, "poly": poly.to_jsonable()}
            for poly, order in sorted(self.terms, key=lambda t: -t[1])
        ]
        return {"prefactor": {"p": "1", "q": "0"}, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True)

    @staticmethod
    def from_jsonable(data: dict) -> "DiffOp":
        pf = Coeff(Fraction(data["prefactor"]["p"]), Fraction(data["prefactor"]["q"]))
        terms = []
        for t in data["terms"]:
            poly = PolyX(
                [
                    (
                        Coeff(
                            Fraction(e["p"]),
                            Fraction(e["q"]),
                            Fraction(e.get("ip", 0)),
                            Fraction(e.get("iq", 0)),
                        ),
                        Fraction(e["exponent_num"], e["exponent_den"]),
                    )
                    for e in t["poly"]
                ]
            )
            terms.append((poly, t["order"]))
        return DiffOp(terms, prefactor=pf)


@dataclass(frozen=True)
class PowerLawMass:
    """m(x) = M0 * x**n, handled in M0 = 1 units."""

    n: Fraction

    def __post_init__(self):
        object.__setattr__(self, "n", _frac(self.n))
        if self.n < 0:
            raise ValueError("mass exponent must be nonnegative")

    def power(self, exponent: RationalLike) -> PolyX:
        """m(x)**exponent as an exact monomial."""
        return PolyX.mono(1, self.n * _frac(exponent))


@dataclass(frozen=True)
class OrderingParam:
    """Sandwich-ordering parameter a, with b = -1/2 - a."""

    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _frac(self.a))

    @property
    def b(self) -> Fraction:
        return Fraction(-1, 2) - self.a


def expand_sandwich(mass: PowerLawMass, ord: OrderingParam) -> DiffOp:
    """The two-parameter kinetic family -(1/2) m^a D m^{2b} D m^a.

    Always computed by operator composition, never from a pasted closed form.
    """
    m_out = DiffOp.multiplication(mass.power(ord.a))
    m_in = DiffOp.multiplication(mass.power(2 * ord.b))
    d = DiffOp.derivative()
    return (
        m_out.compose(d).compose(m_in).compose(d).compose(m_out).scale(Fraction(-1, 2))
    )


def diffop_apply_numeric(
    op: DiffOp,
    x_points: Sequence[float],
    phi_derivs: Sequence[Callable[[float], float]],
) -> list[complex]:
    """Evaluate (op phi)(x) at the given points.

    phi_derivs[k] must return the k-th derivative of the test function.
    Raises DomainError at coefficient singularities.
    """
    if op.order >= len(phi_derivs):
        raise ValueError(
            f"need derivatives up to order {op.order}, got {len(phi_derivs) - 1}"
        )
    out = []
    for x in x_points:
        total = 0j
        for poly, k in op.terms:
            total += poly.eval(x) * phi_derivs[k](x)
        out.append(total)
    return out


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    rn = isqrt(value.numerator)
    rd = isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None
