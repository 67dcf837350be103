"""Exact symbolic algebra: the number field Q(sqrt2, i), rational-exponent
polynomials in one variable, and normal-ordered linear differential operators.

Everything here is immutable and exact; floating point enters only through
the explicit numeric-evaluation helpers.  All operator work is done in units
M0 = hbar = 1; physical scales are reattached numerically elsewhere.

A field element is held as five ints over one denominator, reduced by one
gcd after every operation, so its arithmetic and equality run on ints; its
four rational parts are Fractions only where they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, sqrt
from operator import itemgetter
from typing import Iterable, Union

RationalLike = Union[int, Fraction]


class AlgebraError(ValueError):
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


def _part(i: int, doc: str) -> property:
    return property(lambda self: Fraction(self._v[i], self._v[4]), doc=doc)


class Coeff:
    """An element (a + b*sqrt2) + i*(c + d*sqrt2) of Q(sqrt2, i).

    The field is closed under +, -, *, / (nonzero divisor) and equality is
    exact.  It is large enough to hold every numeric factor appearing in the
    power-law-mass pipeline (sqrt2/5, -3(4a+1)/(4 sqrt2), -i, ...).

    The value is held as ints (A + B*sqrt2 + i*(C + D*sqrt2)) / m with m > 0
    and gcd(A, B, C, D, m) = 1.  That form is unique, so == compares ints;
    a, b, c and d read the parts as Fractions A/m, B/m, C/m and D/m.
    """

    __slots__ = ("_v",)

    def __init__(self, a=0, b=0, c=0, d=0):
        # over the lcm of reduced denominators the ints are already coprime
        parts = [_frac(v) for v in (a, b, c, d)]
        m = lcm(*(p.denominator for p in parts))
        _set_v(self, (*(p.numerator * (m // p.denominator) for p in parts), m))

    def __setattr__(self, *_):
        raise AttributeError("Coeff is immutable")

    a = _part(0, "The rational part, a Fraction.")
    b = _part(1, "The sqrt2 part, a Fraction.")
    c = _part(2, "The i part, a Fraction.")
    d = _part(3, "The i*sqrt2 part, a Fraction.")

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(v) -> "Coeff":
        if isinstance(v, Coeff):
            return v
        if type(v) is int:
            return _reduced(v, 0, 0, 0, 1)
        v = _frac(v)
        return _reduced(v.numerator, 0, 0, 0, v.denominator)

    @staticmethod
    def sqrt2(mult: RationalLike = 1) -> "Coeff":
        return Coeff(0, mult)

    @staticmethod
    def imag_unit() -> "Coeff":
        return Coeff(0, 0, 1, 0)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return self._v == (0, 0, 0, 0, 1)  # zero's canonical form

    def is_real(self) -> bool:
        _, _, C, D, _ = self._v
        return not (C or D)

    def is_rational(self) -> bool:
        _, B, C, D, _ = self._v
        return not (B or C or D)

    @property
    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ExactnessError(f"{self} is not rational")
        return self.a

    def real(self) -> "Coeff":
        A, B, _, _, m = self._v
        return _reduced(A, B, 0, 0, m)

    def imag(self) -> "Coeff":
        _, _, C, D, m = self._v
        return _reduced(C, D, 0, 0, m)

    def conjugate(self) -> "Coeff":
        A, B, C, D, m = self._v
        return _reduced(A, B, -C, -D, m)

    # -- arithmetic ------------------------------------------------------
    # Every result is reduced once (_reduced).  + skips its cross products
    # over one denominator; * takes a rational operand (B = C = D = 0) on
    # either side apart, four products against sixteen; / goes through *.
    def __add__(self, other) -> "Coeff":
        A1, B1, C1, D1, m1 = self._v
        A2, B2, C2, D2, m2 = (
            other if type(other) is Coeff else Coeff.of(other))._v
        if m1 == m2:
            return _reduced(A1 + A2, B1 + B2, C1 + C2, D1 + D2, m1)
        return _reduced(A1 * m2 + A2 * m1, B1 * m2 + B2 * m1,
                        C1 * m2 + C2 * m1, D1 * m2 + D2 * m1, m1 * m2)

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        A, B, C, D, m = self._v
        return _reduced(-A, -B, -C, -D, m)

    def __sub__(self, other) -> "Coeff":
        return self + (-Coeff.of(other))

    def __rsub__(self, other) -> "Coeff":
        return Coeff.of(other) + (-self)

    def __mul__(self, other) -> "Coeff":
        A1, B1, C1, D1, m1 = self._v
        A2, B2, C2, D2, m2 = (
            other if type(other) is Coeff else Coeff.of(other))._v
        if not (B2 or C2 or D2):
            return _reduced(A1 * A2, B1 * A2, C1 * A2, D1 * A2, m1 * m2)
        if not (B1 or C1 or D1):
            return _reduced(A1 * A2, A1 * B2, A1 * C2, A1 * D2, m1 * m2)
        return _reduced(
            A1 * A2 + 2 * (B1 * B2 - D1 * D2) - C1 * C2,
            A1 * B2 + B1 * A2 - C1 * D2 - D1 * C2,
            A1 * C2 + C1 * A2 + 2 * (B1 * D2 + D1 * B2),
            A1 * D2 + B1 * C2 + C1 * B2 + D1 * A2,
            m1 * m2,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coeff":
        o = Coeff.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero Coeff")
        conj = o.conjugate()
        # |o|^2 = (P + Q sqrt2) / M has inverse M (P - Q sqrt2) / (P^2 - 2Q^2);
        # P^2 - 2Q^2 = M^2 |o|^2 |o'|^2 > 0, with o' = o at sqrt2 -> -sqrt2
        P, Q, _, _, M = (o * conj)._v
        return self * conj * _reduced(M * P, -M * Q, 0, 0, P * P - 2 * Q * Q)

    def __rtruediv__(self, other) -> "Coeff":
        return Coeff.of(other) / self

    def __eq__(self, other) -> bool:
        if type(other) is Coeff:
            return self._v == other._v
        if isinstance(other, (int, Fraction, Coeff)):
            return self._v == Coeff.of(other)._v
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


_set_v = Coeff.__dict__["_v"].__set__


def _reduced(A: int, B: int, C: int, D: int, m: int) -> Coeff:
    """The Coeff (A + B sqrt2 + i(C + D sqrt2)) / m, m > 0, in canonical
    form: divided by the gcd of all five."""
    g = gcd(A, B, C, D, m)
    if g != 1:
        A, B, C, D, m = A // g, B // g, C // g, D // g, m // g
    self = object.__new__(Coeff)
    _set_v(self, (A, B, C, D, m))
    return self


ZERO = Coeff(0)
ONE = Coeff(1)


class PolyX:
    """A finite sum of terms coeff * x**exponent with exact coefficients and
    rational exponents, kept canonical (sorted, merged, zero-free)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        # keyed by (numerator, denominator): a Fraction's own hash is costly
        merged: dict[tuple[int, int], tuple[Coeff, Fraction]] = {}
        for coeff, exp in terms:
            c = coeff if type(coeff) is Coeff else Coeff.of(coeff)
            e = exp if type(exp) is Fraction else _frac(exp)
            key = (e.numerator, e.denominator)
            if key in merged:
                merged[key] = (merged[key][0] + c, e)
            else:
                merged[key] = (c, e)
        object.__setattr__(
            self,
            "terms",
            tuple(
                sorted((t for t in merged.values() if not t[0].is_zero()),
                       key=itemgetter(1))
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
        return PolyX(self.terms + other.terms)

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


def _sum(polys: list[PolyX]) -> PolyX:
    """The sum of one or more polynomials, merged once."""
    if len(polys) == 1:
        return polys[0]
    return PolyX([t for p in polys for t in p.terms])


class DiffOp:
    """A normal-ordered linear differential operator sum_k f_k(x) D^k.

    All derivatives stand to the right of their coefficients; at most one
    term per derivative order.  Equality is exact termwise comparison.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = (), prefactor=1):
        merged: dict[int, list[PolyX]] = {}
        for poly, order in terms:
            if order < 0:
                raise ValueError("negative derivative order")
            merged.setdefault(order, []).append(poly)
        pf = Coeff.of(prefactor)
        terms = ((_sum(merged[k]), k) for k in sorted(merged))
        if pf != ONE:
            terms = ((p.scale(pf), k) for p, k in terms)
        object.__setattr__(
            self, "terms", tuple((p, k) for p, k in terms if not p.is_zero())
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
        return DiffOp(self.terms + other.terms)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __neg__(self) -> "DiffOp":
        return DiffOp([(-p, k) for p, k in self.terms])

    def scale(self, factor) -> "DiffOp":
        return DiffOp(self.terms, prefactor=factor)

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product self o other via the Leibniz rule:
        (f D^m)(g D^n) = f * sum_j C(m, j) g^(j) D^(m + n - j)."""
        top = self.order
        derivs = []  # g, g', ..., g^(top) of each right-hand term, taken once
        for g, n in other.terms:
            gs = [g]
            for _ in range(top):
                gs.append(gs[-1].derivative())
            derivs.append((gs, n))
        out = []
        for f, m in self.terms:
            for gs, n in derivs:
                for j in range(m + 1):
                    out.append((f * gs[j].scale(comb(m, j)), m + n - j))
        return DiffOp(out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def adjoint(self) -> "DiffOp":
        """Formal adjoint under unit weight: (f D^k)* = (-1)^k D^k conj(f),
        normal-ordered by the Leibniz rule in one compose per term."""
        terms = []
        for f, k in self.terms:
            conj = PolyX([(c.conjugate(), e) for c, e in f.terms])
            minus_d_k = DiffOp([(PolyX.const((-1) ** k), k)])
            terms += minus_d_k.compose(DiffOp.multiplication(conj)).terms
        return DiffOp(terms)

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


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    rn = isqrt(value.numerator)
    rd = isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None
