"""Recursive-descent parser for the classical-Hamiltonian DSL.

The DSL covers sums of products of rational literals, names bound to
rationals, x with rational powers, and p up to p^2.  Precedence, tightest
first: unary minus, '^' (binding a single signed factor), '*' and '/', then
'+' and '-'.  Decimal and scientific literals are converted exactly to
rationals.  The parser builds ClassicalSymbol's parts, p_power -> PolyX,
directly: a sum collects its terms and a product its cross products, and
each p_power's part is merged once.  Bounds keep a short input from taking
unbounded stack or time: parentheses nest at most MAX_DEPTH deep; a literal
(and a CLI rational) has at most MAX_DIGITS digits and a decimal exponent
at most MAX_EXPONENT in size; a numeric power has at most MAX_DIGITS
digits; every rational built, from a literal or a bound name, at a product,
quotient, power or sum, has at most MAX_RATIONAL_DIGITS digits a part; and
the products of one parse form at most MAX_TERM_PAIRS term pairs in all.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Coeff, PolyX, _sum

#: Deepest parenthesis nesting: the parser recurses once per level.
MAX_DEPTH = 100
#: Most term pairs the products of one parse may multiply in all: a sum
#: power's limit applies per level, so nested powers compound it, and a chain
#: of products grows with the square of its length.
MAX_TERM_PAIRS = 65536
#: Largest |exponent| of a literal's decimal exponent: it is taken exactly.
MAX_EXPONENT = 4096
#: Most digits of a literal before its exponent, and of a numeric power:
#: Python converts no int of more than 4300 digits to or from a string.
MAX_DIGITS = 4096
#: Most digits of the numerator and of the denominator of every rational a
#: parse builds, coefficient or exponent of x, so that each one prints: a
#: product, quotient or sum of bounded literals may pass MAX_DIGITS.
MAX_RATIONAL_DIGITS = 4300
_RATIONAL_LIMIT = 10 ** MAX_RATIONAL_DIGITS


class ParseError(ValueError):
    """Malformed DSL input: carries the offset and what was expected/found."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")


class UnboundNameError(ParseError):
    def __init__(self, offset: int, name: str):
        super().__init__(offset, "a bound name", name)
        self.name = name


class PPowerError(ParseError):
    """p appears with power above 2, in a denominator, or under a
    non-integer exponent."""

    def __init__(self, offset: int, found: str):
        super().__init__(offset, "p-degree at most 2 outside denominators", found)


@dataclass(frozen=True)
class ClassicalSymbol:
    """Classical phase-space function: sum of terms coeff(x) * p^k, k <= 2."""

    terms: tuple  # of (PolyX, int p_power), canonical

    @staticmethod
    def from_parts(parts: dict[int, PolyX]) -> "ClassicalSymbol":
        return ClassicalSymbol(
            tuple((v, k) for k, v in sorted(_nonzero(parts).items())))

    def part(self, p_power: int) -> PolyX:
        for poly, k in self.terms:
            if k == p_power:
                return poly
        return PolyX.zero()

    def to_text(self) -> str:
        """Pretty-print each term as (c)*x^(e), then *p or *p^2; c is
        rational in a parse.  The text reparses to an identical symbol when
        every numerator and denominator has at most MAX_DIGITS digits; a
        longer part (a product of literals may reach MAX_RATIONAL_DIGITS)
        is refused as a literal."""
        return " + ".join(
            f"({c.rational})*x^({e})" + ("", "*p", "*p^2")[k]
            for poly, k in self.terms for c, e in poly.terms) or "0"


#: A name as the tokenizer reads it; x and p are read before any binding.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<name>{NAME_RE.pattern})"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(off, "a token", repr(stripped[0]))
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def literal_past_bounds(text: str) -> tuple[str, str] | None:
    """(expected, found) for the first literal bound that a numeral of a
    rational's text (two around a '/') breaks, or None; before Fraction."""
    for numeral in text.split("/"):
        mantissa, _, exp = numeral.lower().partition("e")
        size = sum(map(str.isdecimal, mantissa))
        digits = "".join(filter(str.isdecimal, exp)).lstrip("0")
        if size > MAX_DIGITS:
            return f"a literal of at most {MAX_DIGITS} digits", f"{size} digits"
        # a prefix one digit longer than MAX_EXPONENT tells, and int()
        # refuses a string of over 4300 digits
        if int(digits[:len(str(MAX_EXPONENT)) + 1] or 0) > MAX_EXPONENT:
            return f"a decimal exponent at most {MAX_EXPONENT}", exp.strip()
    return None


def _nonzero(parts: dict[int, PolyX]) -> dict[int, PolyX]:
    """A parse value, p_power -> PolyX, without its zero parts."""
    return {k: v for k, v in parts.items() if not v.is_zero()}


def _negated(parts: dict[int, PolyX]) -> dict[int, PolyX]:
    return {k: -v for k, v in parts.items()}


def _merge(values: list[dict[int, PolyX]]) -> dict[int, PolyX]:
    """The sum of parse values, each p_power's part merged once."""
    collected: dict[int, list[PolyX]] = {}
    for parts in values:
        for k, v in parts.items():
            collected.setdefault(k, []).append(v)
    return _nonzero({k: _sum(v) for k, v in collected.items()})


def rational_past_bound(r: Fraction) -> tuple[str, str] | None:
    """(expected, found) if r's numerator or denominator has more than
    MAX_RATIONAL_DIGITS digits, or None; r itself is never printed."""
    if max(abs(r.numerator), r.denominator) < _RATIONAL_LIMIT:
        return None
    return f"a rational of at most {MAX_RATIONAL_DIGITS} digits a part", "more"


def polys_past_bound(polys: Iterable[PolyX]) -> tuple[str, str] | None:
    """rational_past_bound of the first coefficient part (a, b, c, d) or
    exponent of x, term by term through polys, that is past it, or None."""
    # a rational coefficient (every one a parse builds) has one part to read
    parts = (r for poly in polys for c, e in poly.terms
             for r in ((c.a, e) if c.is_rational()
                       else (c.a, c.b, c.c, c.d, e)))
    return next(filter(None, map(rational_past_bound, parts)), None)


def _bounded(parts: dict[int, PolyX], offset: int) -> dict[int, PolyX]:
    """parts, once no coefficient or exponent in it is past
    MAX_RATIONAL_DIGITS (a ParseError at offset otherwise)."""
    past = polys_past_bound(parts.values())
    if past:
        raise ParseError(offset, *past)
    return parts


class _Parser:
    """Parses into parse values: ClassicalSymbol's parts, p_power -> PolyX,
    with no zero part."""

    def __init__(self, tokens, bindings):
        self.tokens = tokens
        self.pos = 0
        self.bindings = bindings
        self.depth = 0  # of the parentheses open at pos
        self.pairs = 0  # term pairs multiplied so far

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ParseError(off, repr(op), repr(val) if val else "end of input")

    # -- arithmetic on parse values, each at its operator's offset ----------
    def mul(self, a: dict, b: dict, offset: int) -> dict:
        """a * b, its term pairs counted against MAX_TERM_PAIRS per parse."""
        self.pairs += math.prod(sum(len(v.terms) for v in side.values())
                                for side in (a, b))
        if self.pairs > MAX_TERM_PAIRS:
            raise ParseError(offset, f"at most {MAX_TERM_PAIRS} term pairs "
                             "in a parse", str(self.pairs))
        cross = []
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                if k1 + k2 > 2:
                    raise PPowerError(offset, f"p^{k1 + k2}")
                cross.append({k1 + k2: v1 * v2})
        return _bounded(_merge(cross), offset)

    def div(self, a: dict, b: dict, offset: int) -> dict:
        if any(k > 0 for k in b):
            raise PPowerError(offset, "p in a denominator")
        if not b:
            raise ParseError(offset, "a nonzero divisor", "zero")
        if not b[0].is_monomial():
            raise ParseError(offset, "a monomial divisor", "a multi-term divisor")
        c, e = b[0].monomial_parts()
        inv = PolyX.mono(1 / c.rational, -e)
        return _bounded({k: v * inv for k, v in a.items()}, offset)

    def as_rational(self, value: dict, offset: int) -> Fraction:
        if any(k > 0 for k in value):
            raise PPowerError(offset, "p under ^")
        poly = value.get(0, PolyX.zero())
        if not poly.is_constant():
            raise ParseError(offset, "a constant exponent", "an x-dependent one")
        return poly.coefficient(0).rational  # every coefficient is rational

    def pow(self, base: dict, exponent: Fraction, offset: int) -> dict:
        if base == {1: PolyX.one()}:
            # bare p under ^: integer powers up to 2 only
            if exponent.denominator != 1:
                raise PPowerError(offset, f"p^{exponent}")
            k = int(exponent)
            if k < 0:
                raise PPowerError(offset, "p in a denominator")
            if k > 2:
                raise PPowerError(offset, f"p^{k}")
            return {k: PolyX.one()}
        if any(k > 0 for k in base):
            raise PPowerError(offset, "p inside a ^ base")
        poly = base.get(0, PolyX.zero())
        if poly.is_zero() and exponent < 0:
            raise ParseError(offset, "a nonzero divisor", "zero")
        if poly.is_monomial():
            c, e = poly.monomial_parts()
            if c == Coeff.of(1):
                return _bounded({0: PolyX.mono(1, e * exponent)}, offset)
            if exponent.denominator == 1:
                r = c.rational  # r ** k's digits first; k may pass 1e308
                size = abs(exponent) * Fraction(
                    math.log10(max(abs(r.numerator), r.denominator)))
                if size >= MAX_DIGITS:
                    raise ParseError(offset, f"a power of at most {MAX_DIGITS} "
                                     "digits", f"{math.floor(size) + 1} digits")
                return _bounded({0: PolyX.mono(r ** int(exponent),
                                               e * exponent)}, offset)
            raise ParseError(
                offset, "an integer exponent on a non-monic base", str(exponent)
            )
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError(
                offset, "a nonnegative integer exponent on a sum", str(exponent)
            )
        if exponent > 16:
            raise ParseError(offset, "a sum exponent at most 16", str(exponent))
        power = {0: PolyX.one()}
        for _ in range(int(exponent)):
            power = self.mul(power, base, offset)
        return power

    # -- grammar ---------------------------------------------------------------
    def parse(self) -> dict:
        value = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(off, "end of input", repr(val))
        return value

    def expr(self) -> dict:
        terms = [self.term()]
        offset = self.peek()[2]  # of a sum's first '+' or '-'
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            sign = self.advance()[1]
            rhs = self.term()
            terms.append(rhs if sign == "+" else _negated(rhs))
        if len(terms) == 1:
            return terms[0]
        return _bounded(_merge(terms), offset)

    def term(self) -> dict:
        value = self.power()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, off = self.advance()
            rhs = self.power()
            value = (self.mul(value, rhs, off) if op == "*"
                     else self.div(value, rhs, off))
        return value

    def power(self) -> dict:
        base = self.signed()
        if self.peek()[:2] != ("op", "^"):
            return base
        off = self.advance()[2]
        return self.pow(base, self.as_rational(self.signed(), off), off)

    def signed(self) -> dict:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        value = self.primary()
        return _negated(value) if negate else value

    def primary(self) -> dict:
        kind, val, off = self.advance()
        if kind == "num":
            past = literal_past_bounds(val)
            if past:
                raise ParseError(off, *past)
            return _bounded(_nonzero({0: PolyX.const(Fraction(val))}), off)
        if kind == "name":
            if val == "x":
                return {0: PolyX.mono(1, 1)}
            if val == "p":
                return {1: PolyX.one()}
            if val in self.bindings:
                c = Coeff.of(self.bindings[val])
                if not c.is_rational():
                    raise ParseError(off, "a name bound to a rational",
                                     f"{val} = {c}")
                return _bounded(_nonzero({0: PolyX.const(c)}), off)
            raise UnboundNameError(off, val)
        if kind == "op" and val == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(
                    off, f"parentheses nested at most {MAX_DEPTH} deep", "'('")
            self.depth += 1
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        found = repr(val) if val else "end of input"
        raise ParseError(off, "a number, name, or '('", found)


def parse_hamiltonian(text: str, bindings: dict | None = None) -> ClassicalSymbol:
    """Parse a classical-Hamiltonian expression into a ClassicalSymbol.

    Raises ParseError (or its UnboundNameError / PPowerError subclasses) on
    any malformed input, a name bound to an irrational, or one past a bound
    above; parsing is total.
    """
    parts = _Parser(_tokenize(text), bindings or {}).parse()
    return ClassicalSymbol.from_parts(parts)
