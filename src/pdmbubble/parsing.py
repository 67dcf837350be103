"""Recursive-descent parser for the classical-Hamiltonian DSL.

The DSL covers sums of products of rational literals, names bound to
rationals, x with rational powers, and p up to p^2.  Precedence, tightest
first: unary minus, '^' (binding a single signed factor), '*' and '/', then
'+' and '-'.  Decimal and scientific literals are converted exactly to
rationals.  Bounds keep a short input from taking unbounded stack or time:
parentheses nest at most MAX_DEPTH deep; a literal (and a CLI rational) has
at most MAX_DIGITS digits and a decimal exponent at most MAX_EXPONENT in
size; a numeric power has at most MAX_DIGITS digits; and the products of
one parse form at most MAX_TERM_PAIRS term pairs in all.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Coeff, PolyX

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
            tuple(
                (parts[k], k)
                for k in sorted(parts)
                if not parts[k].is_zero()
            )
        )

    def part(self, p_power: int) -> PolyX:
        for poly, k in self.terms:
            if k == p_power:
                return poly
        return PolyX.zero()

    def to_text(self) -> str:
        """Pretty-print in a form that reparses to an identical symbol."""
        if not self.terms:
            return "0"
        pieces = []
        for poly, k in self.terms:
            for coeff, exp in poly.terms:
                factors = [_coeff_text(coeff)]
                if exp != 0:
                    factors.append(f"x^({exp.numerator}/{exp.denominator})")
                if k == 1:
                    factors.append("p")
                elif k == 2:
                    factors.append("p^2")
                pieces.append("*".join(factors))
        return " + ".join(pieces)


def _coeff_text(c: Coeff) -> str:
    r = c.rational  # DSL output restricted to rational coefficients
    if r.denominator == 1:
        return f"({r.numerator})"
    return f"({r.numerator}/{r.denominator})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
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


class _Value:
    """Intermediate parse value: map p_power -> PolyX coefficient."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[int, PolyX]):
        self.parts = {k: v for k, v in parts.items() if not v.is_zero()}

    @staticmethod
    def const(c: Coeff) -> "_Value":
        return _Value({0: PolyX.const(c)})

    def add(self, other: "_Value") -> "_Value":
        out = dict(self.parts)
        for k, v in other.parts.items():
            out[k] = out.get(k, PolyX.zero()) + v
        return _Value(out)

    def neg(self) -> "_Value":
        return _Value({k: -v for k, v in self.parts.items()})

    def mul(self, other: "_Value", offset: int, spend_pairs) -> "_Value":
        """self * other, after spend_pairs(term pairs, offset) (see
        _Parser.spend_pairs)."""
        spend_pairs(sum(len(v.terms) for v in self.parts.values())
                    * sum(len(v.terms) for v in other.parts.values()), offset)
        out: dict[int, PolyX] = {}
        for k1, v1 in self.parts.items():
            for k2, v2 in other.parts.items():
                k = k1 + k2
                if k > 2:
                    raise PPowerError(offset, f"p^{k}")
                out[k] = out.get(k, PolyX.zero()) + v1 * v2
        return _Value(out)

    def div(self, other: "_Value", offset: int) -> "_Value":
        if any(k > 0 for k in other.parts):
            raise PPowerError(offset, "p in a denominator")
        poly = other.parts.get(0, PolyX.zero())
        if poly.is_zero():
            raise ParseError(offset, "a nonzero divisor", "zero")
        if not poly.is_monomial():
            raise ParseError(offset, "a monomial divisor", "a multi-term divisor")
        c, e = poly.monomial_parts()
        inv = PolyX.mono(Coeff.of(1) / c, -e)
        return _Value({k: v * inv for k, v in self.parts.items()})

    def as_rational(self, offset: int) -> Fraction:
        if any(k > 0 for k in self.parts):
            raise PPowerError(offset, "p under ^")
        poly = self.parts.get(0, PolyX.zero())
        if not poly.is_constant():
            raise ParseError(offset, "a constant exponent", "an x-dependent one")
        return poly.coefficient(0).rational  # every coefficient is rational

    def pow(self, exponent: Fraction, offset: int, spend_pairs) -> "_Value":
        if list(self.parts) == [1] and self.parts[1] == PolyX.one():
            # bare p under ^: integer powers up to 2 only
            if exponent.denominator != 1:
                raise PPowerError(offset, f"p^{exponent}")
            k = int(exponent)
            if k < 0:
                raise PPowerError(offset, "p in a denominator")
            if k > 2:
                raise PPowerError(offset, f"p^{k}")
            return _Value({k: PolyX.one()})
        if any(k > 0 for k in self.parts):
            raise PPowerError(offset, "p inside a ^ base")
        poly = self.parts.get(0, PolyX.zero())
        if poly.is_zero() and exponent < 0:
            raise ParseError(offset, "a nonzero divisor", "zero")
        if poly.is_monomial():
            c, e = poly.monomial_parts()
            if c == Coeff.of(1):
                return _Value({0: PolyX.mono(1, e * exponent)})
            if exponent.denominator == 1:
                r = c.rational  # r ** k's digits first; k may pass 1e308
                size = abs(exponent) * Fraction(
                    math.log10(max(abs(r.numerator), r.denominator)))
                if size >= MAX_DIGITS:
                    raise ParseError(offset, f"a power of at most {MAX_DIGITS} "
                                     "digits", f"{math.floor(size) + 1} digits")
                return _Value({0: PolyX.mono(r ** int(exponent), e * exponent)})
            raise ParseError(
                offset, "an integer exponent on a non-monic base", str(exponent)
            )
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError(
                offset, "a nonnegative integer exponent on a sum", str(exponent)
            )
        if exponent > 16:
            raise ParseError(offset, "a sum exponent at most 16", str(exponent))
        power = _Value.const(Coeff.of(1))
        for _ in range(int(exponent)):
            power = power.mul(self, offset, spend_pairs)
        return power


class _Parser:
    def __init__(self, tokens, bindings):
        self.tokens = tokens
        self.pos = 0
        self.bindings = bindings
        self.depth = 0  # of the parentheses open at pos
        self.pairs = 0  # term pairs multiplied so far

    def spend_pairs(self, pairs: int, offset: int) -> None:
        """Count a product's term pairs against MAX_TERM_PAIRS per parse."""
        if pairs > MAX_TERM_PAIRS:
            raise ParseError(offset, f"at most {MAX_TERM_PAIRS} term pairs "
                             "in a product", str(pairs))
        self.pairs += pairs
        if self.pairs > MAX_TERM_PAIRS:
            raise ParseError(offset, f"at most {MAX_TERM_PAIRS} term pairs "
                             "in a parse", str(self.pairs))

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

    def parse(self) -> _Value:
        value = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(off, "end of input", repr(val))
        return value

    def expr(self) -> _Value:
        value = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                value = value.add(rhs if val == "+" else rhs.neg())
            else:
                return value

    def term(self) -> _Value:
        value = self.power()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.power()
                value = (value.mul(rhs, off, self.spend_pairs) if val == "*"
                         else value.div(rhs, off))
            else:
                return value

    def power(self) -> _Value:
        base = self.signed()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exp_val = self.signed()
            return base.pow(exp_val.as_rational(off), off, self.spend_pairs)
        return base

    def signed(self) -> _Value:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = not negate
        value = self.primary()
        return value.neg() if negate else value

    def primary(self) -> _Value:
        kind, val, off = self.advance()
        if kind == "num":
            past = literal_past_bounds(val)
            if past:
                raise ParseError(off, *past)
            return _Value.const(Coeff.of(Fraction(val)))
        if kind == "name":
            if val == "x":
                return _Value({0: PolyX.mono(1, 1)})
            if val == "p":
                return _Value({1: PolyX.one()})
            if val in self.bindings:
                c = Coeff.of(self.bindings[val])
                if not c.is_rational():
                    raise ParseError(off, "a name bound to a rational",
                                     f"{val} = {c}")
                return _Value.const(c)
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
    value = _Parser(_tokenize(text), bindings or {}).parse()
    return ClassicalSymbol.from_parts(value.parts)
