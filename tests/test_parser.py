import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pdmbubble.algebra import Coeff, PolyX
from pdmbubble.helium import PhysicalParams, parse_params
from pdmbubble.parsing import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_RATIONAL_DIGITS,
    MAX_TERM_PAIRS,
    ClassicalSymbol,
    ParseError,
    PPowerError,
    UnboundNameError,
    literal_past_bounds,
    parse_hamiltonian,
    rational_past_bound,
)

UNIT_BINDINGS = {"M0": Coeff.of(1), "U0": Coeff.of(1)}


class TestParseHamiltonian:
    def test_bubble_hamiltonian(self):
        sym = parse_hamiltonian("p^2/(2*M0*x^3) + U0*x^2*(1-x)", UNIT_BINDINGS)
        assert sym.part(2) == PolyX.mono(F(1, 2), -3)
        assert sym.part(0) == PolyX([(1, 2), (-1, 3)])
        assert sym.part(1).is_zero()

    def test_bound_name_scaling(self):
        sym = parse_hamiltonian(
            "p^2/(2*M0*x^3)", {"M0": Coeff.of(F(1, 4))}
        )
        assert sym.part(2) == PolyX.mono(2, -3)

    def test_half_p_squared(self):
        sym = parse_hamiltonian("p^2/2", {})
        assert sym.terms == ((PolyX.const(F(1, 2)), 2),)

    def test_rational_power_of_x(self):
        sym = parse_hamiltonian("x^(5/2)", {})
        assert sym.part(0) == PolyX.mono(1, F(5, 2))

    def test_name_bound_to_an_irrational_is_refused_at_the_name(self):
        with pytest.raises(ParseError) as info:
            parse_hamiltonian("p^2/(2*M*x^3)", {"M": Coeff.sqrt2()})
        assert (info.value.offset, info.value.expected) == (
            7, "a name bound to a rational")

    def test_integer_power_of_a_non_monic_base_is_exact(self):
        sym = parse_hamiltonian("(2*x)^-3", {})
        assert sym.terms == ((PolyX.mono(F(1, 8), -3), 0),)

    def test_zero_base_under_a_negative_power_is_refused(self):
        # as a zero divisor, at the '^' (or '/'), though 0*x has no terms
        for text, offset in [("(0*x)^-1", 5), ("0^-1", 1), ("0^(-1/2)", 1),
                             ("1/(0*x)", 1), ("1/(p-p)", 1)]:
            with pytest.raises(ParseError) as info:
                parse_hamiltonian(text, {})
            assert (info.value.offset, info.value.expected,
                    info.value.found) == (offset, "a nonzero divisor", "zero")

    def test_zero_base_under_a_nonnegative_power_parses(self):
        assert parse_hamiltonian("0^0").terms == ((PolyX.one(), 0),)
        assert parse_hamiltonian("(0*x)^2").terms == ()

    def test_decimal_literals_are_exact(self):
        sym = parse_hamiltonian("0.12e-3*x", {})
        assert sym.part(0) == PolyX.mono(F(3, 25000), 1)

    def test_unclosed_paren_reports_offset(self):
        with pytest.raises(ParseError) as info:
            parse_hamiltonian("x^(1/2", {})
        assert info.value.offset == 6

    def test_unbound_name(self):
        with pytest.raises(UnboundNameError):
            parse_hamiltonian("Q0*x", {})

    def test_p_cubed_rejected(self):
        with pytest.raises(PPowerError):
            parse_hamiltonian("p^3", {})
        with pytest.raises(PPowerError):
            parse_hamiltonian("p*p*p", {})

    def test_p_in_denominator_rejected(self):
        with pytest.raises(PPowerError):
            parse_hamiltonian("1/p", {})

    def test_p_fractional_power_rejected(self):
        with pytest.raises(PPowerError):
            parse_hamiltonian("p^(1/2)", {})

    def test_unary_minus(self):
        sym = parse_hamiltonian("-x + x", {})
        assert sym.terms == ()

    @pytest.mark.parametrize("text, offset, expected, found", [
        ("x/(x+1)", 1, "a monomial divisor", "a multi-term divisor"),
        ("(x+1)^(1/2)", 5, "a nonnegative integer exponent on a sum", "1/2"),
        ("(x+1)^(-1)", 5, "a nonnegative integer exponent on a sum", "-1"),
        ("(x+1)^17", 5, "a sum exponent at most 16", "17"),
    ])
    def test_sum_divisor_and_sum_power_refusals(self, text, offset, expected,
                                                 found):
        with pytest.raises(ParseError) as info:
            parse_hamiltonian(text, {})
        assert (info.value.offset, info.value.expected, info.value.found) == (
            offset, expected, found)
        assert str(info.value) == (
            f"at offset {offset}: expected {expected}, found {found}")

    def test_offset_within_input(self):
        for text in ("", "+", "x^", "1/(", "x x", ")", "p^"):
            with pytest.raises(ParseError) as info:
                parse_hamiltonian(text, {})
            assert 0 <= info.value.offset <= len(text)


def monomials(n: int) -> str:
    """A sum of n distinct powers of x, in parentheses."""
    return "(" + "+".join(f"x^{i}" for i in range(1, n + 1)) + ")"


#: Terms of a drawn sum: few enough that parts repeat and cancel, some with
#: p, some with several parts and some zero.
SUM_TERMS = st.one_of(
    st.builds("{}*x^({}){}".format,
              st.sampled_from(["1", "2", "1/2", "0", "(1-x)^2"]),
              st.sampled_from(["0", "1", "-2", "1/3"]),
              st.sampled_from(["", "*p", "*p^2"])),
    st.sampled_from(["(x+p)", "(p+1)*p", "-(x-p^2)", "x*(p-p)"]),
)


class TestSums:
    """A sum is merged once, and equals its terms added one by one."""

    @given(st.lists(st.tuples(st.sampled_from("+-"), SUM_TERMS),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_a_sum_is_its_terms_added_pairwise(self, signed_terms):
        text = signed_terms[0][1] + "".join(
            f" {sign} {term}" for sign, term in signed_terms[1:])
        parts = {}
        for i, (sign, term) in enumerate(signed_terms):
            sym = parse_hamiltonian(term)
            for k in range(3):
                part = sym.part(k) if sign == "+" or i == 0 else -sym.part(k)
                parts[k] = parts.get(k, PolyX.zero()) + part
        assert parse_hamiltonian(text) == ClassicalSymbol.from_parts(parts)

    @pytest.mark.parametrize("text", ["(p-p)^3", "x^2*(p-p)", "(p^2-p^2)*p"])
    def test_a_cancelled_part_is_zero(self, text):
        assert parse_hamiltonian(text) == ClassicalSymbol(())

    def test_a_cancelled_part_under_a_power(self):
        assert parse_hamiltonian("x^(1/(p-p+1))") == parse_hamiltonian("x")

    def test_a_long_sum_is_merged_once(self):
        # merged at every '+', 4000 distinct powers took 11 s
        text = monomials(4000)
        start = time.perf_counter()
        sym = parse_hamiltonian(text)
        assert time.perf_counter() - start < 2
        assert len(sym.part(0).terms) == 4000


NINES = "9" * MAX_DIGITS


class TestBounds:
    """Nesting, a literal's decimal exponent and the term pairs of a parse are
    bounded, so a short input can neither overflow the stack nor run without
    end."""

    def test_nesting_at_the_bound_parses(self):
        text = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        assert parse_hamiltonian(text) == parse_hamiltonian("x")

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 200, 300])
    def test_nesting_past_the_bound_names_the_first_paren(self, depth):
        with pytest.raises(ParseError) as info:
            parse_hamiltonian("(" * depth + "x" + ")" * depth)
        assert (info.value.offset, info.value.found) == (MAX_DEPTH, "'('")

    def test_offset_counts_the_text_between_parens(self):
        text = "1+(" * 101 + "x" + ")" * 101
        with pytest.raises(ParseError) as info:
            parse_hamiltonian(text)
        assert info.value.offset == 2 + 3 * MAX_DEPTH

    def test_closed_parens_do_not_count(self):
        text = "+".join(["(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH] * 3)
        assert parse_hamiltonian(text) == parse_hamiltonian("3*x")

    @pytest.mark.parametrize("run", [1, 2, 999, 1000, 3000, 3001])
    def test_minus_run_is_negated_once_per_odd_count(self, run):
        want = parse_hamiltonian("-x" if run % 2 else "x")
        assert parse_hamiltonian("-" * run + "x") == want
        assert parse_hamiltonian("x^" + "-" * run + "2") == parse_hamiltonian(
            "x^-2" if run % 2 else "x^2")

    def test_minus_run_after_binary_minus(self):
        assert parse_hamiltonian("x" + "-" * 1001 + "x").terms == ()

    def test_product_at_the_pair_bound_parses(self):
        assert MAX_TERM_PAIRS == 256 * 256
        sym = parse_hamiltonian(monomials(256) + "*" + monomials(256))
        assert len(sym.part(0).terms) == 511

    def test_product_past_the_pair_bound_names_the_operator(self):
        left = monomials(256)
        with pytest.raises(ParseError) as info:
            parse_hamiltonian(left + "*" + monomials(257))
        assert (info.value.offset, info.value.found) == (len(left), "65792")

    def test_nested_sum_powers_are_bounded(self):
        sym = parse_hamiltonian("((x+1)^16)^16")
        assert len(sym.part(0).terms) == 257
        with pytest.raises(ParseError) as info:
            parse_hamiltonian("(((x+1)^16)^16)^16")
        # the running total: 272 + 32912 pairs inside, then 257 + 66049
        assert (info.value.offset, info.value.found) == (15, "99490")

    def test_pair_bound_spans_the_parse(self):
        # each product of a chain is small, but the pairs of all of them grow
        # with the square of its length
        chain = "*".join(["(x+1)^16"] * 20)  # 57443 pairs in all
        assert len(parse_hamiltonian(chain).part(0).terms) == 321
        with pytest.raises(ParseError) as info:
            parse_hamiltonian("*".join(["(x+1)^16"] * 40))
        assert info.value.expected == (
            f"at most {MAX_TERM_PAIRS} term pairs in a parse")
        assert int(info.value.found) > MAX_TERM_PAIRS

    @pytest.mark.parametrize("literal", ["1e4096", "1E-4096", "2.5e+04096"])
    def test_decimal_exponent_at_the_bound_parses(self, literal):
        assert MAX_EXPONENT == 4096
        sym = parse_hamiltonian(f"{literal}*x")
        assert sym.part(0) == PolyX.mono(F(literal), 1)

    @pytest.mark.parametrize("literal", ["9" * MAX_DIGITS,
                                         "0." + "1" * (MAX_DIGITS - 1),
                                         "5" * (MAX_DIGITS - 1) + ".5e-9"])
    def test_literal_at_the_digit_bound_parses(self, literal):
        assert MAX_DIGITS == 4096
        sym = parse_hamiltonian(f"{literal}*x")
        assert sym.part(0) == PolyX.mono(F(literal), 1)

    @pytest.mark.parametrize("literal, digits", [
        ("9" * (MAX_DIGITS + 1), MAX_DIGITS + 1),
        ("1." + "0" * MAX_DIGITS, MAX_DIGITS + 1),
        ("1" * 5000 + "e1", 5000),
    ])
    def test_literal_past_the_digit_bound_names_the_literal(self, literal,
                                                            digits):
        # refused before Fraction: Python's own limit is 4300 digits
        with pytest.raises(ParseError) as info:
            parse_hamiltonian(f"x + {literal}")
        assert (info.value.offset, info.value.found) == (4, f"{digits} digits")

    @pytest.mark.parametrize("exponent", ["4097", "-4097", "1000000",
                                          "9" * 5000])
    def test_decimal_exponent_past_the_bound_names_the_literal(self, exponent):
        with pytest.raises(ParseError) as info:
            parse_hamiltonian(f"x + 1e{exponent}")
        assert (info.value.offset, info.value.found) == (4, exponent)

    @pytest.mark.parametrize("base, k", [(F(2), 4096), (F(2), -4096),
                                         (F(2), 13606), (F(-3, 2), 8584),
                                         (F(-1), 10**400)])
    def test_numeric_power_at_the_digit_bound_parses(self, base, k):
        # 2**13606 and 3**8584 are the largest powers of 2 and 3 with 4096 digits
        sym = parse_hamiltonian(f"({base}*x)^{k}")
        assert sym.terms == ((PolyX.mono(base ** k, k), 0),)

    @pytest.mark.parametrize("text, found", [
        ("(2*x)^13607", "4097 digits"),
        ("(2*x)^-13607", "4097 digits"),
        ("(1111111111*x)^4096", "37052 digits"),
    ])
    def test_numeric_power_past_the_digit_bound_names_the_caret(self, text,
                                                                found):
        # estimated from the base and the exponent before the power is taken
        with pytest.raises(ParseError) as info:
            parse_hamiltonian(text)
        assert (info.value.offset, info.value.expected, info.value.found) == (
            text.index("^"), f"a power of at most {MAX_DIGITS} digits", found)

    def test_numeric_power_past_the_float_range_is_refused(self):
        with pytest.raises(ParseError) as info:
            parse_hamiltonian("(2*x)^1e400")
        digits, unit = info.value.found.split()
        assert (digits[:4], len(digits), unit) == ("3010", 400, "digits")

    @pytest.mark.parametrize("r, past", [
        (F(10**MAX_RATIONAL_DIGITS - 1, 10**MAX_RATIONAL_DIGITS - 2), False),
        (F(-(10**MAX_RATIONAL_DIGITS), 3), True),
        (F(1, 10**MAX_RATIONAL_DIGITS), True),
    ])
    def test_rational_bound_reads_either_part(self, r, past):
        assert bool(rational_past_bound(r)) == past

    @pytest.mark.parametrize("text, offset", [
        (NINES + "*" + NINES + "*x", len(NINES)),  # a product
        (NINES + "e4096*x", 0),  # a literal
        ("1e-4096/" + NINES, 7),  # a quotient
        ("1/" + NINES + " + 1/" + "9" * 4095 + "8", len(NINES) + 3),  # a sum
        ("1+(x^(" + NINES + "))^(" + NINES + ")", len(NINES) + 8),  # a power
        ("x^(1/" + NINES + ")*x^(1/" + "9" * 4095 + "8)", len(NINES) + 6),
        ("M*x", 0),  # a bound name
    ])
    def test_rational_past_the_bound_names_its_operator(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse_hamiltonian(text, {"M": F(NINES) * 10**4096})
        assert (info.value.offset, info.value.expected, info.value.found) == (
            offset, f"a rational of at most {MAX_RATIONAL_DIGITS} digits a "
            "part", "more")

    def test_rational_at_the_bound_parses(self):
        # 4096 nines times 10**204: 4300 digits; ten times more is refused
        sym = parse_hamiltonian(NINES + "*1e204*x")
        assert sym.part(0) == PolyX.mono(F(NINES) * 10**204, 1)
        with pytest.raises(ParseError):
            parse_hamiltonian(NINES + "*1e204*x*10")

    @pytest.mark.parametrize("text, past", [
        ("-7/3", None),
        ("1/" + "3" * 4000, None),
        ("1e4096/1E-4096", None),
        ("not a number", None),
        ("1/" + "3" * 5000, (f"a literal of at most {MAX_DIGITS} digits",
                             "5000 digits")),
        ("1e1000000", (f"a decimal exponent at most {MAX_EXPONENT}",
                       "1000000")),
        ("3/2e-4097", (f"a decimal exponent at most {MAX_EXPONENT}", "-4097")),
    ])
    def test_literal_bounds_read_either_side_of_a_slash(self, text, past):
        assert literal_past_bounds(text) == past


@st.composite
def symbols(draw):
    nterms = draw(st.integers(1, 4))
    parts = {}
    for _ in range(nterms):
        k = draw(st.integers(0, 2))
        coeff = draw(
            st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
                lambda f: f != 0
            )
        )
        exp = draw(st.fractions(min_value=-6, max_value=6, max_denominator=6))
        parts[k] = parts.get(k, PolyX.zero()) + PolyX.mono(coeff, exp)
    return ClassicalSymbol.from_parts(parts)


@given(symbols())
@settings(max_examples=150, deadline=None)
def test_pretty_print_roundtrip(sym):
    assert parse_hamiltonian(sym.to_text(), {}) == sym


def test_grammar_examples_roundtrip():
    for text in (
        "p^2/(2*M0*x^3) + U0*x^2*(1-x)",
        "p^2/2",
        "x^(5/2) - 3*x^(-5/2)*p",
        "-x^2*p^2 + 1/2",
    ):
        sym = parse_hamiltonian(text, UNIT_BINDINGS)
        assert parse_hamiltonian(sym.to_text(), {}) == sym


@pytest.mark.parametrize("text, expected", [
    ("0", "0"),
    ("p", "(1)*x^(0)*p"),
    ("-3", "(-3)*x^(0)"),
    ("x^0*p^2", "(1)*x^(0)*p^2"),
    ("x^(-3/2)*p/2", "(1/2)*x^(-3/2)*p"),
    ("9" * 4096 + "*x", "(" + "9" * 4096 + ")*x^(1)"),
    ("9" * 4096 + "*1e204*x", "(" + "9" * 4096 + "0" * 204 + ")*x^(1)"),
])
def test_uniform_text_roundtrip(text, expected):
    # every term is (c)*x^(e), then *p or *p^2; the zero symbol is "0"; a
    # part past MAX_DIGITS digits prints, but its text is refused as input
    sym = parse_hamiltonian(text, {})
    assert sym.to_text() == expected
    digits = max(map(len, re.findall(r"\d+", expected)))
    if digits > MAX_DIGITS:
        with pytest.raises(ParseError, match=f"expected a literal of at most "
                           f"{MAX_DIGITS} digits, found {digits} digits"):
            parse_hamiltonian(expected, {})
    else:
        assert parse_hamiltonian(expected, {}) == sym


def test_fuzz_totality_10k():
    rng = random.Random(20260823)
    alphabet = ["x", "p", "M0", "1", "2", "1/2", "0.5e1", "+", "-", "*", "/",
                "^", "(", ")", " ", "q", "."]
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 18)))
        try:
            parse_hamiltonian(text, UNIT_BINDINGS)
        except ParseError as exc:
            assert 0 <= exc.offset <= len(text)


class TestParseParams:
    GOOD = "sigma=0.12e-3\nP_v=8.1445e4\nrho_L=140\nT=4\nP=0\n"

    def test_helium_defaults(self):
        p = parse_params(self.GOOD)
        assert p == PhysicalParams(
            sigma=0.12e-3, P_v=8.1445e4, rho_L=140.0, T=4.0, P=0.0, rho_v=0.0
        )

    def test_crlf_and_comments(self):
        text = "# helium\r\nsigma=0.12e-3\r\nP_v=8.1445e4\r\nrho_L=140 # kg/m3\r\nT=4\r\nP=0\r\n"
        assert parse_params(text).rho_L == 140.0

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key P"):
            parse_params("sigma=1e-4\nP_v=1e5\nrho_L=140\nT=4\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_params(self.GOOD + "bogus=1\n")

    def test_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_params("sigma=abc\nP_v=1e5\nrho_L=140\nT=4\nP=0\n")

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            parse_params("sigma=1e-4\nP_v=1e5\nrho_L=-1\nT=4\nP=0\n")
