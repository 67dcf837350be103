import copy
import inspect
import math
import pickle
import random
import re
import sys
import threading
import time
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pdmbubble.algebra import (
    Coeff,
    DiffOp,
    DomainError,
    ExactnessError,
    OrderingParam,
    PolyX,
    PowerLawMass,
    expand_sandwich,
)
from pdmbubble.susy import factorize


def rand_fraction(rng, span=6, den=4):
    return F(rng.randint(-span, span), rng.randint(1, den))


def rand_coeff(rng):
    return Coeff(rand_fraction(rng), rand_fraction(rng),
                 rand_fraction(rng), rand_fraction(rng))


def rand_poly(rng, nterms=3):
    return PolyX([(rand_fraction(rng), rand_fraction(rng)) for _ in range(nterms)])


def rand_op(rng):
    return DiffOp([(rand_poly(rng, 2), rng.randint(0, 2)) for _ in range(2)])


class TestCoeff:
    def test_field_axioms_random(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y, z = rand_coeff(rng), rand_coeff(rng), rand_coeff(rng)
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)
            if not y.is_zero():
                assert (x / y) * y == x

    def test_sqrt2_squares_to_two(self):
        assert Coeff.sqrt2() * Coeff.sqrt2() == Coeff.of(2)

    def test_imag_unit_squares_to_minus_one(self):
        i = Coeff.imag_unit()
        assert i * i == Coeff.of(-1)

    def test_division_in_q_sqrt2(self):
        # 1 / sqrt2 = sqrt2 / 2
        assert Coeff.of(1) / Coeff.sqrt2() == Coeff.sqrt2(F(1, 2))

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            Coeff.of(1) / Coeff.of(0)

    def test_float_value(self):
        assert float(Coeff(1, 1)) == pytest.approx(1 + math.sqrt(2))

    def test_conjugate_and_parts(self):
        z = Coeff(1, 2, 3, 4)
        assert z.conjugate() == Coeff(1, 2, -3, -4)
        assert z.real() == Coeff(1, 2)
        assert z.imag() == Coeff(3, 4)

    def test_unreduced_parts_give_the_reduced_form(self):
        z = Coeff(F(2, 4), F(-3, 6), 0, F(4, -8))
        assert z == Coeff(F(1, 2), F(-1, 2), 0, F(-1, 2))
        assert hash(z) == hash(Coeff(F(1, 2), F(-1, 2), 0, F(-1, 2)))


class TestPolyX:
    def test_derivative_power_rule(self):
        assert PolyX.mono(1, -3).derivative() == PolyX.mono(-3, -4)

    def test_derivative_fractional_exponent(self):
        assert PolyX.mono(1, F(5, 2)).derivative() == PolyX.mono(F(5, 2), F(3, 2))

    def test_derivative_of_constant(self):
        assert PolyX.one().derivative().is_zero()

    def test_canonicalization_merges_and_drops_zeros(self):
        p = PolyX([(1, 2), (2, 2), (-3, 2), (5, 0)])
        assert p == PolyX([(5, 0)])

    def test_canonicalization_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            p = rand_poly(rng, 4)
            assert PolyX(p.terms) == p

    def test_eval_at_pole_raises(self):
        with pytest.raises(DomainError):
            PolyX.mono(1, -3).eval(0.0)

    def test_eval_fractional_negative_x_raises(self):
        with pytest.raises(DomainError):
            PolyX.mono(1, F(1, 2)).eval(-1.0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: PowerLawMass(0.5), TypeError, "not an exact rational: 0.5"),
    (lambda: PowerLawMass(-1), ValueError, "mass exponent must be nonnegative"),
    (lambda: DiffOp([(PolyX.one(), -1)]), ValueError, "negative derivative order"),
    (lambda: PolyX([(1, 0), (2, 1)]).monomial_parts(), ExactnessError,
     "not a monomial: (1)*x^(0) + (2)*x^(1)"),
], ids=["float-mass-exponent", "negative-mass-exponent",
        "negative-derivative-order", "two-term-monomial-parts"])
def test_malformed_value_refused(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


class TestCompose:
    def test_d_after_x_is_product_rule(self):
        d = DiffOp.derivative()
        x = DiffOp.multiplication(PolyX.mono(1, 1))
        assert d.compose(x) == DiffOp([(PolyX.mono(1, 1), 1), (PolyX.one(), 0)])

    def test_triple_inverse_x_composition(self):
        # -(x^-1 D)(x^-1 D)(x^-1 .) = -(x^-3 D^2 - 3 x^-4 D + 3 x^-5) negated
        step = DiffOp.multiplication(PolyX.mono(1, -1)).compose(DiffOp.derivative())
        op = -(step.compose(step).compose(DiffOp.multiplication(PolyX.mono(1, -1))))
        expected = DiffOp(
            [
                (PolyX.mono(-1, -3), 2),
                (PolyX.mono(3, -4), 1),
                (PolyX.mono(-3, -5), 0),
            ]
        )
        assert op == expected

    def test_identity_is_neutral(self):
        rng = random.Random(11)
        for _ in range(20):
            op = rand_op(rng)
            assert op.compose(DiffOp.identity()) == op
            assert DiffOp.identity().compose(op) == op

    def test_associativity_random_exact(self):
        rng = random.Random(13)
        for _ in range(30):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_distributivity_random_exact(self):
        rng = random.Random(17)
        for _ in range(30):
            a, b, c = rand_op(rng), rand_op(rng), rand_op(rng)
            assert a.compose(b + c) == a.compose(b) + a.compose(c)

    def test_adjoint_involution(self):
        rng = random.Random(19)
        for _ in range(20):
            op = rand_op(rng)
            assert op.adjoint().adjoint() == op


class TestExpandSandwich:
    def test_weyl_matching_ordering(self):
        op = expand_sandwich(PowerLawMass(F(3)), OrderingParam(F(-1, 3)))
        expected = DiffOp(
            [
                (PolyX.mono(1, -3), 2),
                (PolyX.mono(-3, -4), 1),
                (PolyX.mono(3, -5), 0),
            ],
            prefactor=F(-1, 2),
        )
        assert op == expected

    def test_a_zero_has_no_derivative_free_term(self):
        op = expand_sandwich(PowerLawMass(F(3)), OrderingParam(F(0)))
        assert op.coefficient(0).is_zero()
        assert op.coefficient(1) == PolyX.mono(F(3, 2), -4)

    def test_constant_mass_reduces_to_laplacian(self):
        for a in (F(0), F(-1, 4), F(2, 3)):
            op = expand_sandwich(PowerLawMass(F(0)), OrderingParam(a))
            assert op == DiffOp([(PolyX.const(F(-1, 2)), 2)])

    def test_leading_coefficients_independent_of_a(self):
        rng = random.Random(23)
        for _ in range(20):
            n = F(rng.randint(0, 5), rng.randint(1, 3))
            a = rand_fraction(rng)
            op = expand_sandwich(PowerLawMass(n), OrderingParam(a))
            assert op.coefficient(2) == PolyX.mono(F(-1, 2), -n)
            assert op.coefficient(1) == PolyX.mono(n / 2, -n - 1)

    @pytest.mark.parametrize("a", [F(-1), F(-1, 3), F(-1, 4), F(-1, 6), F(0),
                                   F(1, 2)])
    @pytest.mark.parametrize("n", [F(3), F(5, 2), F(7, 3), F(2), F(0)])
    def test_matches_the_undecorated_composition(self, n, a):
        args = PowerLawMass(n), OrderingParam(a)
        assert expand_sandwich(*args) == expand_sandwich.__wrapped__(*args)


@pytest.mark.parametrize("fn", [expand_sandwich, factorize],
                         ids=["expand_sandwich", "factorize"])
class TestLastResult:
    """The one-entry memo on expand_sandwich and factorize."""

    def test_a_repeated_call_returns_the_same_object(self, fn):
        args = PowerLawMass(F(3)), OrderingParam(F(-1, 3))
        assert fn(*args) is fn(*args)

    def test_only_the_last_call_is_kept(self, fn):
        mass = PowerLawMass(F(5, 2))
        first = fn(mass, OrderingParam(F(1, 6)))
        fn(mass, OrderingParam(F(-2, 7)))
        again = fn(mass, OrderingParam(F(1, 6)))
        assert again == first
        assert again is not first

    def test_stays_a_plain_function_of_its_module(self, fn):
        # bench/tracing.py wraps only inspect.isfunction objects whose
        # __module__ is the layer module they are bound in
        assert inspect.isfunction(fn)
        assert fn.__module__ == fn.__wrapped__.__module__

    def test_threads_alternating_orderings_get_their_own(self, fn):
        mass = PowerLawMass(F(3))
        args = [(mass, OrderingParam(a)) for a in (F(-1, 3), F(1, 6))]
        expected = [fn.__wrapped__(*each) for each in args]
        wrong, done = [], []
        start = threading.Barrier(2, timeout=30)

        def worker(i):
            start.wait()
            for _ in range(200):
                if fn(*args[i]) != expected[i]:
                    wrong.append(i)
                time.sleep(0)  # let the other thread in between calls
            done.append(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # and inside calls
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1]
        assert wrong == []


def diffop_apply_numeric(op, x_points, phi_derivs):
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


class TestApplyNumeric:
    def test_second_derivative_of_sine(self):
        op = DiffOp.derivative(2)
        xs = [0.3, 1.1, 2.0]
        derivs = [math.sin, math.cos, lambda x: -math.sin(x)]
        vals = diffop_apply_numeric(op, xs, derivs)
        for x, v in zip(xs, vals):
            assert v.real == pytest.approx(-math.sin(x))
            assert v.imag == 0

    def test_weyl_bracket_annihilates_cubic_at_one(self):
        bracket = DiffOp(
            [
                (PolyX.mono(1, -3), 2),
                (PolyX.mono(-3, -4), 1),
                (PolyX.mono(3, -5), 0),
            ]
        )
        derivs = [lambda x: x**3, lambda x: 3 * x**2, lambda x: 6 * x]
        (val,) = diffop_apply_numeric(bracket, [1.0], derivs)
        assert val == pytest.approx(0.0)

    def test_zero_operator_gives_zeros(self):
        vals = diffop_apply_numeric(DiffOp.zero(), [0.5, 1.5], [math.sin])
        assert vals == [0j, 0j]

    def test_singular_point_raises(self):
        op = DiffOp.multiplication(PolyX.mono(1, -1))
        with pytest.raises(DomainError):
            diffop_apply_numeric(op, [0.0], [math.sin])

    def test_sandwich_agrees_with_nested_finite_differences(self):
        n, a = F(3), F(-1, 6)
        b = F(-1, 2) - a
        op = expand_sandwich(PowerLawMass(n), OrderingParam(a))
        phi = math.sin
        na, nb = float(n * a), float(n * b)

        h = 1e-5

        def inner(x):
            return x**na * phi(x)

        def mid(x):
            return x ** (2 * nb) * (inner(x + h) - inner(x - h)) / (2 * h)

        def sandwich_fd(x):
            return -0.5 * x**na * (mid(x + h) - mid(x - h)) / (2 * h)

        xs = [0.8, 1.3, 2.1]
        derivs = [phi, math.cos, lambda x: -math.sin(x)]
        vals = diffop_apply_numeric(op, xs, derivs)
        for x, v in zip(xs, vals):
            assert v.real == pytest.approx(sandwich_fd(x), abs=1e-4)


def diffop_from_jsonable(data: dict) -> DiffOp:
    """Rebuild a DiffOp from ``DiffOp.to_jsonable`` output."""

    def coeff(e):
        parts = (e["p"], e["q"], e.get("ip", 0), e.get("iq", 0))
        return Coeff(*map(F, parts))

    terms = [
        (PolyX([(coeff(e), F(e["exponent_num"], e["exponent_den"]))
                for e in t["poly"]]), t["order"])
        for t in data["terms"]
    ]
    return DiffOp(terms, prefactor=coeff(data["prefactor"]))


def test_diffop_json_roundtrip():
    rng = random.Random(29)
    for _ in range(10):
        op = rand_op(rng)
        assert diffop_from_jsonable(op.to_jsonable()) == op


# -- the fast paths against the general formulas --------------------------------
#
# Coeff, PolyX and DiffOp.compose take shortcuts for rational and real
# coefficients and merge by exponent; each is checked here against the general
# Q(sqrt2, i) formula or canonical form, written out on tuples of Fractions.

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
# each of b, c, d is zero or not on its own, so rational, real and complex
# operands, and every mix of them, are drawn
parts = st.tuples(fractions, *[st.one_of(st.just(F(0)), fractions)] * 3)


def ref_add(x, y):
    return tuple(u + v for u, v in zip(x, y))


def ref_neg(x):
    return tuple(-u for u in x)


def ref_mul(x, y):
    """(a1 + b1 r + i(c1 + d1 r))(a2 + b2 r + i(c2 + d2 r)) with r = sqrt2."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
        a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
    )


def ref_inv(y):
    """conj(y) / |y|^2, with |y|^2 = p + q sqrt2 and 1/(p + q sqrt2) =
    (p - q sqrt2) / (p^2 - 2 q^2)."""
    a, b, c, d = y
    p = a * a + 2 * b * b + c * c + 2 * d * d
    q = 2 * a * b + 2 * c * d
    n = p * p - 2 * q * q
    return ref_mul((a, b, -c, -d), (p / n, -q / n, F(0), F(0)))


def parts_of(x: Coeff):
    return (x.a, x.b, x.c, x.d)


@settings(max_examples=200, deadline=None)
@given(parts, parts)
def test_coeff_arithmetic_matches_general_formula(x, y):
    cx, cy = Coeff(*x), Coeff(*y)
    assert parts_of(cx + cy) == ref_add(x, y)
    assert parts_of(cx - cy) == ref_add(x, ref_neg(y))
    assert parts_of(cx * cy) == ref_mul(x, y)
    assert parts_of(-cx) == ref_neg(x)
    results = [cx + cy, cx - cy, cx * cy]
    if any(y):
        assert parts_of(cx / cy) == ref_mul(x, ref_inv(y))
        results.append(cx / cy)
    for result in results:
        assert all(type(u) is F for u in parts_of(result))


@settings(max_examples=100, deadline=None)
@given(parts, fractions)
def test_coeff_mixed_with_rationals_matches_general_formula(x, q):
    cx, rq = Coeff(*x), (q, F(0), F(0), F(0))
    assert parts_of(cx + q) == parts_of(q + cx) == ref_add(x, rq)
    assert parts_of(cx * q) == parts_of(q * cx) == ref_mul(x, rq)
    assert parts_of(q - cx) == ref_add(rq, ref_neg(x))
    if q:
        assert parts_of(cx / q) == ref_mul(x, ref_inv(rq))
    if q.denominator == 1:
        assert parts_of(cx * int(q)) == ref_mul(x, rq)


@settings(max_examples=150, deadline=None)
@given(parts, parts)
def test_coeff_equality_and_hash_match_components(x, y):
    cx, cy = Coeff(*x), Coeff(*y)
    assert (cx == cy) == (x == y)
    assert cx * cy == Coeff(*ref_mul(x, y))
    assert hash(cx * cy) == hash(Coeff(*ref_mul(x, y))) == hash(ref_mul(x, y))
    assert hash(cx + cy) == hash(ref_add(x, y))
    if not any(x[1:]):
        assert cx == x[0] and cx != x[0] + 1


def ref_str(x):
    a, b, c, d = x
    forms = ((a, "{}"), (b, "{}*sqrt2"), (c, "{}*i"), (d, "{}*i*sqrt2"))
    return " + ".join(f.format(u) for u, f in forms if u) or "0"


@settings(max_examples=150, deadline=None)
@given(parts, parts, fractions)
def test_coeff_reads_as_four_fractions(x, y, e):
    # a Coeff holds five ints; every read of it goes through its Fractions
    cx, cy = Coeff(*x), Coeff(*y)
    a, b, c, d = x
    assert all(type(u) is F for u in parts_of(cx) + (cx.real().a, cx.imag().a))
    real = float(a) + float(b) * math.sqrt(2)
    imag = float(c) + float(d) * math.sqrt(2)
    assert complex(cx) == complex(real, imag)
    if c or d:
        with pytest.raises(ExactnessError):
            float(cx)
    else:
        assert float(cx) == real
    assert repr(cx) == f"Coeff({a}, {b}, {c}, {d})"
    assert str(cx) == ref_str(x)
    entry = {"p": str(a), "q": str(b),
             "exponent_num": e.numerator, "exponent_den": e.denominator}
    if c or d:
        entry.update(ip=str(c), iq=str(d))
    assert PolyX.mono(cx, e).to_jsonable() == ([entry] if any(x) else [])
    # one value reached over other denominators has one form and one hash
    same = [(cx + cy) - cy, cx * e - cx * (e - 1)]
    if any(y):
        same.append(cx * cy / cy)
    for z in same:
        assert z == cx and hash(z) == hash(cx) == hash(x)


exponents = st.fractions(min_value=-3, max_value=3, max_denominator=3)
poly_terms = st.lists(st.tuples(parts.map(lambda x: Coeff(*x)), exponents),
                      max_size=6)


def ref_canonical(terms):
    """Sum coefficients by exponent value, drop zeros, sort by exponent."""
    merged = {}
    for c, e in terms:
        merged[F(e)] = ref_add(merged.get(F(e), (F(0),) * 4), parts_of(c))
    return tuple((merged[e], e) for e in sorted(merged) if any(merged[e]))


def canonical(poly: PolyX):
    return tuple((parts_of(c), e) for c, e in poly.terms)


@settings(max_examples=100, deadline=None)
@given(poly_terms, st.randoms(use_true_random=False))
def test_polyx_canonical_form(terms, rng):
    poly = PolyX(terms)
    assert canonical(poly) == ref_canonical(terms)
    assert all(type(e) is F for _, e in poly.terms)
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert PolyX(shuffled) == poly
    assert PolyX(terms + terms) == poly.scale(2)
    assert PolyX(terms + [(-c, e) for c, e in terms]).is_zero()


@settings(max_examples=50, deadline=None)
@given(parts, parts)
def test_polyx_int_and_fraction_exponents_merge(x, y):
    cx, cy = Coeff(*x), Coeff(*y)
    assert PolyX([(cx, 1)]) == PolyX([(cx, F(2, 2))])
    merged = PolyX([(cx, 1), (cy, F(2, 2)), (cx, 0), (-cx, F(0))])
    assert canonical(merged) == ref_canonical([(cx + cy, F(1))])
    assert PolyX([(cx, 1), (-cx, F(2, 2))]).is_zero()


def leibniz_reference(left: DiffOp, right: DiffOp) -> DiffOp:
    """left o right one term pair at a time:
    (f D^m)(g D^n) = f * sum_j C(m, j) g^(j) D^(m + n - j)."""
    total = DiffOp.zero()
    for f, m in left.terms:
        for g, n in right.terms:
            gj = g
            for j in range(m + 1):
                total = total + DiffOp([(f * gj.scale(comb(m, j)), m + n - j)])
                gj = gj.derivative()
    return total


diffops = st.lists(
    st.tuples(st.lists(st.tuples(parts.map(lambda x: Coeff(*x)), exponents),
                       min_size=1, max_size=3).map(PolyX),
              st.integers(min_value=0, max_value=3)),
    max_size=3,
).map(DiffOp)


@settings(max_examples=60, deadline=None)
@given(diffops, diffops)
def test_compose_matches_per_term_leibniz(left, right):
    assert left.compose(right) == leibniz_reference(left, right)


def adjoint_reference(op: DiffOp) -> DiffOp:
    """(f D^k)* = (-D)^k conj(f), one (-D) composition at a time, summed
    term by term."""
    minus_d = DiffOp.derivative().scale(-1)
    total = DiffOp.zero()
    for f, k in op.terms:
        term = DiffOp.multiplication(
            PolyX([(c.conjugate(), e) for c, e in f.terms]))
        for _ in range(k):
            term = minus_d.compose(term)
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(diffops)
def test_adjoint_matches_successive_minus_d(op):
    # orders 0-3, coefficients with sqrt2 and i parts
    assert op.adjoint() == adjoint_reference(op)


def derivative_chain_compose(left: DiffOp, right: DiffOp) -> DiffOp:
    """left o right on whole coefficients, each right-hand coefficient
    differentiated once per order up to left's:
    (f D^m)(g D^n) = f * sum_j C(m, j) g^(j) D^(m + n - j)."""
    derivs = []  # g, g', ..., g^(top) of each right-hand term
    for g, n in right.terms:
        gs = [g]
        for _ in range(left.order):
            gs.append(gs[-1].derivative())
        derivs.append((gs, n))
    return DiffOp([(f * gs[j].scale(comb(m, j)), m + n - j)
                   for f, m in left.terms for gs, n in derivs
                   for j in range(m + 1)])


def per_term_adjoint(op: DiffOp) -> DiffOp:
    """(f D^k)* = (-1)^k D^k conj(f), one derivative-chain composition per
    term."""
    terms = []
    for f, k in op.terms:
        conj = PolyX([(c.conjugate(), e) for c, e in f.terms])
        minus_d_k = DiffOp([(PolyX.const((-1) ** k), k)])
        terms += derivative_chain_compose(
            minus_d_k, DiffOp.multiplication(conj)).terms
    return DiffOp(terms)


@st.composite
def mixed_denominator_ops(draw):
    """Two operators of orders 0-3 whose exponents have denominators 1-12,
    drawn over at most two denominators so that sums of exponents often
    cancel to integers, and coefficients with sqrt2 and i parts."""
    dens = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    exponent = st.builds(F, st.integers(-24, 24), st.sampled_from(dens))
    poly = st.lists(st.tuples(parts.map(lambda x: Coeff(*x)), exponent),
                    min_size=1, max_size=3).map(PolyX)
    op = st.lists(st.tuples(poly, st.integers(0, 3)), max_size=3).map(DiffOp)
    return draw(op), draw(op), draw(exponent)


@settings(max_examples=80, deadline=None)
@given(mixed_denominator_ops())
def test_leibniz_pass_matches_derivative_chain(ops):
    left, right, e = ops
    compose, adjoint = derivative_chain_compose, per_term_adjoint
    assert left.compose(right) == compose(left, right)
    assert left.adjoint() == adjoint(left)
    assert right.adjoint() == adjoint(right)
    assert (left.commutator(right)
            == compose(left, right) - compose(right, left))
    for op in (left.compose(right), left.adjoint(), left.commutator(right)):
        for poly, _ in op.terms:
            assert poly == PolyX(poly.terms)
            assert hash(poly) == hash(PolyX(poly.terms))
            assert all(type(u) is F and math.gcd(u.numerator, u.denominator)
                       == 1 for _, u in poly.terms)
    # one value reached over other denominators: one form, one hash
    for p, _ in left.terms:
        x_e, x_minus_e = PolyX.mono(1, e), PolyX.mono(1, -e)
        for q in ((p + x_e) - x_e, p * x_e * x_minus_e):
            assert q == p and hash(q) == hash(p)
        # (p x^e)' - p (x^e)' = p' x^e
        q = ((p * x_e).derivative() - p * x_e.derivative()) * x_minus_e
        assert q == p.derivative() and hash(q) == hash(p.derivative())


def test_polyx_denominators_cancel_to_one_form():
    quarter = PolyX.mono(Coeff.sqrt2(), F(1, 4))
    half = quarter * PolyX.mono(1, F(1, 4))
    assert half == PolyX.mono(Coeff.sqrt2(), F(2, 4))
    assert hash(half) == hash(PolyX([(Coeff.sqrt2(), F(1, 2))]))
    cube = PolyX([(1, F(1, 3)), (1, F(2, 3))])
    whole = cube * cube * cube - PolyX([(3, F(4, 3)), (3, F(5, 3))])
    assert whole == PolyX([(1, 1), (1, 2)])
    assert [e for _, e in whole.terms] == [F(1), F(2)]


@pytest.mark.parametrize("value", [
    Coeff(F(1, 2), -3, F(2, 7), 5),
    PolyX([(Coeff(1, F(1, 2), 0, -3), F(5, 12)), (2, -1)]),
    DiffOp([(PolyX([(Coeff.imag_unit(), F(1, 3))]), 2),
            (PolyX.mono(F(-1, 2), -2), 0)]),
])
def test_value_classes_copy_and_pickle(value):
    for other in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
