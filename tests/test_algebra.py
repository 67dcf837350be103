import math
import random
from fractions import Fraction as F

import pytest

from pdmbubble.algebra import (
    Coeff,
    DiffOp,
    DomainError,
    OrderingParam,
    PolyX,
    PowerLawMass,
    diffop_apply_numeric,
    expand_sandwich,
)


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
