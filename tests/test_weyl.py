from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pdmbubble.algebra import Coeff, DiffOp, PolyX
from pdmbubble.parsing import ClassicalSymbol, parse_hamiltonian
from pdmbubble.pointmass import measure_of_map, pm_map, transform_diffop
from pdmbubble.weyl import UnsupportedDegreeError, hermiticity_check, weyl_order

I = Coeff.imag_unit()


def symbol(parts: dict) -> ClassicalSymbol:
    return ClassicalSymbol.from_parts(parts)


def symmetrization_oracle(f: PolyX, k: int) -> DiffOp:
    """The Weyl rule for f(x) p^k, k <= 2, by explicit symmetrization with
    P = -i D, built from exact operator composition and independent of
    weyl_order: k=2 -> (P^2 f + 2 P f P + f P^2)/4; k=1 -> (P f + f P)/2."""
    p_op = DiffOp.derivative().scale(-I)
    f_op = DiffOp.multiplication(f)
    if k == 0:
        return f_op
    if k == 1:
        return (p_op.compose(f_op) + f_op.compose(p_op)).scale(F(1, 2))
    p2 = p_op.compose(p_op)
    return (
        p2.compose(f_op)
        + p_op.compose(f_op).compose(p_op).scale(2)
        + f_op.compose(p2)
    ).scale(F(1, 4))


def closed_form_weyl(sym) -> DiffOp:
    """The Weyl rules written out per power of p, the oracle for the
    composed weyl_order: f(x) p^2 -> -[f D^2 + f' D + f''/4];
    g(x) p -> -i [g D + g'/2]; h(x) -> multiplication by h."""
    terms = []
    for poly, k in sym.terms:
        if k == 0:
            terms.append((poly, 0))
        elif k == 1:
            d1 = poly.derivative()
            terms += [(poly.scale(-I), 1), (d1.scale(I * F(-1, 2)), 0)]
        elif k == 2:
            d1 = poly.derivative()
            terms += [(-poly, 2), (-d1, 1),
                      (d1.derivative().scale(F(-1, 4)), 0)]
        else:
            raise UnsupportedDegreeError(f"p^{k} is not supported")
    return DiffOp(terms)


WEYL_KINETIC_BRACKET = DiffOp(
    [
        (PolyX.mono(1, -3), 2),
        (PolyX.mono(-3, -4), 1),
        (PolyX.mono(3, -5), 0),
    ]
)


class TestWeylOrder:
    def test_kinetic_term(self):
        sym = parse_hamiltonian("p^2/(2*x^3)", {})
        assert weyl_order(sym) == WEYL_KINETIC_BRACKET.scale(F(-1, 2))

    def test_constant_coefficient(self):
        sym = parse_hamiltonian("p^2/2", {})
        assert weyl_order(sym) == DiffOp([(PolyX.const(F(-1, 2)), 2)])

    def test_degree_one(self):
        # x^2 p -> -i [x^2 D + x]; frozen from the symmetrization oracle
        sym = symbol({1: PolyX.mono(1, 2)})
        expected = DiffOp([(PolyX.mono(1, 2), 1), (PolyX.mono(1, 1), 0)],
                          prefactor=-I)
        assert weyl_order(sym) == expected
        assert symmetrization_oracle(PolyX.mono(1, 2), 1) == expected

    def test_p_free_symbol_is_pure_multiplication(self):
        sym = parse_hamiltonian("x^2*(1-x)", {})
        op = weyl_order(sym)
        assert op.order == 0
        assert op.coefficient(0) == PolyX([(1, 2), (-1, 3)])

    def test_degree_above_two_rejected(self):
        class Fake:
            terms = ((PolyX.one(), 3),)

        with pytest.raises(UnsupportedDegreeError):
            weyl_order(Fake())


class TestSymmetrizationOracle:
    def test_inverse_cube(self):
        assert symmetrization_oracle(PolyX.mono(1, -3), 2) == WEYL_KINETIC_BRACKET.scale(-1)

    def test_constant(self):
        assert symmetrization_oracle(PolyX.one(), 2) == DiffOp.derivative(2).scale(-1)

    def test_linear_degree_one(self):
        # (P x + x P)/2 = -i [x D + 1/2]
        expected = DiffOp(
            [(PolyX.mono(1, 1), 1), (PolyX.const(F(1, 2)), 0)], prefactor=-I
        )
        assert symmetrization_oracle(PolyX.mono(1, 1), 1) == expected


@st.composite
def polys(draw):
    nterms = draw(st.integers(1, 3))
    return PolyX(
        [
            (
                Coeff(
                    draw(st.fractions(min_value=-9, max_value=9, max_denominator=6)),
                    draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)),
                    draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)),
                    0,
                ),
                draw(st.fractions(min_value=-5, max_value=5, max_denominator=4)),
            )
            for _ in range(nterms)
        ]
    )


@given(polys(), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_weyl_rule_matches_oracle(f, k):
    sym = symbol({k: f})
    assert weyl_order(sym) == symmetrization_oracle(f, k)
    assert weyl_order(sym) == closed_form_weyl(sym)


@st.composite
def real_symbols(draw):
    parts = {}
    for k in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)):
        coeff = draw(st.fractions(min_value=-9, max_value=9, max_denominator=6))
        exp = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        parts[k] = parts.get(k, PolyX.zero()) + PolyX.mono(coeff, exp)
    return symbol(parts)


@given(real_symbols())
@settings(max_examples=100, deadline=None)
def test_weyl_output_is_hermitian(sym):
    assert hermiticity_check(weyl_order(sym)).passes


@given(real_symbols(), real_symbols())
@settings(max_examples=60, deadline=None)
def test_weyl_is_linear(s1, s2):
    combined = ClassicalSymbol.from_parts(
        {k: s1.part(k) + s2.part(k) for k in range(3)}
    )
    assert weyl_order(combined) == weyl_order(s1) + weyl_order(s2)


def over_measure(mu, op: DiffOp) -> DiffOp:
    """z^-e o op with e = mu.z_exp: mu^-1 o op up to mu's constant factor."""
    return DiffOp.multiplication(PolyX.mono(1, -mu.z_exp)).compose(op)


@given(real_symbols(), st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_weighted_check_is_the_unit_check_of_mu_op(sym, r):
    # mu^-1 o W is Hermitian under mu for every Weyl operator W, and an
    # imaginary potential i x^r spoils it under any real measure
    mu = measure_of_map(pm_map(3))
    op = over_measure(mu, weyl_order(sym))
    assert hermiticity_check(op, measure=mu).passes
    imaginary = DiffOp.multiplication(PolyX.mono(I, r))
    assert not hermiticity_check(op + imaginary, measure=mu).passes


class TestHermiticity:
    def test_weyl_kinetic_passes_unit_measure(self):
        report = hermiticity_check(WEYL_KINETIC_BRACKET.scale(F(-1, 2)))
        assert report.passes
        assert not report.measure_corrected

    def test_condition_ii_failure(self):
        op = DiffOp([(PolyX.one(), 2), (PolyX.mono(1, 1), 1)])
        report = hermiticity_check(op)
        assert not report.passes
        assert report.condition_i.is_zero()
        assert report.condition_ii == -PolyX.mono(1, 1)

    def test_transformed_operator_passes_with_measure(self):
        cmap = pm_map(3)
        op_z = transform_diffop(weyl_order(parse_hamiltonian("p^2/(2*x^3)", {})), cmap)
        mu = measure_of_map(cmap)
        assert not hermiticity_check(op_z).passes  # B != A' at unit measure
        assert hermiticity_check(op_z, measure=mu).passes

    def test_imaginary_potential_fails_with_measure(self):
        cmap = pm_map(3)
        op_z = transform_diffop(weyl_order(parse_hamiltonian("p^2/(2*x^3)", {})), cmap)
        mu = measure_of_map(cmap)
        report = hermiticity_check(op_z + DiffOp.multiplication(PolyX.const(I)),
                                   measure=mu)
        assert not report.passes
        assert report.measure_corrected
        # the residuals are those of mu o (op_z + i): only Im C = z^(-3/5)
        assert report.condition_i.is_zero() and report.condition_ii.is_zero()
        assert report.condition_iii == PolyX.mono(1, F(-3, 5))

    def test_weighted_weyl_operator_passes_with_measure(self):
        # mu^-1 o Weyl(x p) = -i z^(3/5) [x D + 1/2]: B is imaginary, yet
        # mu o op = Weyl(x p) is Hermitian at unit measure
        mu = measure_of_map(pm_map(3))
        op = over_measure(mu, weyl_order(parse_hamiltonian("x*p", {})))
        assert op == DiffOp([(PolyX.mono(1, F(8, 5)), 1),
                             (PolyX.mono(F(1, 2), F(3, 5)), 0)], prefactor=-I)
        assert not hermiticity_check(op).passes
        assert hermiticity_check(op, measure=mu).passes

    def test_order_above_two_rejected(self):
        with pytest.raises(UnsupportedDegreeError):
            hermiticity_check(DiffOp.derivative(3))
