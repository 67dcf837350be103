import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pdmbubble.algebra import (
    DiffOp,
    ExactnessError,
    OrderingParam,
    PolyX,
    PowerLawMass,
    expand_sandwich,
)
from pdmbubble.parsing import parse_hamiltonian
from pdmbubble.pointmass import (
    CoordinateMap,
    Measure,
    TransformError,
    measure_of_map,
    pm_map,
    transform_diffop,
    unit_measure_restore,
)
from pdmbubble.susy import z_space_operator
from pdmbubble.weyl import hermiticity_check, weyl_order

A_VALUES = [F(-1), F(-1, 3), F(-1, 4), F(-1, 6), F(0), F(1, 2)]


def map_constant(cmap) -> float:
    """c of the map x = c z^alpha, as a float."""
    return float(cmap.c_base) ** float(cmap.c_exp)


def measure_at(mu, z: float) -> float:
    """mu(z) = coeff_base^coeff_exp * z^z_exp, as a float."""
    return float(mu.coeff_base) ** float(mu.coeff_exp) * z ** float(mu.z_exp)


def weyl_kinetic():
    return weyl_order(parse_hamiltonian("p^2/(2*x^3)", {}))


def chain_rule_transform(op, cmap) -> DiffOp:
    """transform_diffop's map by the chain rule, written out:
    d/dx = (1/(c alpha)) z^(1 - alpha) d/dz, so a term coeff x^e D^k
    (k <= 2) becomes lead z^(alpha e + k(1 - alpha)) D^k with
    lead = coeff c^(e - k) / alpha^k, and for k = 2 also
    (1 - alpha) lead z^(alpha e + 1 - 2 alpha) D, from d^2 z/dx^2."""
    alpha = cmap.alpha
    out = []
    for poly, k in op.terms:
        for coeff, e in poly.terms:
            lead = coeff * (cmap.c_power(e - k) / alpha**k)
            z_exp = alpha * e + k * (1 - alpha)
            out.append((PolyX.mono(lead, z_exp), k))
            if k == 2:
                out.append((PolyX.mono(lead * (1 - alpha), z_exp - 1), 1))
    return DiffOp(out)


def closed_form_restore(op, mu) -> DiffOp:
    """unit_measure_restore's conjugation by sqrt(mu), written out for
    A D^2 + B D + C and power-form mu:
    A~ = A;  B~ = B - A mu'/mu;
    C~ = A [3/4 (mu'/mu)^2 - 1/2 mu''/mu] - B (mu'/mu)/2 + C."""
    e = mu.z_exp
    log_d = PolyX.mono(e, -1)                     # mu'/mu
    second = PolyX.mono(e * (e - 1), -2)          # mu''/mu
    a = op.coefficient(2)
    b = op.coefficient(1)
    c = op.coefficient(0)
    b_t = b - a * log_d
    c_t = (
        a * (log_d * log_d).scale(F(3, 4))
        - a * second.scale(F(1, 2))
        - (b * log_d).scale(F(1, 2))
        + c
    )
    return DiffOp([(a, 2), (b_t, 1), (c_t, 0)])


def outcome(f, *args):
    """f(*args), or the text of the ExactnessError it raises."""
    try:
        return f(*args)
    except ExactnessError as exc:
        return f"ExactnessError: {exc}"


@given(st.sampled_from([F(3), F(5, 2), F(7, 3), F(2), F(1)]),
       st.fractions(min_value=-2, max_value=2, max_denominator=12))
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_the_composed_operators(n, a):
    """transform_diffop and unit_measure_restore, composed by the algebra,
    equal the two closed forms above, exactly, over the sandwich family."""
    cmap = pm_map(n)
    mu = measure_of_map(cmap)
    op_x = expand_sandwich(PowerLawMass(n), OrderingParam(a))
    op_z = transform_diffop(op_x, cmap)
    assert op_z == chain_rule_transform(op_x, cmap)
    assert unit_measure_restore(op_z, mu) == closed_form_restore(op_z, mu)


@pytest.mark.parametrize("n", [F(3), F(2), F(1, 3), F(8)])
@pytest.mark.parametrize("hamiltonian", [
    "p^2/(2*x^3)", "x^2*p^2+x*p+3", "x^(7/3)*p/5-3/7*p^2/x^(5/2)+2/9*x*p",
    # exact under the n = 3, 2, 1/3 and 8 maps in turn, each with a p term
    "x^(9/2)*p^2/7+2*x^(7/2)*p-x^(-5/2)", "x^4*p^2+x^3*p/3+x^2",
    "x^(19/6)*p^2-x^(13/6)*p+x^(7/6)", "x^7*p^2+x^6*p+x^5"])
def test_closed_forms_match_on_weyl_operators(n, hamiltonian):
    """The same on Weyl operators of mixed symbols, where a first-order term
    and several exponents per order enter; an inexact power of c is refused
    by both routes with the same message."""
    cmap = pm_map(n)
    mu = measure_of_map(cmap)
    op = weyl_order(parse_hamiltonian(hamiltonian, {}))
    assert outcome(transform_diffop, op, cmap) == outcome(
        chain_rule_transform, op, cmap)
    assert unit_measure_restore(op, mu) == closed_form_restore(op, mu)


@pytest.mark.parametrize("step, second, message", [
    (transform_diffop, pm_map(3), "transform implemented for order <= 2 only"),
    (unit_measure_restore, measure_of_map(pm_map(3)),
     "restoration implemented for order <= 2 only")])
def test_third_order_is_refused(step, second, message):
    # the chain is stated for second-order operators, though compose is not
    with pytest.raises(TransformError, match=f"^{message}$"):
        step(DiffOp.derivative(3), second)


class TestPmMap:
    def test_bubble_case(self):
        cmap = pm_map(3)
        assert cmap.alpha == F(2, 5)
        assert cmap.c_base == F(5, 2)
        assert cmap.c_exp == F(2, 5)
        assert map_constant(cmap) == pytest.approx(2.5 ** 0.4)
        assert map_constant(cmap) == pytest.approx(1.4427, abs=1e-4)

    def test_constant_mass_identity(self):
        cmap = pm_map(0)
        assert cmap.alpha == 1
        assert cmap.is_identity()

    def test_n_two(self):
        cmap = pm_map(2)
        assert cmap.alpha == F(1, 2)
        assert map_constant(cmap) == pytest.approx(math.sqrt(2))

    def test_unsupported_exponent(self):
        with pytest.raises(TransformError):
            pm_map(-2)

    @pytest.mark.parametrize("alpha", [F(0), F(-2, 5)])
    def test_non_positive_alpha_refused(self, alpha):
        with pytest.raises(TransformError,
                           match="^coordinate map needs alpha > 0 and c > 0$"):
            CoordinateMap(alpha=alpha, c_base=F(5, 2), c_exp=F(2, 5))

    def test_kinetic_lagrangian_coefficient_constant(self):
        # mass coefficient x^n (dx/dz)^2 must be exactly 1 after the map
        for n in (1, 2, 3, 5):
            cmap = pm_map(n)
            c = map_constant(cmap)
            z = 1.7
            x = c * z ** float(cmap.alpha)
            dxdz = c * float(cmap.alpha) * z ** (float(cmap.alpha) - 1)
            assert x**n * dxdz**2 == pytest.approx(1.0)


class TestTransform:
    def test_weyl_operator_bubble_map(self):
        op_z = transform_diffop(weyl_kinetic(), pm_map(3))
        expected = DiffOp(
            [
                (PolyX.one(), 2),
                (PolyX.mono(F(-3, 5), -1), 1),
                (PolyX.mono(F(12, 25), -2), 0),
            ],
            prefactor=F(-1, 2),
        )
        assert op_z == expected

    def test_identity_map_is_noop(self):
        op = weyl_kinetic()
        assert transform_diffop(op, pm_map(0)) == op

    @pytest.mark.parametrize("a", A_VALUES)
    def test_sandwich_family_chain_rule(self, a):
        gamma = -3 * a * (3 * a + 4)
        op_z = transform_diffop(expand_sandwich(PowerLawMass(F(3)), OrderingParam(a)),
                                pm_map(3))
        expected = DiffOp(
            [
                (PolyX.one(), 2),
                (PolyX.mono(F(-3, 5), -1), 1),
                (PolyX.mono(4 * gamma * F(1, 25), -2), 0),
            ],
            prefactor=F(-1, 2),
        )
        assert op_z == expected

    def test_inexact_coefficient_rejected(self):
        # x^-1 under the n=3 map needs (5/2)^(irrational-power) factors
        op = DiffOp.multiplication(PolyX.mono(1, -1))
        with pytest.raises(ExactnessError):
            transform_diffop(op, pm_map(3))


class TestMeasure:
    def test_map_outside_the_pm_family_refused(self):
        # c alpha is a power of c_base only when alpha = 1/c_base
        cmap = CoordinateMap(alpha=F(1, 2), c_base=F(3), c_exp=F(1))
        with pytest.raises(ExactnessError, match="^measure only available "
                           "in power form for pm maps$"):
            measure_of_map(cmap)

    def test_bubble_measure(self):
        mu = measure_of_map(pm_map(3))
        assert mu == Measure(coeff_base=F(5, 2), coeff_exp=F(-3, 5), z_exp=F(-3, 5))
        assert measure_at(mu, 1.0) == pytest.approx(0.4 ** 0.6)

    def test_identity_measure(self):
        assert measure_of_map(pm_map(0)) == Measure(F(1), F(0), F(0))

    def test_n_two_measure(self):
        mu = measure_of_map(pm_map(2))
        assert mu.z_exp == F(-1, 2)
        assert measure_at(mu, 1.0) == pytest.approx(math.sqrt(2) / 2)

    def test_measure_equals_dx_dz(self):
        for n in (1, 2, 3):
            cmap = pm_map(n)
            mu = measure_of_map(cmap)
            z = 0.9
            h = 1e-6
            x = lambda zz: map_constant(cmap) * zz ** float(cmap.alpha)
            dxdz = (x(z + h) - x(z - h)) / (2 * h)
            assert measure_at(mu, z) == pytest.approx(dxdz, rel=1e-8)


class TestUnitMeasureRestore:
    def test_bubble_restoration(self):
        cmap = pm_map(3)
        restored = unit_measure_restore(
            transform_diffop(weyl_kinetic(), cmap), measure_of_map(cmap)
        )
        expected = DiffOp(
            [(PolyX.one(), 2), (PolyX.mono(F(9, 100), -2), 0)],
            prefactor=F(-1, 2),
        )
        assert restored == expected

    def test_unit_measure_is_noop(self):
        op = weyl_kinetic()
        assert unit_measure_restore(op, Measure(F(1), F(0), F(0))) == op

    @pytest.mark.parametrize("a", A_VALUES)
    def test_sandwich_family_restored_coefficient(self, a):
        gamma = -3 * a * (3 * a + 4)
        cmap = pm_map(3)
        restored = unit_measure_restore(
            transform_diffop(expand_sandwich(PowerLawMass(F(3)), OrderingParam(a)), cmap),
            measure_of_map(cmap),
        )
        assert restored.coefficient(1).is_zero()
        # -(1/2)[D^2 + (16 gamma - 39)/100 z^-2]
        assert restored.coefficient(0) == PolyX.mono(
            F(-1, 2) * (16 * gamma - 39) * F(1, 100), -2
        )

    @pytest.mark.parametrize("a", A_VALUES)
    def test_first_derivative_always_vanishes(self, a):
        cmap = pm_map(3)
        mu = measure_of_map(cmap)
        for op in (
            weyl_kinetic(),
            expand_sandwich(PowerLawMass(F(3)), OrderingParam(a)),
        ):
            restored = unit_measure_restore(transform_diffop(op, cmap), mu)
            assert restored.coefficient(1).is_zero()

    def test_restoration_preserves_leading_coefficient(self):
        cmap = pm_map(3)
        mu = measure_of_map(cmap)
        op_z = transform_diffop(weyl_kinetic(), cmap)
        restored = unit_measure_restore(op_z, mu)
        assert restored.coefficient(2) == op_z.coefficient(2)

    def test_hermiticity_with_measure_before_restoration(self):
        cmap = pm_map(3)
        op_z = transform_diffop(weyl_kinetic(), cmap)
        assert hermiticity_check(op_z, measure=measure_of_map(cmap)).passes

    @pytest.mark.parametrize("a", A_VALUES)
    def test_route_independence_with_susy(self, a):
        # quantize-transform-restore equals the ladder-operator route exactly.
        # Both z^-2 coefficients are quadratics in a: the algebra's because
        # each of the two derivatives in x^{3a} D x^{-3-6a} D x^{3a} brings
        # down at most one exponent linear in a, susy's by its closed form.
        # So agreement at three distinct a proves
        # susy.inverse_square_coefficient for every a; A_VALUES has six.
        cmap = pm_map(3)
        restored = unit_measure_restore(
            transform_diffop(expand_sandwich(PowerLawMass(F(3)), OrderingParam(a)), cmap),
            measure_of_map(cmap),
        )
        assert restored == z_space_operator(OrderingParam(a), "expanded")
