import math
from fractions import Fraction as F

import pytest

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


def weyl_kinetic():
    return weyl_order(parse_hamiltonian("p^2/(2*x^3)", {}))


class TestPmMap:
    def test_bubble_case(self):
        cmap = pm_map(3)
        assert cmap.alpha == F(2, 5)
        assert cmap.c_base == F(5, 2)
        assert cmap.c_exp == F(2, 5)
        assert cmap.c == pytest.approx(2.5 ** 0.4)
        assert cmap.c == pytest.approx(1.4427, abs=1e-4)

    def test_constant_mass_identity(self):
        cmap = pm_map(0)
        assert cmap.alpha == 1
        assert cmap.is_identity()

    def test_n_two(self):
        cmap = pm_map(2)
        assert cmap.alpha == F(1, 2)
        assert cmap.c == pytest.approx(math.sqrt(2))

    def test_unsupported_exponent(self):
        with pytest.raises(TransformError):
            pm_map(-2)

    def test_kinetic_lagrangian_coefficient_constant(self):
        # mass coefficient x^n (dx/dz)^2 must be exactly 1 after the map
        for n in (1, 2, 3, 5):
            cmap = pm_map(n)
            z = 1.7
            x = cmap.c * z ** float(cmap.alpha)
            dxdz = cmap.c * float(cmap.alpha) * z ** (float(cmap.alpha) - 1)
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
    def test_bubble_measure(self):
        mu = measure_of_map(pm_map(3))
        assert mu == Measure(coeff_base=F(5, 2), coeff_exp=F(-3, 5), z_exp=F(-3, 5))
        assert mu.eval(1.0) == pytest.approx(0.4 ** 0.6)

    def test_identity_measure(self):
        assert measure_of_map(pm_map(0)) == Measure(F(1), F(0), F(0))

    def test_n_two_measure(self):
        mu = measure_of_map(pm_map(2))
        assert mu.z_exp == F(-1, 2)
        assert mu.eval(1.0) == pytest.approx(math.sqrt(2) / 2)

    def test_measure_equals_dx_dz(self):
        for n in (1, 2, 3):
            cmap = pm_map(n)
            mu = measure_of_map(cmap)
            z = 0.9
            h = 1e-6
            x = lambda zz: cmap.c * zz ** float(cmap.alpha)
            dxdz = (x(z + h) - x(z - h)) / (2 * h)
            assert mu.eval(z) == pytest.approx(dxdz, rel=1e-8)


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
        # quantize-transform-restore equals the ladder-operator route exactly
        cmap = pm_map(3)
        restored = unit_measure_restore(
            transform_diffop(expand_sandwich(PowerLawMass(F(3)), OrderingParam(a)), cmap),
            measure_of_map(cmap),
        )
        assert restored == z_space_operator(OrderingParam(a), "expanded")
