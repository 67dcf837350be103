import random
from fractions import Fraction as F

import pytest

from pdmbubble.algebra import (
    Coeff,
    DiffOp,
    OrderingParam,
    PolyX,
    PowerLawMass,
    expand_sandwich,
)
from pdmbubble.helium import DEFAULT_HE4, derived_params, effective_hamiltonian_z
from pdmbubble.susy import (
    commutator_check,
    inverse_square_coefficient,
    ladder_operator,
    ladder_product,
    normalize_source,
    partner_potential,
    superpotential,
    z_space_operator,
)

N3 = PowerLawMass(F(3))
TEST_A_VALUES = [F(-1), F(-1, 3), F(-1, 4), F(-1, 6), F(0), F(1, 2)]


def sqrt2(mult):
    return Coeff.sqrt2(mult)


class TestSuperpotential:
    @pytest.mark.parametrize("a", [F(-1, 4), F(0), F(1, 2)])
    def test_published_coefficients(self, a):
        w = superpotential(N3, OrderingParam(a)).W
        assert w.coefficient(F(5, 2)) == sqrt2(F(1, 5))
        # -3(4a+1)/(4 sqrt2) = -3(4a+1) sqrt2 / 8
        assert w.coefficient(F(-5, 2)) == sqrt2(-3 * (4 * a + 1) * F(1, 8))

    def test_a_quarter_kills_singular_term(self):
        w = superpotential(N3, OrderingParam(F(-1, 4))).W
        assert w == PolyX([(sqrt2(F(1, 5)), F(5, 2))])

    def test_constant_mass_is_linear(self):
        w = superpotential(PowerLawMass(F(0)), OrderingParam(F(2, 7))).W
        assert w == PolyX([(sqrt2(F(1, 2)), 1)])


class TestLadderOperators:
    def test_lowering_operator_a_zero(self):
        op = ladder_operator(N3, OrderingParam(F(0)), "-")
        assert op.coefficient(1) == PolyX.mono(sqrt2(F(1, 2)), F(-3, 2))
        w = superpotential(N3, OrderingParam(F(0))).W
        assert op.coefficient(0) == w  # m^a = 1 adds nothing at a = 0

    def test_constant_mass_oscillator_shape(self):
        mass = PowerLawMass(F(0))
        minus = ladder_operator(mass, OrderingParam(F(0)), "-")
        plus = ladder_operator(mass, OrderingParam(F(0)), "+")
        assert minus.coefficient(1) == PolyX.const(sqrt2(F(1, 2)))
        assert plus.coefficient(1) == PolyX.const(sqrt2(F(-1, 2)))
        assert minus.coefficient(0) == plus.coefficient(0)

    @pytest.mark.parametrize("a", TEST_A_VALUES)
    def test_sum_is_growing_monomial(self, a):
        plus = ladder_operator(N3, OrderingParam(a), "+")
        minus = ladder_operator(N3, OrderingParam(a), "-")
        total = plus + minus
        assert total.order == 0
        assert total.coefficient(0) == PolyX.mono(sqrt2(F(2, 5)), F(5, 2))

    @pytest.mark.parametrize("a", TEST_A_VALUES)
    def test_raising_is_adjoint_of_lowering(self, a):
        # ladder_operator takes A+ as the adjoint of A-; compose the adjoint's
        # closed form -(1/sqrt2) m^a D m^b + W here instead
        ordp = OrderingParam(a)
        for n in (F(3), F(5, 2), F(7, 3), F(2), F(0)):
            mass = PowerLawMass(n)
            expected = (
                DiffOp.multiplication(mass.power(ordp.a))
                .compose(DiffOp.derivative())
                .compose(DiffOp.multiplication(mass.power(ordp.b)))
                .scale(sqrt2(F(-1, 2)))
            ) + DiffOp.multiplication(superpotential(mass, ordp).W)
            assert ladder_operator(mass, ordp, "+") == expected


class TestHeisenbergAlgebra:
    def test_random_rational_orderings(self):
        rng = random.Random(41)
        for _ in range(10):
            a = F(rng.randint(-12, 12), rng.randint(1, 8))
            assert commutator_check(N3, OrderingParam(a)).is_zero()

    def test_constant_mass(self):
        assert commutator_check(PowerLawMass(F(0)), OrderingParam(F(1, 3))).is_zero()

    def test_truncated_superpotential_breaks_algebra(self):
        a = F(0)  # != -1/4, singular term matters
        ordp = OrderingParam(a)
        w_full = superpotential(N3, ordp).W
        w_trunc = PolyX([(w_full.coefficient(F(5, 2)), F(5, 2))])
        d = DiffOp.derivative()
        inv_sqrt2 = sqrt2(F(1, 2))
        minus = (
            DiffOp.multiplication(N3.power(ordp.b))
            .compose(d)
            .compose(DiffOp.multiplication(N3.power(ordp.a)))
            .scale(inv_sqrt2)
        ) + DiffOp.multiplication(w_trunc)
        plus = (
            DiffOp.multiplication(N3.power(ordp.a))
            .compose(d)
            .compose(DiffOp.multiplication(N3.power(ordp.b)))
            .scale(-inv_sqrt2)
        ) + DiffOp.multiplication(w_trunc)
        residual = minus.commutator(plus) - DiffOp.identity()
        assert not residual.is_zero()
        assert residual.order == 0
        assert residual.coefficient(0).is_monomial()
        _, exp = residual.coefficient(0).monomial_parts()
        assert exp == -5

    @pytest.mark.parametrize("a", TEST_A_VALUES)
    def test_shift_identity(self, a):
        ordp = OrderingParam(a)
        h_minus = ladder_product(N3, ordp, "-")
        h_plus = ladder_product(N3, ordp, "+")
        assert h_minus == h_plus + DiffOp.identity()


class TestLadderProduct:
    def test_a_zero_expansion(self):
        op = ladder_product(N3, OrderingParam(F(0)), "+")
        expected = DiffOp(
            [
                (PolyX.mono(F(-1, 2), -3), 2),
                (PolyX.mono(F(3, 2), -4), 1),
                (
                    PolyX([(F(-39, 32), -5), (F(2, 25), 5), (F(-1, 2), 0)]),
                    0,
                ),
            ]
        )
        assert op == expected

    def test_a_independence(self):
        ops = [ladder_product(N3, OrderingParam(a), "+") for a in TEST_A_VALUES]
        assert all(op == ops[0] for op in ops)


class TestPartnerPotentials:
    def test_paper_transcription(self):
        for a in (F(0), F(1, 2)):
            v = partner_potential(N3, OrderingParam(a), "+", "paper").V
            assert v.coefficient(-5) == Coeff.of(
                (21 + 48 * a - 144 * a * a) * F(1, 32)
            )
            assert v.coefficient(5) == Coeff.of(F(2, 25))
            assert v.coefficient(0) == Coeff.of(F(-1, 2))

    def test_expanded_a_zero(self):
        v = partner_potential(N3, OrderingParam(F(0)), "+", "expanded").V
        assert v == PolyX([(F(-39, 32), -5), (F(2, 25), 5), (F(-1, 2), 0)])

    def test_sources_agree_only_at_minus_quarter(self):
        ordp = OrderingParam(F(-1, 4))
        vp = partner_potential(N3, ordp, "+", "paper").V
        ve = partner_potential(N3, ordp, "+", "expanded").V
        assert vp == ve
        assert ve.coefficient(-5).is_zero()
        # and there V = W^2 -+ 1/2
        w = superpotential(N3, ordp).W
        assert ve == w * w - PolyX.const(F(1, 2))

    @pytest.mark.parametrize("a", [F(0), F(1, 2), F(-1, 6)])
    def test_source_divergence_is_pure_inverse_fifth(self, a):
        ordp = OrderingParam(a)
        diff = (
            partner_potential(N3, ordp, "+", "paper").V
            - partner_potential(N3, ordp, "+", "expanded").V
        )
        assert not diff.is_zero()
        _, exp = diff.monomial_parts()
        assert exp == -5

    @pytest.mark.parametrize("a", TEST_A_VALUES)
    def test_expanded_satisfies_operator_identity(self, a):
        ordp = OrderingParam(a)
        v = partner_potential(N3, ordp, "+", "expanded").V
        lhs = ladder_product(N3, ordp, "+") - DiffOp.multiplication(v)
        assert lhs == expand_sandwich(N3, ordp)

    @pytest.mark.parametrize("a", TEST_A_VALUES)
    def test_expanded_minus_kinetic_both_signs(self, a):
        ordp = OrderingParam(a)
        v_minus = partner_potential(N3, ordp, "-", "expanded").V
        lhs = ladder_product(N3, ordp, "-") - DiffOp.multiplication(v_minus)
        assert lhs == expand_sandwich(N3, OrderingParam(ordp.b))

    def test_paper_source_restricted_to_n3(self):
        with pytest.raises(ValueError):
            partner_potential(PowerLawMass(F(2)), OrderingParam(F(0)), "+", "paper")


class TestEffectiveHamiltonian:
    def test_paper_coefficient_at_minus_sixth(self):
        assert inverse_square_coefficient(F(-1, 6), "paper") == F(-9, 100)

    def test_expanded_coefficient_at_minus_third(self):
        assert inverse_square_coefficient(F(-1, 3), "expanded") == F(-9, 100)

    def test_source_aliases(self):
        assert normalize_source("paper-eq12") == "paper"
        with pytest.raises(ValueError):
            normalize_source("weyl")

    def test_z_space_operator_shape(self):
        op = z_space_operator(OrderingParam(F(-1, 3)), "expanded")
        assert op.coefficient(2) == PolyX.const(F(-1, 2))
        assert op.coefficient(1).is_zero()
        assert op.coefficient(0) == PolyX.mono(F(-9, 200), -2)

    def test_effective_hamiltonian_values(self):
        d = derived_params(DEFAULT_HE4)
        eff = effective_hamiltonian_z(OrderingParam(F(-1, 6)), d, "paper")
        assert eff.kinetic_prefactor == d.k
        assert eff.c_a == F(-9, 100)
        assert eff.v_a(2.0) == pytest.approx(d.k * -0.09 / 4.0)
        assert eff.v_sys(1.0) == pytest.approx(0.0)

    def test_v_sys_stationary_point(self):
        d = derived_params(DEFAULT_HE4)
        eff = effective_hamiltonian_z(OrderingParam(F(0)), d, "expanded")
        z_star = (2.0 / 3.0) ** 2.5
        assert z_star == pytest.approx(0.3628873693012116)
        assert eff.v_sys(z_star) == pytest.approx(4.0 / 27.0 * d.U0, rel=1e-12)
        h = 1e-7
        deriv = (eff.v_sys(z_star + h) - eff.v_sys(z_star - h)) / (2 * h)
        assert abs(deriv) < 1e-5 * d.U0
