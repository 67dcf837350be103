from fractions import Fraction as F

import pytest

from pdmbubble.algebra import (
    Coeff,
    DiffOp,
    ExactnessError,
    OrderingParam,
    PolyX,
    PowerLawMass,
    expand_sandwich,
)
from pdmbubble.ordering import (
    MatchError,
    kinetic_family_coefficient,
    match_orderings,
    named_orderings,
)
from pdmbubble.parsing import parse_hamiltonian
from pdmbubble.weyl import weyl_order


def weyl_target():
    return weyl_order(parse_hamiltonian("p^2/x^3", {}))


def family_target(gamma):
    return family_with(PolyX.mono(gamma, -5))


def family_with(zero_order):
    """-[x^-3 D^2 - 3 x^-4 D + zero_order]: the n = 3 family off its last term."""
    return DiffOp(
        [
            (PolyX.mono(1, -3), 2),
            (PolyX.mono(-3, -4), 1),
            (zero_order, 0),
        ],
        prefactor=-1,
    )


class TestFamilyCoefficient:
    def test_weyl_matching_value(self):
        assert kinetic_family_coefficient(3, F(-1, 3)) == 3

    def test_a_zero(self):
        assert kinetic_family_coefficient(3, F(0)) == 0

    def test_constant_mass(self):
        for a in (F(0), F(5, 7), F(-2)):
            assert kinetic_family_coefficient(0, a) == 0

    def test_matches_quadratic_form(self):
        # the closed form that match_orderings' expanded branch solves
        for n in (F(1), F(2), F(5, 2), F(7, 3), F(3)):
            for a in (F(-1), F(-1, 6), F(1, 2), F(3, 4)):
                expected = -(n * n * a * a + n * (n + 1) * a)
                assert kinetic_family_coefficient(n, a) == expected


class TestMatchOrderings:
    def test_paper_roots(self):
        sol = match_orderings(3, weyl_target(), "paper")
        assert sol.root_values == (F(-1, 6), F(1, 2))
        # paper roots satisfy the published quadratic exactly ...
        for a in sol.root_values:
            assert 21 + 48 * a - 144 * a * a == 9
        # ... but do not survive operator-level verification
        for root in sol.roots:
            assert not root.verified
            assert not root.residual.is_zero()

    def test_expanded_roots_verified(self):
        sol = match_orderings(3, weyl_target(), "expanded")
        assert sol.root_values == (F(-1), F(-1, 3))
        for root in sol.roots:
            assert root.exact and root.verified
            assert root.residual.is_zero()

    def test_expanded_roots_give_identical_operators(self):
        sol = match_orderings(3, weyl_target(), "expanded")
        mass = PowerLawMass(F(3))
        ops = [expand_sandwich(mass, OrderingParam(a)) for a in sol.root_values]
        assert ops[0] == ops[1]

    def test_unreachable_gamma_reports_negative_discriminant(self):
        sol = match_orderings(3, family_target(F(5)), "expanded")
        assert sol.roots == ()
        assert sol.discriminant < 0

    def test_scale_covariance(self):
        base = match_orderings(3, weyl_target(), "expanded").root_values
        scaled = match_orderings(3, weyl_target().scale(F(7, 3)), "expanded")
        assert scaled.root_values == base
        assert all(r.verified for r in scaled.roots)

    def test_paper_roots_residual_values(self):
        # printed final sandwiches expand to gamma = 7/4 and -33/4, not 3
        assert kinetic_family_coefficient(3, F(-1, 6)) == F(7, 4)
        assert kinetic_family_coefficient(3, F(1, 2)) == F(-33, 4)

    def test_paper_reader_at_a_zero_inverse_square_coefficient(self):
        # at a = -1/4 the restored z operator is s D^2 alone: c = 0
        target = expand_sandwich(PowerLawMass(3), OrderingParam(F(-1, 4)))
        sol = match_orderings(3, target, "paper")
        assert sol.quadratic == (-144, 48, 21)
        assert sol.root_values == (F(-1, 4), F(7, 12))
        assert [r.verified for r in sol.roots] == [True, False]

    def test_malformed_target_rejected(self):
        with pytest.raises(MatchError):
            match_orderings(3, DiffOp.derivative(2), "expanded")

    @pytest.mark.parametrize("n, target, source, error, message", [
        (3, DiffOp([(PolyX([(1, -3), (1, 0)]), 2)]), "expanded",
         MatchError, "second-order coefficient is not a monomial"),
        (3, DiffOp([(PolyX.mono(1, -3), 2)]), "expanded",
         MatchError, "first-order term does not match the kinetic family"),
        (3, family_with(PolyX([(1, -5), (1, 0)])), "expanded",
         MatchError, "zero-order coefficient is not a monomial"),
        (3, family_with(PolyX.mono(1, -4)), "expanded",
         MatchError, "zero-order exponent does not match the kinetic family"),
        (3, family_with(PolyX.mono(Coeff.sqrt2(), -5)), "expanded",
         ExactnessError, "gamma is not rational"),
        (2, expand_sandwich(PowerLawMass(2), OrderingParam(F(0))), "paper",
         MatchError, "paper-mode matching is transcribed for n = 3 only"),
    ], ids=["d2-not-monomial", "d-off-family", "zero-order-not-monomial",
            "zero-order-exponent", "gamma-irrational", "paper-at-n2"])
    def test_off_family_target_refused(self, n, target, source, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            match_orderings(n, target, source)

    def test_constant_mass_is_refused(self):
        # at n = 0 every ordering gives -(1/2) D^2: the quadratic is 0 = 0
        target = expand_sandwich(PowerLawMass(0), OrderingParam(F(1, 3)))
        with pytest.raises(MatchError,
                           match="^gamma does not depend on a at n = 0$"):
            match_orderings(0, target, "expanded")

    def test_irrational_roots_are_floats_left_unverified(self):
        # n + 1 = 3 is not a rational square: the roots of
        # 4 a^2 + 6 a + 3/2 = 0 are (-3 -+ sqrt 3) / 4, as floats
        target = weyl_order(parse_hamiltonian("p^2/x^2", {}))
        solution = match_orderings(2, target, "expanded")
        data = solution.to_jsonable()
        assert data["quadratic"] == ["4", "6", "3/2"]
        assert data["discriminant"] == "12"
        assert data["roots"] == [
            {"a": "-1.1830127018922192", "exact": False, "verified": False,
             "residual_terms": 0},
            {"a": "-0.3169872981077807", "exact": False, "verified": False,
             "residual_terms": 0},
        ]
        for root in solution.root_values:
            assert isinstance(root, float)
            size = 4 * root * root + 6 * abs(root) + 1.5
            assert abs(4 * root * root + 6 * root + 1.5) <= 1e-12 * size


class TestNamedOrderings:
    def test_candidate_expansions(self):
        ops = dict(named_orderings(3))
        target = weyl_target()
        symmetric = ops["(1/x) p (1/x) p (1/x)"]
        assert symmetric == target
        momentum_sandwich = ops["p (1/x^3) p"]
        assert momentum_sandwich - target == DiffOp([(PolyX.mono(3, -5), 0)])
        anticommutator = ops["(1/2)[p^2 (1/x^3) + (1/x^3) p^2]"]
        assert anticommutator - target == DiffOp([(PolyX.mono(-3, -5), 0)])

    def test_only_n3_supported(self):
        with pytest.raises(MatchError):
            named_orderings(2)
