import math
import re
import warnings
from dataclasses import asdict
from fractions import Fraction as F

import numpy as np
import pytest

from pdmbubble.helium import (
    DEFAULT_HE4,
    EV,
    HBAR,
    HELIUM4_MASS,
    K_B,
    PLANCK_H,
    DerivedParams,
    PhysicalParams,
    PhysicsError,
    barrier_info,
    derived_params,
    potential_profile,
    z_powers,
)
from pdmbubble.susy import inverse_square_coefficient


def scales(U0=1.0) -> DerivedParams:
    """Derived scales with the given U0 and k = 1 (J); the rest are unread."""
    return DerivedParams(R_c=1.0, U0=U0, M0=1.0, k=1.0, Lambda=1.0, p_Th=1.0,
                         P_i_at_Rc=1.0)


def profile(zs, U0=1.0, c_a=F(-9, 100)):
    """The potentials (V_a, V_sys) on zs."""
    return potential_profile(c_a, scales(U0), z_powers(zs))


def profile_at(a, source, d, zs):
    """The potentials on zs at ordering a with the given source."""
    return potential_profile(inverse_square_coefficient(a, source), d,
                             z_powers(zs))


class TestPhysicalParams:
    def test_default_values(self):
        assert DEFAULT_HE4.sigma == 0.12e-3
        assert DEFAULT_HE4.P_v == 8.1445e4
        assert DEFAULT_HE4.rho_L == 140.0
        assert DEFAULT_HE4.T == 4.0
        assert DEFAULT_HE4.P == 0.0
        assert DEFAULT_HE4.rho_v == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"sigma": -1e-4},
            {"rho_L": 0.0},
            {"T": -1.0},
            {"rho_v": -1.0},
            {"rho_v": 140.0},
            {"rho_v": 200.0},
            {"sigma": math.nan},
            {"P_v": math.inf},
            {"T": math.inf},
            {"P": math.nan},
        ],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        base = dict(sigma=0.12e-3, P_v=8.1445e4, rho_L=140.0, T=4.0)
        base.update(kwargs)
        with pytest.raises(PhysicsError):
            PhysicalParams(**base)

    def test_with_pressure(self):
        p = DEFAULT_HE4.with_pressure(0.8 * DEFAULT_HE4.P_v)
        assert p.P == pytest.approx(0.8 * 8.1445e4)
        assert p.sigma == DEFAULT_HE4.sigma
        assert DEFAULT_HE4.P == 0.0  # original untouched


class TestDerivedParams:
    def test_critical_radius(self):
        d = derived_params(DEFAULT_HE4)
        assert d.R_c == pytest.approx(2.0 * 0.12e-3 / 8.1445e4, rel=1e-15, abs=0)
        assert d.R_c == pytest.approx(29.5e-10, rel=5e-3, abs=0)

    def test_thermal_wavelength(self):
        d = derived_params(DEFAULT_HE4)
        expected = PLANCK_H / math.sqrt(
            2.0 * math.pi * HELIUM4_MASS * K_B * 4.0
        )
        assert d.Lambda == expected
        assert d.Lambda == pytest.approx(4.36e-10, rel=1e-2, abs=0)

    def test_thermal_momentum(self):
        d = derived_params(DEFAULT_HE4)
        assert d.p_Th == pytest.approx(1.52e-24, rel=1e-2, abs=0)

    def test_momentum_wavelength_identity(self):
        for t in (1.0, 4.0, 40.0):
            d = derived_params(
                PhysicalParams(sigma=0.12e-3, P_v=8.1445e4, rho_L=140.0, T=t)
            )
            assert d.p_Th * d.Lambda == pytest.approx(PLANCK_H, rel=1e-15, abs=0)

    def test_inside_pressure_equals_vapor_pressure(self):
        for ratio in (0.0, 0.5, 0.8, 0.95):
            p = DEFAULT_HE4.with_pressure(ratio * DEFAULT_HE4.P_v)
            d = derived_params(p)
            assert d.P_i_at_Rc == pytest.approx(p.P_v, rel=1e-15)

    def test_barrier_scale(self):
        d = derived_params(DEFAULT_HE4)
        expected = 4.0 * math.pi * 0.12e-3 * d.R_c**2
        assert d.U0 == expected
        assert d.U0 == pytest.approx(1.31e-20, rel=1e-2, abs=0)

    def test_mass_scale_zero_vapor_density(self):
        d = derived_params(DEFAULT_HE4)
        assert d.M0 == 4.0 * math.pi * 140.0 * d.R_c**3

    def test_mass_scale_vapor_density_factor(self):
        p = PhysicalParams(
            sigma=0.12e-3, P_v=8.1445e4, rho_L=140.0, T=4.0, rho_v=70.0
        )
        d0 = derived_params(DEFAULT_HE4)
        d = derived_params(p)
        assert d.M0 == pytest.approx(0.25 * d0.M0, rel=1e-15, abs=0)

    def test_kinetic_prefactor(self):
        d = derived_params(DEFAULT_HE4)
        assert d.k == pytest.approx(HBAR**2 / (2.0 * d.M0 * d.R_c**2), rel=1e-15, abs=0)

    def test_all_positive(self):
        d = derived_params(DEFAULT_HE4.with_pressure(0.9 * DEFAULT_HE4.P_v))
        assert all(v > 0 for v in asdict(d).values())

    def test_superheating_required(self):
        with pytest.raises(PhysicsError):
            derived_params(DEFAULT_HE4.with_pressure(DEFAULT_HE4.P_v))
        with pytest.raises(PhysicsError):
            derived_params(DEFAULT_HE4.with_pressure(1.5 * DEFAULT_HE4.P_v))

    @pytest.mark.parametrize(
        "sigma, P_v, name",
        [(1e300, 1e-10, "R_c"), (1e200, 1.0, "U0"), (1e60, 1e-43, "M0")],
    )
    def test_scale_out_of_float_range_is_physics_error(self, sigma, P_v, name):
        p = PhysicalParams(sigma=sigma, P_v=P_v, rho_L=140.0, T=4.0)
        with pytest.raises(PhysicsError, match=f"^{name} out of float range$"):
            derived_params(p)

    @pytest.mark.parametrize(
        "sigma",
        [1e100,    # 2 M0 R_c^2 overflows, so k underflows to 0
         1e-100,   # 2 M0 R_c^2 underflows to 0
         1e-110],  # M0 itself underflows to 0
    )
    def test_k_out_of_float_range_is_physics_error(self, sigma):
        p = PhysicalParams(sigma=sigma, P_v=1.0, rho_L=1.0, T=4.0)
        with pytest.raises(PhysicsError, match="^k out of float range$"):
            derived_params(p)

    def test_radius_increases_with_pressure(self):
        radii = [
            derived_params(DEFAULT_HE4.with_pressure(r * DEFAULT_HE4.P_v)).R_c
            for r in (0.0, 0.3, 0.6, 0.9, 0.99)
        ]
        assert radii == sorted(radii)
        assert radii[-1] > 50 * radii[0]

    def test_power_scalings_in_radius(self):
        d1 = derived_params(DEFAULT_HE4)
        d2 = derived_params(DEFAULT_HE4.with_pressure(0.5 * DEFAULT_HE4.P_v))
        s = d2.R_c / d1.R_c
        assert s == pytest.approx(2.0, rel=1e-15)
        assert d2.U0 / d1.U0 == pytest.approx(s**2, rel=1e-12)
        assert d2.M0 / d1.M0 == pytest.approx(s**3, rel=1e-12)
        assert d2.k / d1.k == pytest.approx(s**-5, rel=1e-12)

    def test_momentum_comparison_at_base_values(self):
        # the thermal momentum is far below sqrt(U0 M0) at these inputs;
        # printed by the CLI, never asserted as an inequality elsewhere
        d = derived_params(DEFAULT_HE4)
        assert math.sqrt(d.U0 * d.M0) == pytest.approx(7.68e-22, rel=1e-2, abs=0)
        assert d.p_Th < math.sqrt(d.U0 * d.M0)


class TestPotentials:
    def test_v_sys_vanishes_at_unit_radius(self):
        assert profile([1.0], U0=3.7)[1][0] == 0.0

    def test_v_sys_positive_inside_negative_outside(self):
        inside, outside = profile([0.5, 2.0])[1]
        assert inside > 0 > outside

    def test_v_sys_requires_positive_z(self):
        with pytest.raises(PhysicsError):
            z_powers([0.0])
        with pytest.raises(PhysicsError):
            z_powers([-1.0])

    def test_inverse_square_negative_divergence(self):
        values = profile([0.1, 0.01])[0]
        assert values[1] < values[0] < 0
        assert values[1] == pytest.approx(100.0 * values[0])

    def test_v_sys_of_zero_u0_is_positive_zero(self):
        # U0 underflows to 0 for a tiny sigma; 0 * (1 - z**0.4) is -0.0 at
        # z > 1, which would print as -0.00000000000e+00
        _, v_sys = profile([0.5, 1.0, 2.0, 3.0], U0=0.0)
        assert v_sys.tolist() == [0.0] * 4
        assert not np.signbit(v_sys).any()


class TestProfile:
    def grid(self):
        return [0.05 + 0.01 * i for i in range(300)]

    def test_columns_and_units(self):
        d = derived_params(DEFAULT_HE4.with_pressure(0.8 * DEFAULT_HE4.P_v))
        p = z_powers([0.5, 1.0])
        v_a, v_sys = potential_profile(F(-9, 100), d, p)
        assert p.z.tolist() == [0.5, 1.0]
        assert len(p) == 2
        assert v_a.dtype == v_sys.dtype == np.float64
        assert v_a.tolist() == [d.k * -0.09 / 0.25, d.k * -0.09 / 1.0]
        assert v_sys.tolist() == [d.U0 * 0.5**0.8 * (1.0 - 0.5**0.4), 0.0]

    def test_negative_divergence_near_origin(self):
        d = derived_params(DEFAULT_HE4.with_pressure(0.8 * DEFAULT_HE4.P_v))
        totals = sum(profile_at(F(-1, 6), "paper", d, [1e-7, 1e-8, 1e-9]))
        assert totals[0] > totals[1] > totals[2]
        assert totals[2] < -1e3 * d.U0

    def test_single_interior_maximum_of_v_sys(self):
        d = derived_params(DEFAULT_HE4.with_pressure(0.8 * DEFAULT_HE4.P_v))
        _, vs = profile_at(F(-1, 6), "paper", d, self.grid())
        sign_changes = 0
        for i in range(1, len(vs) - 1):
            if vs[i] > vs[i - 1] and vs[i] > vs[i + 1]:
                sign_changes += 1
        assert sign_changes == 1

    def test_barrier_grows_with_pressure(self):
        heights = []
        for ratio in (0.8, 0.95):
            d = derived_params(DEFAULT_HE4.with_pressure(ratio * DEFAULT_HE4.P_v))
            _, v_sys = profile_at(F(-1, 6), "paper", d, self.grid())
            heights.append(max(v_sys))
        assert heights[1] > heights[0]

    def test_source_selects_coefficient(self):
        d = derived_params(DEFAULT_HE4)
        paper = profile_at(F(0), "paper", d, [0.5])[0][0]
        expanded = profile_at(F(0), "expanded", d, [0.5])[0][0]
        assert paper == pytest.approx(d.k * (-21.0 / 100.0) / 0.25, rel=1e-12, abs=0)
        assert expanded == pytest.approx(d.k * (39.0 / 100.0) / 0.25, rel=1e-12, abs=0)


def uniform(lo, hi, n):
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


class TestColumns:
    """The columns equal, bit for bit, V_a and V_sys evaluated one point at a
    time with Python floats in the scalar order: (k c_a)/z**2 and
    (U0 z**0.8)(1 - z**0.4)."""

    @pytest.mark.parametrize("box", [(0.05, 3.0), (1e-8, 0.02)])
    @pytest.mark.parametrize("a", [F(-1, 3), F(0), F(1, 6)])
    @pytest.mark.parametrize("source", ["expanded", "paper"])
    def test_bit_identical_to_per_point_reference(self, box, a, source):
        d = derived_params(DEFAULT_HE4.with_pressure(0.8 * DEFAULT_HE4.P_v))
        zs = uniform(*box, 10007)
        k_c_a = d.k * float(inverse_square_coefficient(a, source))
        v_a = [k_c_a / z**2 for z in zs]
        v_sys = [d.U0 * z**0.8 * (1.0 - z**0.4) for z in zs]
        p = z_powers(zs)
        got_a, got_sys = potential_profile(
            inverse_square_coefficient(a, source), d, p)
        assert p.z.tolist() == zs
        assert got_a.tolist() == v_a
        assert got_sys.tolist() == v_sys
        # scan's V_total column, formed in cli as the columns' sum
        assert (got_a + got_sys).tolist() == [x + y for x, y in zip(v_a, v_sys)]

    @pytest.mark.parametrize(
        "zs, message",
        [
            ([1.0, 1e-200, -1.0], "z**2 out of float range at z = 1e-200"),
            ([1.0, -1.0, 1e200], "inverse-square potential requires z > 0"),
            ([1.0, 1e200, math.nan], "z**2 out of float range at z = 1e+200"),
            ([1.0, math.nan, 0.0], "inverse-square potential requires finite z"),
        ],
    )
    def test_first_bad_z_in_order_names_the_error(self, zs, message):
        with pytest.raises(PhysicsError, match=re.escape(message)):
            z_powers(zs)

    @pytest.mark.parametrize("e, column", [(2, "z2"), (0.8, "p08"), (0.4, "p04")])
    def test_float_power_is_python_pow(self, e, column):
        # z_powers rests on this: np.float_power calls the C library's pow,
        # as Python's float ** does, over the whole range of z it accepts
        rng = np.random.default_rng(15)
        z = np.exp(rng.uniform(math.log(2.3e-162), math.log(1.3e154), 100_000))
        want = [x**e for x in z.tolist()]
        assert np.float_power(z, e).tolist() == want
        assert getattr(z_powers(z), column).tolist() == want

    def test_z2_overflow_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PhysicsError, match=re.escape(
                    "z**2 out of float range at z = 1e+200")):
                z_powers([1.0, 1e200])

    @pytest.mark.parametrize("compute, message", [
        (lambda: z_powers([1e200]),
         "inverse-square potential: z**2 out of float range at z = 1e+200"),
        (lambda: profile([3.0], U0=1e308), "v_sys out of float range at z = 3"),
    ], ids=["z_powers", "potential_profile"])
    def test_overflow_keeps_the_float_error_policy(self, compute, message):
        # each call overflows, so numpy would warn, and under "error" raise
        # a RuntimeWarning, were the call outside float_errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PhysicsError, match=re.escape(message)):
                compute()

    def test_v_sys_out_of_float_range_names_the_first_z(self):
        with pytest.raises(
            PhysicsError, match=re.escape("v_sys out of float range at z = 1e+10")
        ):
            profile([1.0, 1e10, 1e20], U0=1e300)

    def test_c_a_out_of_float_range_is_physics_error(self):
        with pytest.raises(PhysicsError, match="c_a out of float range"):
            profile([1.0], c_a=inverse_square_coefficient(10**200, "paper"))


class TestBarrier:
    def test_stationary_point_location(self):
        d = derived_params(DEFAULT_HE4)
        z_star, v_star = barrier_info(d)
        assert z_star == pytest.approx((2.0 / 3.0) ** 2.5, rel=1e-12)
        assert z_star == pytest.approx(0.36289, abs=5e-6)
        assert v_star == pytest.approx(4.0 / 27.0 * d.U0, rel=1e-12, abs=0)

    def test_stationary_point_is_maximum_of_v_sys(self):
        d = derived_params(DEFAULT_HE4)
        z_star, v_star = barrier_info(d)
        eps = 1e-6
        below, at_star, above = profile_at(
            F(0), "expanded", d, [z_star - eps, z_star, z_star + eps])[1]
        assert at_star == pytest.approx(v_star, rel=1e-12, abs=0)
        assert below < v_star
        assert above < v_star

    def test_reference_level_offset(self):
        d = derived_params(DEFAULT_HE4)
        _, v0 = barrier_info(d)
        _, v1 = barrier_info(d, c0=2.5)
        assert v1 - v0 == pytest.approx(2.5, rel=1e-12)

    def test_height_at_eight_tenths_vapor_pressure(self):
        d = derived_params(DEFAULT_HE4.with_pressure(0.8 * DEFAULT_HE4.P_v))
        assert d.U0 / EV == pytest.approx(2.04, rel=1e-2)
        _, v_star = barrier_info(d)
        assert v_star / EV == pytest.approx(0.30, rel=2e-2)

    def test_degenerate_scale_rejected(self):
        bad = DerivedParams(
            R_c=1.0, U0=0.0, M0=1.0, k=1.0, Lambda=1.0, p_Th=1.0, P_i_at_Rc=1.0
        )
        with pytest.raises(PhysicsError):
            barrier_info(bad)
