import math
from fractions import Fraction as F

import numpy as np
import pytest

from pdmbubble import spectral
from pdmbubble.algebra import DiffOp, OrderingParam, PolyX, PowerLawMass
from pdmbubble.helium import (
    DEFAULT_HE4,
    derived_params,
    potential_profile,
    z_powers,
)
from pdmbubble.spectral import (
    AssembleError,
    Grid,
    SymTriMatrix,
    assemble,
    compare_spectra,
    eigenvalues,
    stencil,
)
from pdmbubble.susy import (
    inverse_square_coefficient,
    ladder_product,
    z_space_operator,
)

HALF_LAPLACIAN = DiffOp([(PolyX.const(F(-1, 2)), 2)])


def oscillator():
    return DiffOp([(PolyX.const(F(-1, 2)), 2), (PolyX.mono(F(1, 2), 2), 0)])


class TestGrid:
    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 2)

    def test_interior_excludes_endpoints(self):
        g = Grid(0.0, 1.0, 9)
        assert g.h == pytest.approx(0.1)
        assert g.interior[0] == pytest.approx(0.1)
        assert g.interior[-1] == pytest.approx(0.9)


class TestAssemble:
    def test_toeplitz_laplacian(self):
        g = Grid(0.1, 1.0, 10)
        m = assemble(HALF_LAPLACIAN, g)
        h2 = g.h**2
        assert np.allclose(m.diagonal, 1.0 / h2)
        assert np.allclose(m.off_diagonal, -0.5 / h2)

    def test_first_derivative_refused(self):
        op = DiffOp([(PolyX.one(), 2), (PolyX.mono(1, -1), 1)])
        with pytest.raises(AssembleError, match="restore unit measure"):
            assemble(op, Grid(0.1, 1.0, 10))

    @pytest.mark.parametrize("op, message", [
        (DiffOp.derivative(3), "operator order above 2"),
        (DiffOp([(PolyX.mono(1, 1), 2)]),
         "second-derivative coefficient must be constant")])
    def test_operator_outside_the_stencil_refused(self, op, message):
        with pytest.raises(AssembleError, match=f"^{message}$"):
            assemble(op, Grid(0.1, 1.0, 10))

    def test_inverse_square_entries(self):
        op = z_space_operator(OrderingParam(F(-1, 3)), "expanded")
        g = Grid(0.05, 3.0, 50)
        m = assemble(op, g)  # symbolic units, k = 1/2
        h2 = g.h**2
        for i, z in enumerate(g.interior):
            assert m.diagonal[i] == pytest.approx(1.0 / h2 - 0.045 / z**2)

    def test_matrix_is_symmetric_by_construction(self):
        g = Grid(0.2, 2.0, 30)
        m = assemble(oscillator(), g)
        assert len(m.off_diagonal) == m.size - 1

    def test_singular_grid_refused(self):
        op = z_space_operator(OrderingParam(F(0)), "expanded")
        with pytest.raises(AssembleError):
            assemble(op, Grid(-1.0, 1.0, 21))  # hits z = 0


class TestEigenvalues:
    def test_harmonic_oscillator_oracle(self):
        g = Grid(-10.0, 10.0, 8000)
        m = assemble(oscillator(), g)
        result = eigenvalues(m, 5, g)
        # 3-point-stencil discretization error at this h is ~(2n^2+2n+1)h^2/32,
        # up to 8e-6 for n = 4
        for n, ev in enumerate(result.eigenvalues):
            assert ev == pytest.approx(n + 0.5, abs=1e-5)

    def test_particle_in_box(self):
        length = 1.0
        g = Grid(0.0, length, 400)
        m = assemble(HALF_LAPLACIAN, g)
        result = eigenvalues(m, 3, g)
        for n, ev in enumerate(result.eigenvalues, start=1):
            exact = (n * math.pi / length) ** 2 / 2.0
            assert ev == pytest.approx(exact, rel=5e-4)

    def test_full_spectrum_ascending(self):
        g = Grid(0.0, 1.0, 40)
        m = assemble(HALF_LAPLACIAN, g)
        result = eigenvalues(m, 40, g)
        assert len(result.eigenvalues) == 40
        assert list(result.eigenvalues) == sorted(result.eigenvalues)

    def test_count_bounds(self):
        m = assemble(HALF_LAPLACIAN, Grid(0.0, 1.0, 10))
        with pytest.raises(ValueError):
            eigenvalues(m, 0)
        with pytest.raises(ValueError):
            eigenvalues(m, 11)

    def test_unconverged_solve_names_only_a_given_grid(self):
        m = SymTriMatrix(np.array([1e300, -1e300, 1e300]), np.array([1e300, 1e300]))
        with pytest.raises(ValueError, match=r"^eigenvalues did not converge$"):
            eigenvalues(m, 2)
        with pytest.raises(ValueError, match=r"over \[0, 1e-100\] with h = 2\.5e-101$"):
            eigenvalues(m, 2, Grid(0.0, 1e-100, 3))

    def test_grid_refinement_is_second_order(self):
        errors = []
        for n in (250, 500):
            g = Grid(-8.0, 8.0, n)
            ev = eigenvalues(assemble(oscillator(), g), 1, g).eigenvalues[0]
            errors.append(abs(ev - 0.5))
        ratio = errors[0] / errors[1]
        assert 3.0 < ratio < 5.0

    def test_domain_monotonicity(self):
        evs = []
        for width in (4.0, 6.0, 8.0):
            g = Grid(-width, width, 2000)
            evs.append(eigenvalues(assemble(oscillator(), g), 1, g).eigenvalues[0])
        assert evs[0] >= evs[1] >= evs[2]


def scipy_levels(matrix, count):
    """The lowest levels from scipy's public wrapper, with the arguments
    ``eigenvalues`` hands to dstebz."""
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(
        matrix.diagonal, matrix.off_diagonal, select="i",
        select_range=(0, count - 1), lapack_driver="stebz")


class TestLapackCall:
    """``eigenvalues`` calls dstebz directly, bit for bit as scipy's
    ``eigvalsh_tridiagonal(select="i", lapack_driver="stebz")`` does."""

    @pytest.mark.parametrize("points", [3, 4, 17, 2000, 12000])
    @pytest.mark.parametrize("a", [F(-1, 3), F(0), F(1, 2)])
    def test_helium_stencils_match_scipy(self, points, a):
        d = derived_params(DEFAULT_HE4)
        grid = Grid(0.05, 3.0, points)
        c_a = inverse_square_coefficient(a, "expanded")
        v_a, v_sys = potential_profile(c_a, d, z_powers(grid.interior))
        m = stencil(-d.k, grid, v_a, v_sys)
        for count in (1, points) if points < 100 else (1, 60):
            got = np.array(eigenvalues(m, count, grid).eigenvalues)
            assert np.array_equal(got, scipy_levels(m, count))

    def test_graded_matrices_match_scipy(self):
        def graded(n):
            scale = 10.0 ** rng.uniform(-30, 30, n)
            return SymTriMatrix(rng.standard_normal(n) * scale,
                                rng.standard_normal(n - 1)
                                * np.sqrt(scale[:-1] * scale[1:]))

        rng = np.random.default_rng(12)
        # sizes 1 and 2 first: scipy's wrapper returns a 1x1 matrix's diagonal
        # without calling dstebz
        cases = [(graded(1), 1), (graded(2), 1), (graded(2), 2)]
        for _ in range(100):
            n = int(rng.integers(3, 300))
            cases.append((graded(n), int(rng.integers(1, n + 1))))
        for m, count in cases:
            got = np.array(eigenvalues(m, count).eigenvalues)
            assert np.array_equal(got, scipy_levels(m, count))

    def test_loader_returns_scipys_dstebz(self):
        # a scipy that moves or renames its LAPACK module fails here
        import scipy.linalg.lapack

        assert spectral._dstebz() is scipy.linalg.lapack.dstebz

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
    def test_non_finite_input_refused(self, bad, where):
        columns = {"diagonal": np.ones(4), "off_diagonal": np.ones(3)}
        columns[where][1] = bad
        with pytest.raises(ValueError) as info:
            eigenvalues(SymTriMatrix(**columns), 2)
        assert str(info.value) == "array must not contain infs or NaNs"


class TestCompareSpectra:
    def test_identical_operators(self):
        g = Grid(0.05, 3.0, 200)
        op = z_space_operator(OrderingParam(F(-1, 3)), "expanded")
        dist, ediff = compare_spectra(op, op, g, 4)
        assert dist == 0.0
        assert ediff == 0.0

    def test_susy_route_matches_weyl_route(self):
        susy_op = z_space_operator(OrderingParam(F(-1, 3)), "expanded")
        weyl_op = DiffOp(
            [(PolyX.const(F(-1, 2)), 2), (PolyX.mono(F(-9, 200), -2), 0)]
        )
        g = Grid(0.05, 3.0, 2000)
        dist, ediff = compare_spectra(susy_op, weyl_op, g, 3)
        assert dist == 0.0
        assert ediff == 0.0

    def test_susy_shift_constant_mass(self):
        mass = PowerLawMass(F(0))
        ordp = OrderingParam(F(0))
        h_plus = ladder_product(mass, ordp, "+")
        h_minus = ladder_product(mass, ordp, "-")
        g = Grid(-10.0, 10.0, 3000)
        e_plus = eigenvalues(assemble(h_plus, g), 5, g).eigenvalues
        e_minus = eigenvalues(assemble(h_minus, g), 5, g).eigenvalues
        for lo, hi in zip(e_plus, e_minus):
            assert hi - lo == pytest.approx(1.0, abs=1e-3)
        # and the interior spectra are the oscillator ladder 0, 1, 2, ...
        for n, ev in enumerate(e_plus):
            assert ev == pytest.approx(n, abs=1e-4)
