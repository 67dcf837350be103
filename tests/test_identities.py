"""Exact identities of the paper's construction, checked end to end.

Each identity is derived from the SUSY factorization and the point-mass map,
not from a line of the package, so a change that edits a formula and every
place that repeats it still fails here:

* the restored SUSY pair at n = 3 is the half-line oscillator
  -1/2 D^2 + 1/2 z^2 -+ 1/2 at every ordering, with levels 2k + 1 and
  2k + 2;
* the sandwich family is two-to-one in a: a and its mirror -(n + 1)/n - a
  give the same operator, so the CLI prints the same numbers at both;
* c_a + 1/4 is the square of a rational linear in a, for both sources.
"""

import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pdmbubble.algebra import (
    DiffOp,
    OrderingParam,
    PolyX,
    PowerLawMass,
    expand_sandwich,
)
from pdmbubble.cli import run
from pdmbubble.pointmass import (
    measure_of_map,
    pm_map,
    transform_diffop,
    unit_measure_restore,
)
from pdmbubble.spectral import Grid, assemble, eigenvalues
from pdmbubble.susy import inverse_square_coefficient, ladder_product

N3 = PowerLawMass(F(3))
TEST_A_VALUES = [F(-1), F(-1, 3), F(-1, 4), F(-1, 6), F(0), F(1, 2)]
#: The mirror of a at n = 3 for each source: expanded c_a is symmetric about
#: a = -2/3, paper's about a = 1/6.
MIRROR = {"expanded": lambda a: F(-4, 3) - a, "paper": lambda a: F(1, 3) - a}
#: c_a + 1/4 = (slope a + offset)^2 for each source.
SQUARE_ROOT = {"expanded": (F(12, 10), F(8, 10)), "paper": (F(12, 10), F(-2, 10))}


def restored_pair(a, sign: str) -> DiffOp:
    """H(sign) at n = 3 mapped to z and restored to unit measure."""
    cmap = pm_map(N3.n)
    op_z = transform_diffop(ladder_product(N3, OrderingParam(a), sign), cmap)
    return unit_measure_restore(op_z, measure_of_map(cmap))


def half_line_oscillator(shift) -> DiffOp:
    return DiffOp([(PolyX.const(F(-1, 2)), 2),
                   (PolyX([(F(1, 2), 2), (shift, 0)]), 0)])


@pytest.mark.parametrize("a", TEST_A_VALUES)
@pytest.mark.parametrize("sign, shift", [("+", F(-1, 2)), ("-", F(1, 2))])
def test_restored_pair_is_the_half_line_oscillator(a, sign, shift):
    # the a-dependent z^-2 terms of the kinetic half and of W^2 cancel
    assert restored_pair(a, sign) == half_line_oscillator(shift)


def test_restored_pair_levels_converge_at_second_order():
    # nu = 1/2, so the Dirichlet wall at z = 0 is exact: H+ has the odd
    # oscillator levels less 1/2, 2k + 1, and H- the same plus 1
    errors = {}
    for points in (2000, 4000):
        grid = Grid(0.0, 10.0, points)
        worst = 0.0
        for sign, first in (("+", 1), ("-", 2)):
            matrix = assemble(restored_pair(F(-1, 3), sign), grid)
            levels = eigenvalues(matrix, 4, grid).eigenvalues
            worst = max(worst, *(abs(ev - (first + 2 * k))
                                 for k, ev in enumerate(levels)))
        errors[points] = worst
    assert errors[4000] < 3e-5
    assert 3.5 < errors[2000] / errors[4000] < 4.5


@given(st.sampled_from([F(3), F(5, 2), F(7, 3), F(2), F(1)]),
       st.fractions(min_value=-2, max_value=2, max_denominator=12))
@settings(max_examples=40, deadline=None)
def test_sandwich_mirror(n, a):
    # the family depends on a only through ((n + 1)/2)^2 - (n a + (n + 1)/2)^2
    mirror = -(n + 1) / n - a
    assert expand_sandwich(PowerLawMass(n), OrderingParam(a)) == expand_sandwich(
        PowerLawMass(n), OrderingParam(mirror))


def stdout(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    assert run(list(argv), stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("source", ["expanded", "paper"])
@pytest.mark.parametrize("a", [F(-1, 3), F(7, 24), F(1, 2)])
def test_cli_prints_the_same_numbers_at_the_mirror(source, a):
    mirror = MIRROR[source](a)
    assert mirror != a
    for command, size in (("spectrum", ["--points", "300", "--count", "3"]),
                          ("scan", ["--points", "50"])):
        assert stdout(command, f"--a={a}", "--source", source, *size) == stdout(
            command, f"--a={mirror}", "--source", source, *size)


@pytest.mark.parametrize("source", ["expanded", "paper"])
@given(a=st.fractions(min_value=-3, max_value=3, max_denominator=48))
@settings(max_examples=40, deadline=None)
def test_inverse_square_coefficient_is_a_square_less_a_quarter(source, a):
    slope, offset = SQUARE_ROOT[source]
    assert inverse_square_coefficient(a, source) + F(1, 4) == (slope * a + offset) ** 2
