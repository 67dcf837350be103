"""Correctness checks for every benchmark case.

Each check compares the program's output with a computation made here, apart
from the program, or with a property the method must have.  None compares with
a stored copy of earlier output.  A check returns a list of error strings; an
empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import Z_MAX, Z_MIN, CliCall, CliOutput, OrderingCall

# SI constants and the default helium-4 state, restated here so that the
# numeric checks share no code with pdmbubble.helium.
PLANCK_H = 6.62607015e-34
HBAR = PLANCK_H / (2.0 * math.pi)
EV = 1.602176634e-19
SIGMA, P_V, RHO_L, RHO_V = 0.12e-3, 8.1445e4, 140.0, 0.0

# Eigenvalues must agree to 1e-10 relative, just above the 5e-12 rounding of
# the 12 printed digits.
EIGEN_RTOL = 1e-10
PRINT_RTOL = 1e-10
FLOAT_ROOT_TOL = 1e-12


# ------------------------------------------------------------ exact layer


def _entries(op) -> dict:
    """{(derivative order, exponent): (a, b, c, d)} of a normal-ordered DiffOp."""
    return {
        (k, e): (c.a, c.b, c.c, c.d)
        for poly, k in op.terms
        for c, e in poly.terms
    }


def _rational(value: Fraction) -> tuple:
    return (Fraction(value), Fraction(0), Fraction(0), Fraction(0))


def c_a(a, source: str) -> Fraction:
    """Inverse-square coefficient of the z-space operator, from the paper's
    two closed forms."""
    a = Fraction(a)
    if source == "paper":
        return -(21 + 48 * a - 144 * a * a) / Fraction(100)
    return (144 * a * a + 192 * a + 39) / Fraction(100)


def matching_quadratic(n: Fraction, a) -> object:
    """n^2 a^2 + n(n+1) a + n(n+1)/4, zero at the orderings that give Weyl."""
    return n * n * a * a + n * (n + 1) * a + n * (n + 1) / 4


def check_ordering(call: OrderingCall, r) -> list[str]:
    n, a = call.n, call.a
    errors = []
    if _entries(r.commutator):
        errors.append("[A-, A+] - 1 is not the zero operator")
    gamma = -n * a * (n * a + n + 1)
    if r.gamma != gamma:
        errors.append(f"gamma read off {r.gamma} != -n a (n a + n + 1) = {gamma}")
    if r.hermiticity.passes is not True:
        errors.append("sandwich fails the Hermiticity check")
    for partner in r.partners:
        if any(c.c or c.d for c, _ in partner.V.terms):
            errors.append(f"partner potential V{partner.sign} "
                          f"({partner.source}) is not real")
    restored = _entries(r.restored)
    if any(k == 1 for k, _ in restored):
        errors.append("restored z-operator keeps a D term")
    second = {key: v for key, v in restored.items() if key[0] == 2}
    if second != {(2, Fraction(0)): _rational(Fraction(-1, 2))}:
        errors.append(f"restored second-order coefficient {second} != -1/2")
    if n == 3:
        got = restored.get((0, Fraction(-2)), _rational(0))
        if got != _rational(c_a(a, "expanded") / 2):
            errors.append(f"restored z^-2 coefficient {got} != c_a/2")
    weyl = {
        (2, -n): _rational(-1),
        (1, -n - 1): _rational(n),
        (0, -n - 2): _rational(-n * (n + 1) / 4),
    }
    if _entries(r.weyl) != weyl:
        errors.append("Weyl order of p^2/x^n differs from -[f D^2 + f' D + f''/4]")
    roots = r.match.roots
    if len(roots) != 2:
        errors.append(f"{len(roots)} matching roots, expected 2")
    for root in roots:
        if root.exact:
            if matching_quadratic(n, root.a) != 0:
                errors.append(f"exact root {root.a} does not solve the quadratic")
            if root.verified is not True:
                errors.append(f"exact root {root.a} is not verified")
        else:
            x, nf = float(root.a), float(n)
            size = nf * nf * x * x + abs(nf * (nf + 1) * x) + nf * (nf + 1) / 4
            if abs(float(matching_quadratic(nf, x))) > FLOAT_ROOT_TOL * size:
                errors.append(f"float root {root.a!r} does not solve the quadratic")
    return errors


# ------------------------------------------------------------ numeric layer


def scales(ratio: float) -> tuple[float, float]:
    """(k, U0) in joules for the default helium state at P = ratio * P_v."""
    r_c = 2.0 * SIGMA / (P_V - ratio * P_V)
    u0 = 4.0 * math.pi * SIGMA * r_c**2
    m0 = 4.0 * math.pi * (1.0 - RHO_V / RHO_L) ** 2 * RHO_L * r_c**3
    return HBAR**2 / (2.0 * m0 * r_c**2), u0


def _table(text: str, header: str, columns: int):
    """The CSV body as a float array, or None if it is not header + rows of
    ``columns`` fields, LF-terminated."""
    import numpy as np

    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        return None
    body = lines[1:-1]
    if any(line.count(",") != columns - 1 for line in body):
        return None
    fields = ",".join(body).split(",") if body else []
    return np.array(fields, dtype=float).reshape(len(body), columns)


def _close(got, want, rtol, floor=0.0) -> bool:
    import numpy as np

    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + floor))


def discretization(call: CliCall):
    """(diagonal, off-diagonal) of the 3-point, Dirichlet discretization of
    -k D^2 + k c_a / z^2 + U0 z^(4/5) (1 - z^(2/5)), built here with numpy."""
    import numpy as np

    k, u0 = scales(float(call.ratio))
    h = (Z_MAX - Z_MIN) / (call.points + 1)
    z = Z_MIN + h * np.arange(1, call.points + 1)
    diag = 2.0 * k / h**2 + k * float(c_a(call.a, call.source)) / z**2
    diag += u0 * z**0.8 * (1.0 - z**0.4)
    return diag, np.full(call.points - 1, -k / h**2)


def reference_levels(call: CliCall):
    """Lowest eigenvalues of the matrix built here, from LAPACK's banded
    driver (dsbevx) rather than the program's tridiagonal one (dstebz).
    scipy's MRRR (stemr) wrapper is not used: it allocates an N x N
    eigenvector array even for eigenvalues only."""
    import numpy as np
    from scipy.linalg import eigvals_banded

    diag, off = discretization(call)
    band = np.vstack([np.concatenate([[0.0], off]), diag])
    return eigvals_banded(band, select="i", select_range=(0, call.count - 1))


def check_spectrum(call: CliCall, out: CliOutput) -> list[str]:
    import numpy as np

    table = _table(out.stdout, "index,eigenvalue_J,eigenvalue_eV", 3)
    if table is None:
        return ["spectrum output is not the expected CSV"]
    if len(table) != call.count:
        return [f"{len(table)} eigenvalues printed, {call.count} requested"]
    errors = []
    if not np.array_equal(table[:, 0], np.arange(call.count)):
        errors.append("eigenvalue indices are not 0..count-1")
    got, want = table[:, 1], reference_levels(call)
    if not _close(got, want, EIGEN_RTOL):
        worst = float(np.max(np.abs(got - want) / np.abs(want)))
        errors.append(f"eigenvalues differ from the dsbevx reference by {worst:.2e}")
    if not _close(table[:, 2], got / EV, PRINT_RTOL):
        errors.append("eV column is not eigenvalue_J / eV")
    return errors


def check_scan(call: CliCall, out: CliOutput) -> list[str]:
    import numpy as np

    table = _table(out.stdout, "pressure_ratio,z,V_a_eV,V_sys_eV,V_total_eV", 5)
    if table is None:
        return ["scan output is not the expected CSV"]
    if len(table) != call.points:
        return [f"{len(table)} scan rows, {call.points} requested"]
    k, u0 = scales(float(call.ratio))
    z = Z_MIN + np.arange(call.points) * (Z_MAX - Z_MIN) / (call.points - 1)
    v_a = k * float(c_a(call.a, call.source)) / z**2 / EV
    v_sys = u0 * z**0.8 * (1.0 - z**0.4) / EV
    floor = PRINT_RTOL * float(np.max(np.abs(v_sys)))
    errors = []
    if not _close(table[:, 0], float(call.ratio), PRINT_RTOL):
        errors.append("pressure_ratio column differs from the request")
    if not _close(table[:, 1], z, PRINT_RTOL):
        errors.append("z column differs from the uniform grid")
    if not _close(table[:, 2], v_a, PRINT_RTOL):
        errors.append("V_a column differs from k c_a / z^2")
    if not _close(table[:, 3], v_sys, PRINT_RTOL, floor):
        errors.append("V_sys column differs from U0 z^(4/5) (1 - z^(2/5))")
    if not _close(table[:, 4], v_a + v_sys, PRINT_RTOL, floor):
        errors.append("V_total column differs from V_a + V_sys")
    return errors


def check(call, output) -> list[str]:
    """Errors in one call's output; a failed CLI call is reported by the
    caller, not here."""
    if isinstance(call, OrderingCall):
        return check_ordering(call, output)
    if call.command == "spectrum":
        return check_spectrum(call, output)
    return check_scan(call, output)
