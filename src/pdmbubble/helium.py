"""Physical parameters for superheated liquid helium and derived scales.

Inputs are SI, given in code or read from a key=value parameter file by
``parse_params``; derived quantities include the critical radius, the barrier
and mass scales, the kinetic prefactor of the effective z-space Hamiltonian,
and thermal quantities.  ``potential_profile`` is the one place the potentials
of the effective z-space Hamiltonian, V_a = k c_a / z^2 and V_sys, are
computed, from a number c_a (nothing of the exact layer is imported) on the
``ZPowers`` of a z column, which ``z_powers`` checks.  Everything here is in
joules: the eV columns belong to ``cli`` and the row formatting to ``rows``.
The scalar scales need no numpy; the column functions import it on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Pinned constants (SI).
PLANCK_H = 6.62607015e-34       # J s
HBAR = PLANCK_H / (2.0 * math.pi)
K_B = 1.380649e-23              # J / K
HELIUM4_MASS = 6.6465e-27       # kg
EV = 1.602176634e-19            # J


class PhysicsError(ValueError):
    """Invalid or unsupported physical parameter combination."""


@dataclass(frozen=True)
class PhysicalParams:
    """Helium inputs: surface tension, vapor pressure, densities, applied
    pressure and temperature (all SI)."""

    sigma: float
    P_v: float
    rho_L: float
    T: float
    P: float = 0.0
    rho_v: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise PhysicsError(f"{f.name} must be finite")
        if self.sigma <= 0:
            raise PhysicsError("sigma must be positive")
        if self.rho_L <= 0:
            raise PhysicsError("rho_L must be positive")
        if self.T <= 0:
            raise PhysicsError("T must be positive")
        if not (0 <= self.rho_v < self.rho_L):
            raise PhysicsError("rho_v must satisfy 0 <= rho_v < rho_L")

    def with_pressure(self, P: float) -> "PhysicalParams":
        return replace(self, P=P)


def parse_params(text: str) -> PhysicalParams:
    """Parse a key=value parameter file (LF or CRLF, '#' comments).

    The keys are the PhysicalParams fields (SI units); each is required
    except rho_v, which defaults to 0.
    """
    keys = [f.name for f in fields(PhysicalParams)]
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value for {key}: {val.strip()!r}"
            ) from None
    for key in keys:
        if key not in values and key != "rho_v":
            raise ValueError(f"missing key {key}")
    return PhysicalParams(**values)


#: Typical superfluid helium values at T = 4 K.
DEFAULT_HE4 = PhysicalParams(sigma=0.12e-3, P_v=8.1445e4, rho_L=140.0, T=4.0)


@dataclass(frozen=True)
class DerivedParams:
    """Derived scales: critical radius, barrier/mass scales, kinetic
    prefactor k = hbar^2 / (2 M0 R_c^2), thermal quantities."""

    R_c: float       # m
    U0: float        # J
    M0: float        # kg
    k: float         # J
    Lambda: float    # m
    p_Th: float      # kg m / s
    P_i_at_Rc: float  # Pa


def _pow_or_inf(x: float, e: float) -> float:
    """x**e, or inf where Python's float pow raises OverflowError."""
    try:
        return x**e
    except OverflowError:
        return math.inf


def derived_params(p: PhysicalParams) -> DerivedParams:
    """All derived scales for a superheated state (requires P < P_v)."""
    if p.P >= p.P_v:
        raise PhysicsError(
            "no critical radius: applied pressure must be below P_v"
        )
    r_c = 2.0 * p.sigma / (p.P_v - p.P)
    r_c2 = _pow_or_inf(r_c, 2)
    u0 = 4.0 * math.pi * p.sigma * r_c2
    m0 = 4.0 * math.pi * (1.0 - p.rho_v / p.rho_L) ** 2 * p.rho_L * _pow_or_inf(r_c, 3)
    k_den = 2.0 * m0 * r_c2
    k = HBAR**2 / k_den if k_den > 0 else 0.0
    lam = PLANCK_H / math.sqrt(2.0 * math.pi * HELIUM4_MASS * K_B * p.T)
    d = DerivedParams(
        R_c=r_c,
        U0=u0,
        M0=m0,
        k=k,
        Lambda=lam,
        p_Th=PLANCK_H / lam,
        P_i_at_Rc=p.P + 2.0 * p.sigma / r_c,
    )
    for f in fields(d):
        if not math.isfinite(getattr(d, f.name)):
            raise PhysicsError(f"{f.name} out of float range")
    if k == 0:  # 2 M0 R_c^2 underflowed to 0, or overflowed and k underflowed
        raise PhysicsError("k out of float range")
    return d


def float_errors() -> np.errstate:
    """The numeric layer's float-error policy, a context for ``with``: column
    arithmetic overflows to inf and makes nan silently, as Python's float
    arithmetic does on one point, and a check refuses the result (z_powers a
    z out of range, potential_profile a V_sys, and in cli eigenvalues a
    non-finite matrix and _require_finite a printed column).  A new one per
    use, as numpy before 2.0 keeps an errstate's saved state on the object."""
    import numpy as np
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class ZPowers:
    """A column of z that z_powers accepted, every z in (0, inf) with z**2
    in the float range, and its powers z**2, z**0.8 and z**0.4 with the bits
    of Python's float pow; one instance serves every table on the same z."""

    z: np.ndarray
    z2: np.ndarray
    p08: np.ndarray
    p04: np.ndarray

    def __len__(self) -> int:  # the number of points, as for a z column
        return len(self.z)


def z_powers(zs) -> ZPowers:
    """z**2, z**0.8 and z**0.4 on a column of z (see ZPowers).  The first z
    in order that is not in (0, inf), or whose z**2 leaves the float range,
    is refused.  np.float_power's float64 loop calls the C library's pow, as
    Python's float ``**`` does, so each power has the one-point bits; numpy's
    own ``**`` loop differs from it in the last bit at some points."""
    import numpy as np
    with float_errors():
        z = np.asarray(zs, dtype=float)
        z2 = np.float_power(z, 2)
        ok = (0 < z) & (z < math.inf) & (0 < z2) & (z2 < math.inf)
        if not ok.all():
            x = float(z[np.argmin(ok)])
            if not 0 < x < math.inf:
                why = "z > 0" if x <= 0 else "finite z"
                raise PhysicsError(f"inverse-square potential requires {why}")
            raise PhysicsError(
                f"inverse-square potential: z**2 out of float range at z = {x:g}"
            )
        return ZPowers(z, z2, np.float_power(z, 0.8), np.float_power(z, 0.4))


def potential_profile(c_a, dp: DerivedParams,
                      p: ZPowers) -> tuple[np.ndarray, np.ndarray]:
    """V_a = k c_a / z^2 and V_sys = U0 z^{4/5} (1 - z^{2/5}) (J) on the z
    column of p, the potentials of the constant-mass Hamiltonian
    -k d^2/dz^2 + k c_a / z^2 + V_sys(z).  c_a is a number (the exact layer's
    ``susy.inverse_square_coefficient`` gives it for an ordering); a c_a, and
    then the first V_sys, out of the float range is refused."""
    import numpy as np
    with float_errors():
        try:
            c_a = float(c_a)
        except OverflowError:
            raise PhysicsError(
                "inverse-square potential: c_a out of float range"
            ) from None
        v_a = (dp.k * c_a) / p.z2
        # + 0.0: an underflowed U0 = 0 gives -0.0 at z > 1, printed as 0.0
        v_sys = dp.U0 * p.p08 * (1.0 - p.p04) + 0.0
        ok = np.isfinite(v_sys)
        if not ok.all():
            x = float(p.z[np.argmin(ok)])
            raise PhysicsError(f"v_sys out of float range at z = {x:g}")
        return v_a, v_sys


def barrier_info(dp: DerivedParams, c0: float = 0.0) -> tuple[float, float]:
    """Stationary point of V_sys alone: z* = (2/3)^{5/2}, V* = c0 + (4/27) U0."""
    if dp.U0 <= 0:
        raise PhysicsError("barrier requires U0 > 0")
    z_star = (2.0 / 3.0) ** 2.5
    return z_star, c0 + 4.0 / 27.0 * dp.U0
