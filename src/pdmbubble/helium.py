"""Physical parameters for superheated liquid helium and derived scales.

Inputs are SI; derived quantities include the critical radius, the barrier
and mass scales, the kinetic prefactor of the effective z-space Hamiltonian,
and thermal quantities.  The effective z-space Hamiltonian in joules, with
its potentials V_a and V_sys, is defined here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields
from fractions import Fraction

from .algebra import OrderingParam
from .susy import inverse_square_coefficient, normalize_source

# Pinned constants (SI).
PLANCK_H = 6.62607015e-34       # J s
HBAR = PLANCK_H / (2.0 * math.pi)
K_B = 1.380649e-23              # J / K
HELIUM4_MASS = 6.6465e-27       # kg
EV = 1.602176634e-19            # J


class PhysicsError(Exception):
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
        return PhysicalParams(
            sigma=self.sigma,
            P_v=self.P_v,
            rho_L=self.rho_L,
            T=self.T,
            P=P,
            rho_v=self.rho_v,
        )


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

    def as_dict(self) -> dict:
        return asdict(self)


def derived_params(p: PhysicalParams) -> DerivedParams:
    """All derived scales for a superheated state (requires P < P_v)."""
    if p.P >= p.P_v:
        raise PhysicsError(
            "no critical radius: applied pressure must be below P_v"
        )
    r_c = 2.0 * p.sigma / (p.P_v - p.P)
    u0 = 4.0 * math.pi * p.sigma * r_c**2
    m0 = 4.0 * math.pi * (1.0 - p.rho_v / p.rho_L) ** 2 * p.rho_L * r_c**3
    k = HBAR**2 / (2.0 * m0 * r_c**2)
    lam = PLANCK_H / math.sqrt(2.0 * math.pi * HELIUM4_MASS * K_B * p.T)
    return DerivedParams(
        R_c=r_c,
        U0=u0,
        M0=m0,
        k=k,
        Lambda=lam,
        p_Th=PLANCK_H / lam,
        P_i_at_Rc=p.P + 2.0 * p.sigma / r_c,
    )


def _bad_z(name: str, z: float) -> str:
    return f"{name} requires z > 0" if z <= 0 else f"{name} requires finite z"


@dataclass(frozen=True)
class EffectiveHamiltonianZ:
    """Constant-mass Hamiltonian in z: -k d^2/dz^2 + k c_a / z^2 + V_sys(z),
    with V_sys = U0 z^{4/5} (1 - z^{2/5}) + c0."""

    kinetic_prefactor: float  # k = hbar^2 / (2 M0 R_c^2), J
    c_a: Fraction
    U0: float                 # J
    c0: float                 # J
    a: Fraction
    source: str

    def v_a(self, z: float) -> float:
        """Ordering-dependent inverse-square potential k c_a / z^2 (J)."""
        if not 0 < z < math.inf:
            raise PhysicsError(_bad_z("inverse-square potential", z))
        return self.kinetic_prefactor * float(self.c_a) / z**2

    def v_sys(self, z: float) -> float:
        """System potential U0 z^{4/5} (1 - z^{2/5}) + c0 (J)."""
        if not 0 < z < math.inf:
            raise PhysicsError(_bad_z("v_sys", z))
        return self.U0 * z**0.8 * (1.0 - z**0.4) + self.c0


def effective_hamiltonian_z(
    ord: OrderingParam, params: DerivedParams, source: str, c0: float = 0.0
) -> EffectiveHamiltonianZ:
    """Effective z-space Hamiltonian for the n = 3 bubble problem, with k and
    U0 in joules from params."""
    return EffectiveHamiltonianZ(
        kinetic_prefactor=params.k,
        c_a=inverse_square_coefficient(ord.a, source),
        U0=params.U0,
        c0=c0,
        a=ord.a,
        source=normalize_source(source),
    )


@dataclass(frozen=True)
class ProfileRow:
    z: float
    V_a_J: float
    V_sys_J: float
    V_total_J: float

    @property
    def V_a_eV(self) -> float:
        return self.V_a_J / EV

    @property
    def V_sys_eV(self) -> float:
        return self.V_sys_J / EV

    @property
    def V_total_eV(self) -> float:
        return self.V_total_J / EV


def potential_profile(a, dp: DerivedParams, z_grid, source: str,
                      c0: float = 0.0) -> list[ProfileRow]:
    """Tabulate V_a, V_sys and their sum over a z grid (z > 0 throughout)."""
    eff = effective_hamiltonian_z(OrderingParam(a), dp, source, c0)
    rows = []
    for z in z_grid:
        va = eff.v_a(z)
        vs = eff.v_sys(z)
        rows.append(ProfileRow(z=z, V_a_J=va, V_sys_J=vs, V_total_J=va + vs))
    return rows


def barrier_info(dp: DerivedParams, c0: float = 0.0) -> tuple[float, float]:
    """Stationary point of V_sys alone: z* = (2/3)^{5/2}, V* = c0 + (4/27) U0."""
    if dp.U0 <= 0:
        raise PhysicsError("barrier requires U0 > 0")
    z_star = (2.0 / 3.0) ** 2.5
    return z_star, c0 + 4.0 / 27.0 * dp.U0
