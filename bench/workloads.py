"""Seeded inputs for the three benchmark workloads, and the calls that run them.

A workload is a list of cases, built once from ``(workload, seed)``; a run
repeats that list as whole rounds.  Every input dimension is stratified over
the round (one draw per equal-width stratum, shuffled), so that two seeds give
rounds with the same mix of sizes and the per-run medians and tails depend on
the program rather than on the draw.

The program is called through module attributes (``algebra.expand_sandwich``,
``cli.run``), so a tracer that patches those attributes sees every call.  This
module imports only the standard library: the cold-start probe times it as part
of set-up.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("ordering-sweep", "fine-grid", "levels-deep")

# Mass exponents n of m(x) = x^n; 3 is the bubble, the rest exercise the
# general-n paths with non-integer exponents.
MASS_EXPONENTS = (Fraction(3), Fraction(5, 2), Fraction(7, 3), Fraction(2))
ORDERINGS_PER_N = 10
FINE_GRID_ROUND = 20
LEVELS_DEEP_ROUND = 40
LEVELS_PAIRING = 17  # prime to LEVELS_DEEP_ROUND
A_RANGE = (-1.0, 0.5)
MAX_DENOMINATOR = 24
RATIO_RANGE = (0.6, 0.95)
Z_MIN, Z_MAX = 0.05, 3.0


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``count`` equal strata of [lo, hi), shuffled."""
    width = (hi - lo) / count
    values = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(values)
    return values


def _int_strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """Stratified integers in [lo, hi]."""
    return [min(hi, int(v)) for v in _strata(rng, count, lo, hi + 1)]


def _orderings(rng: random.Random, count: int) -> list[Fraction]:
    """Ordering parameters a in A_RANGE with denominators spread over 2..24.

    The numerator is the integer nearest a * q that is prime to q, so that the
    fraction keeps the drawn denominator: the cost of exact arithmetic grows
    with it.
    """
    targets = _strata(rng, count, *A_RANGE)
    denominators = _int_strata(rng, count, 2, MAX_DENOMINATOR)
    values = []
    for x, q in zip(targets, denominators):
        p = round(x * q)
        p = min((c for c in (p, p + 1, p - 1, p + 2, p - 2) if gcd(c, q) == 1),
                key=lambda c: abs(c - x * q))
        values.append(Fraction(p, q))
    return values


def _balanced(rng: random.Random, count: int, choices: tuple) -> list:
    values = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(values)
    return values


@dataclass(frozen=True)
class OrderingResult:
    sandwich: object
    commutator: object
    partners: tuple  # PartnerPotential per (sign, source)
    restored: object
    gamma: Fraction
    hermiticity: object
    weyl: object
    match: object


@dataclass(frozen=True)
class OrderingCall:
    """The exact-layer chain for one mass exponent n and ordering a."""

    n: Fraction
    a: Fraction

    def run(self, lib) -> OrderingResult:
        mass = lib.algebra.PowerLawMass(self.n)
        ordp = lib.algebra.OrderingParam(self.a)
        sandwich = lib.algebra.expand_sandwich(mass, ordp)
        commutator = lib.susy.commutator_check(mass, ordp)
        sources = ("expanded", "paper") if self.n == 3 else ("expanded",)
        partners = tuple(
            lib.susy.partner_potential(mass, ordp, sign, source)
            for source in sources
            for sign in "+-"
        )
        cmap = lib.pointmass.pm_map(self.n)
        measure = lib.pointmass.measure_of_map(cmap)
        restored = lib.pointmass.unit_measure_restore(
            lib.pointmass.transform_diffop(sandwich, cmap), measure
        )
        gamma = lib.ordering.kinetic_family_coefficient(self.n, self.a)
        hermiticity = lib.weyl.hermiticity_check(sandwich)
        symbol = lib.parsing.parse_hamiltonian(f"p^2/x^({self.n})", {})
        weyl_op = lib.weyl.weyl_order(symbol)
        match = lib.ordering.match_orderings(self.n, weyl_op, "expanded")
        return OrderingResult(
            sandwich, commutator, partners, restored, gamma, hermiticity,
            weyl_op, match,
        )


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class CliCall:
    """One in-process ``pdmbubble`` command; ``argv`` is what a user would type."""

    command: str  # "spectrum" or "scan"
    a: Fraction
    source: str
    ratio: str
    points: int
    count: int
    argv: tuple

    @staticmethod
    def make(command, a, source, ratio, points, count=0) -> "CliCall":
        ratio = f"{ratio:.4f}"
        argv = [command, f"--a={a}", "--source", source,
                "--zmin", str(Z_MIN), "--zmax", str(Z_MAX),
                "--points", str(points)]
        if command == "spectrum":
            argv += ["--count", str(count), "--pressure-ratio", ratio]
        else:
            argv += ["--pressures", ratio]
        return CliCall(command, a, source, ratio, points, count, tuple(argv))

    def run(self, lib) -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        code = lib.cli.run(list(self.argv), out, err)
        return CliOutput(code, out.getvalue(), err.getvalue())


def make_cases(workload: str, seed: int) -> list[tuple]:
    """The round of cases for one workload and seed; each case is a tuple of
    calls timed together."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ordering-sweep":
        cases = [
            (OrderingCall(n, a),)
            for n in MASS_EXPONENTS
            for a in _orderings(rng, ORDERINGS_PER_N)
        ]
        rng.shuffle(cases)
        return cases
    if workload == "fine-grid":
        k = FINE_GRID_ROUND
        rows = zip(
            _orderings(rng, k), _balanced(rng, k, ("expanded", "paper")),
            _strata(rng, k, *RATIO_RANGE), _int_strata(rng, k, 8000, 11000),
            _balanced(rng, k, (1, 2, 3, 4, 5)),
        )
        return [
            (CliCall.make("spectrum", a, src, r, points, count),
             CliCall.make("scan", a, src, r, points))
            for a, src, r, points, count in rows
        ]
    if workload == "levels-deep":
        k = LEVELS_DEEP_ROUND
        # points x count sets a case's cost.  Pairing the sorted strata by a
        # fixed permutation keeps the spread of that product, and so the
        # round's tail, the same for every seed.
        points = sorted(_int_strata(rng, k, 2000, 4000))
        counts = sorted(_int_strata(rng, k, 30, 60))
        counts = [counts[(LEVELS_PAIRING * i) % k] for i in range(k)]
        rows = zip(
            _orderings(rng, k), _balanced(rng, k, ("expanded", "paper")),
            _strata(rng, k, *RATIO_RANGE), points, counts,
        )
        cases = [
            (CliCall.make("spectrum", a, src, r, n_points, count),)
            for a, src, r, n_points, count in rows
        ]
        rng.shuffle(cases)
        return cases
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def ready_calls(workload: str) -> list:
    """Tiny calls of each command a workload uses.  A cold start runs them
    before it counts as ready, so set-up that the program defers to its first
    call still lands in set-up time."""
    if workload == "ordering-sweep":
        return []
    calls = [CliCall.make("spectrum", Fraction(-1, 3), "expanded", 0.9, 3, 1)]
    if workload == "fine-grid":
        calls.append(CliCall.make("scan", Fraction(-1, 3), "expanded", 0.9, 3))
    return calls


class Library:
    """The program's modules, looked up by attribute at every call."""

    def __init__(self):
        from pdmbubble import (algebra, cli, helium, ordering, parsing,
                               pointmass, spectral, susy, weyl)

        self.algebra, self.cli, self.helium = algebra, cli, helium
        self.ordering, self.parsing, self.pointmass = ordering, parsing, pointmass
        self.spectral, self.susy, self.weyl = spectral, susy, weyl
