"""Command-line front door: JSON for structured results, CSV for tables.

Exit codes: 0 success, 1 usage error, 2 domain error.  All error paths emit
a single line ``error: <code>: <message>`` on stderr.  Outputs are
deterministic: fixed 12-significant-digit scientific notation, LF endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Coeff,
    OrderingParam,
    PowerLawMass,
    expand_sandwich,
)
from .helium import (
    DEFAULT_HE4,
    EV,
    PhysicsError,
    barrier_info,
    derived_params,
    effective_hamiltonian_z,
    potential_profile,
)
from .ordering import MatchError, match_orderings, named_orderings
from .parsing import ParseError, parse_hamiltonian, parse_params
from .pointmass import (
    TransformError,
    measure_of_map,
    pm_map,
    transform_diffop,
    unit_measure_restore,
)
from .spectral import AssembleError, Grid, assemble, eigenvalues
from .susy import (
    commutator_check,
    inverse_square_coefficient,
    ladder_operator,
    normalize_source,
    partner_potential,
    superpotential,
    z_space_operator,
)
from .weyl import UnsupportedDegreeError, hermiticity_check, weyl_order

DOMAIN_ERRORS = (
    AlgebraError,
    AssembleError,
    MatchError,
    ParseError,
    PhysicsError,
    TransformError,
    UnsupportedDegreeError,
    ValueError,
    ZeroDivisionError,
)


#: Upper bound on --points for spectrum and scan: the grid, the matrix and
#: the table rows are all held in memory.
MAX_POINTS = 10**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _field_strings(obj, fmt) -> dict:
    """Every dataclass field of obj, formatted by fmt, keyed by field name."""
    return {f.name: fmt(getattr(obj, f.name)) for f in fields(obj)}


def _check_points(points: int) -> None:
    if points > MAX_POINTS:
        raise ValueError(f"--points must be at most {MAX_POINTS}")


def _emit_json(data, out) -> None:
    out.write(json.dumps(data, sort_keys=True, indent=2))
    out.write("\n")


def _load_params(args):
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            params = parse_params(fh.read())
    else:
        params = DEFAULT_HE4
    ratio = getattr(args, "pressure_ratio", None)
    if ratio is not None:
        params = params.with_pressure(ratio * params.P_v)
    return params


def _bindings(args) -> dict:
    bindings = {"M0": Coeff.of(1), "U0": Coeff.of(1)}
    for item in getattr(args, "bind", None) or []:
        name, _, value = item.partition("=")
        try:
            rational = _fraction(value)
        except argparse.ArgumentTypeError:
            rational = None
        if not name or rational is None:
            raise UsageError(f"bad binding {item!r}; expected NAME=RATIONAL")
        bindings[name] = Coeff.of(rational)
    return bindings


# ---------------------------------------------------------------- commands


def _cmd_params(args, out) -> int:
    p = _load_params(args)
    d = derived_params(p)
    z_star, v_star = barrier_info(d)
    data = {
        "inputs": _field_strings(p, _fmt),
        **_field_strings(d, _fmt),
        "sqrt_U0_M0": _fmt((d.U0 * d.M0) ** 0.5),
        "barrier": {"z_star": _fmt(z_star), "V_star": _fmt(v_star)},
    }
    _emit_json(data, out)
    return 0


def _cmd_weyl(args, out) -> int:
    sym = parse_hamiltonian(args.hamiltonian, _bindings(args))
    op = weyl_order(sym)
    report = hermiticity_check(op)
    _emit_json(
        {"operator": op.to_jsonable(), "hermiticity": report.to_jsonable()},
        out,
    )
    return 0


def _cmd_susy(args, out) -> int:
    source = normalize_source(args.source)
    mass = PowerLawMass(Fraction(3))
    ordp = OrderingParam(args.a)
    w = superpotential(mass, ordp)
    v_plus = partner_potential(mass, ordp, "+", source)
    v_minus = partner_potential(mass, ordp, "-", source)
    a_minus = ladder_operator(mass, ordp, "-")
    data = {
        "a": str(ordp.a),
        "b": str(ordp.b),
        "source": source,
        "paper_source_available": True,
        "W": w.W.to_jsonable(),
        "V_plus": v_plus.V.to_jsonable(),
        "V_minus": v_minus.V.to_jsonable(),
        "c_a": str(inverse_square_coefficient(ordp.a, source)),
        "checks": {
            "commutator_zero": commutator_check(mass, ordp).is_zero(),
            "sum_is_multiplication": (a_minus.adjoint() + a_minus).order == 0,
        },
    }
    _emit_json(data, out)
    return 0


def _cmd_transform(args, out) -> int:
    if args.pipeline == "transform-first":
        raise TransformError(
            "transform-first pipeline refused: quantize, then transform "
            "(the inverse-square term would be lost)"
        )
    mass = PowerLawMass(Fraction(3))
    ordp = OrderingParam(args.a)
    op_x = expand_sandwich(mass, ordp)
    cmap = pm_map(mass.n)
    mu = measure_of_map(cmap)
    op_z = transform_diffop(op_x, cmap)
    restored = unit_measure_restore(op_z, mu)
    data = {
        "a": str(ordp.a),
        "map": _field_strings(cmap, str),
        "measure": _field_strings(mu, str),
        "operator_x": op_x.to_jsonable(),
        "operator_z": op_z.to_jsonable(),
        "operator_z_unit_measure": restored.to_jsonable(),
    }
    _emit_json(data, out)
    return 0


def _cmd_match(args, out) -> int:
    mass = PowerLawMass(Fraction(3))
    sym = parse_hamiltonian("p^2/x^3", {})
    target = weyl_order(sym)
    solution = match_orderings(mass.n, target, args.source)
    data = solution.to_jsonable()
    data["named_orderings"] = [
        {"label": label, "equals_weyl": op == target}
        for label, op in named_orderings(mass.n)
    ]
    _emit_json(data, out)
    return 0


def _physical_matrix(args, eff, grid):
    # symbolic z-operator carries k = 1/2; rescale to the physical k
    op = z_space_operator(OrderingParam(args.a), args.source)
    return assemble(op, grid, potential=eff.v_sys, scale=2.0 * eff.kinetic_prefactor)


def _cmd_spectrum(args, out) -> int:
    _check_points(args.points)
    params = _load_params(args)
    d = derived_params(params)
    eff = effective_hamiltonian_z(OrderingParam(args.a), d, args.source)
    grid = Grid(args.zmin, args.zmax, args.points)
    matrix = _physical_matrix(args, eff, grid)
    result = eigenvalues(matrix, args.count, grid)
    out.write("index,eigenvalue_J,eigenvalue_eV\n")
    for i, ev in enumerate(result.eigenvalues):
        out.write(f"{i},{_fmt(ev)},{_fmt(ev / EV)}\n")
    return 0


def _cmd_scan(args, out) -> int:
    _check_points(args.points)
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    base = _load_params(args)
    ratios = sorted(float(r) for r in args.pressures.split(","))
    zs = [
        args.zmin + i * (args.zmax - args.zmin) / (args.points - 1)
        for i in range(args.points)
    ]
    # every ratio is validated before the first line is written
    states = [
        (ratio, derived_params(base.with_pressure(ratio * base.P_v)))
        for ratio in ratios
    ]
    for i, (ratio, d) in enumerate(states):
        rows = potential_profile(args.a, d, zs, args.source)
        if i == 0:
            # the z grid is shared, so the first table has validated every z
            out.write("pressure_ratio,z,V_a_eV,V_sys_eV,V_total_eV\n")
        for row in rows:
            out.write(
                f"{_fmt(ratio)},{_fmt(row.z)},{_fmt(row.V_a_eV)},"
                f"{_fmt(row.V_sys_eV)},{_fmt(row.V_total_eV)}\n"
            )
        del rows  # one table in memory at a time
    return 0


# ------------------------------------------------------------------ wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdmbubble", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="parameter file (key=value lines)")
        p.add_argument(
            "--pressure-ratio",
            type=float,
            default=None,
            help="set applied pressure to RATIO * P_v",
        )

    p = sub.add_parser("params", help="derived helium parameters as JSON")
    add_config(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("weyl", help="Weyl-order a classical Hamiltonian")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--bind", action="append", metavar="NAME=RATIONAL")
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("susy", help="superpotential, partner potentials, c_a")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--source", default="expanded")
    p.set_defaults(func=_cmd_susy)

    p = sub.add_parser("transform", help="point-mass transform of the sandwich")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument(
        "--pipeline",
        choices=["quantize-first", "transform-first"],
        default="quantize-first",
    )
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("match", help="orderings matching the Weyl operator")
    p.add_argument("--source", default="expanded")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("spectrum", help="finite-domain eigenvalues as CSV")
    p.add_argument("--a", type=_fraction, required=True)
    p.add_argument("--source", default="expanded")
    p.add_argument("--zmin", type=float, default=0.05)
    p.add_argument("--zmax", type=float, default=3.0)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--count", type=int, default=5)
    add_config(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scan", help="potential curves over pressure as CSV")
    p.add_argument("--pressures", default="0.8,0.95", help="comma list of P/P_v")
    p.add_argument("--a", type=_fraction, default=Fraction(-1, 3))
    p.add_argument("--source", default="expanded")
    p.add_argument("--zmin", type=float, default=0.05)
    p.add_argument("--zmax", type=float, default=3.0)
    p.add_argument("--points", type=int, default=200)
    add_config(p)
    p.set_defaults(func=_cmd_scan)

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        err.write(f"error: usage: {exc}\n")
        return 1
    try:
        return args.func(args, out)
    except UsageError as exc:
        err.write(f"error: usage: {exc}\n")
        return 1
    except DOMAIN_ERRORS as exc:
        err.write(f"error: domain: {exc}\n")
        return 2
    except OSError as exc:
        err.write(f"error: io: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
