"""Command-line front door: JSON for structured results, CSV for tables.

Exit codes: 0 success, 1 usage error, 2 domain error.  All error paths emit
a single line ``error: <code>: <message>`` on stderr.  Outputs are
deterministic: fixed 12-significant-digit scientific notation, LF endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from fractions import Fraction

from . import NUMBER
from .algebra import Coeff, OrderingParam, PowerLawMass, expand_sandwich
from .helium import (
    DEFAULT_HE4,
    EV,
    PhysicsError,
    barrier_info,
    derived_params,
    float_errors,
    parse_params,
    potential_profile,
    z_powers,
)
from .ordering import match_orderings, named_orderings
from .parsing import (
    MAX_DIGITS,
    NAME_RE,
    literal_past_bounds,
    parse_hamiltonian,
    polys_past_bound,
    rational_past_bound,
)
from .pointmass import (
    TransformError,
    measure_of_map,
    pm_map,
    transform_diffop,
    unit_measure_restore,
)
from .spectral import Grid, check_count, check_range, eigenvalues, stencil
from .susy import (
    commutator_check,
    factorize,
    inverse_square_coefficient,
    normalize_source,
    partner_potential,
)
from .weyl import hermiticity_check, weyl_order

#: What a command may raise on bad input: every error class the package
#: defines subclasses ValueError, except UsageError, which exits 1.
DOMAIN_ERRORS = (ValueError, ZeroDivisionError)


#: Upper bound on --points for spectrum and scan: the grid, the matrix and
#: the potential columns are all held in memory.
MAX_POINTS = 10**6

#: Upper bound on --points times --count for spectrum: the eigen-solve
#: bisects once per level over the whole grid, so its work grows with
#: that product.  It is judged after the grid and the count are valid.
MAX_SOLVE_WORK = 1 << 23

#: Most characters of a --config file read: a longer one is refused.
MAX_CONFIG_CHARS = 1 << 20

#: Rows of a spectrum or scan table formatted per write: the text held in
#: memory stays bounded whatever --points or --count is.
SCAN_CHUNK = 4096

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return NUMBER % x


def _fraction(text: str) -> Fraction:
    # --a is squared, then printed: at most MAX_DIGITS // 2 digits a part
    past = literal_past_bounds(text)
    if past:
        raise argparse.ArgumentTypeError("expected %s, found %s" % past)
    try:
        a = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    if max(abs(a.numerator), a.denominator) >= 10 ** (MAX_DIGITS // 2):
        raise argparse.ArgumentTypeError(
            f"expected at most {MAX_DIGITS // 2} digits a part, found more")
    return a


def _field_strings(obj, fmt) -> dict:
    """Every dataclass field of obj, formatted by fmt, keyed by field name."""
    return {f.name: fmt(getattr(obj, f.name)) for f in fields(obj)}


def _check_points(points: int) -> None:
    if points > MAX_POINTS:
        raise ValueError(f"--points must be at most {MAX_POINTS}")


def _check_solve_work(points: int, count: int) -> None:
    if points * count > MAX_SOLVE_WORK:
        raise ValueError(f"--points times --count must be at most "
                         f"{MAX_SOLVE_WORK}, found {points * count}")


def _require_finite(**columns) -> None:
    """Refuse to print a column with a value outside the float range."""
    import numpy as np
    for name, column in columns.items():
        if not np.isfinite(column).all():
            raise PhysicsError(f"{name} out of float range")


def _write_rows(out, columns, prefix: str = "") -> None:
    """One CSV line per row of the columns, prefix first (see
    ``rows.format_rows``), SCAN_CHUNK rows per write."""
    from .rows import format_rows  # its digit tables are built with numpy
    for start in range(0, len(columns[0]), SCAN_CHUNK):
        out.write(format_rows([c[start:start + SCAN_CHUNK] for c in columns],
                              prefix))


def _emit_json(data, out) -> None:
    out.write(json.dumps(data, sort_keys=True, indent=2))
    out.write("\n")


def _load_params(args):
    if args.config:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            text = fh.read(MAX_CONFIG_CHARS + 1)
        if len(text) > MAX_CONFIG_CHARS:
            raise ValueError(
                f"--config: expected a file of at most {MAX_CONFIG_CHARS} "
                "characters, found more")
        params = parse_params(text)
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
        if name in ("x", "p") or not NAME_RE.fullmatch(name):
            raise UsageError(f"--bind: expected a name matching {NAME_RE.pattern}"
                             f" other than x and p, found {name!r}")
        past = literal_past_bounds(value)
        if not past:
            try:
                r = Fraction(value)
            except (ValueError, ZeroDivisionError):
                r = None
            if r is None:
                raise UsageError(f"bad binding {item!r}; expected NAME=RATIONAL")
            past = rational_past_bound(r)
        if past:
            raise UsageError(f"--bind {name}: expected %s, found %s" % past)
        bindings[name] = Coeff.of(r)
    return bindings


# ---------------------------------------------------------------- commands

def _cmd_params(args, out) -> int:
    p = _load_params(args)
    d = derived_params(p)
    z_star, v_star = barrier_info(d)
    root = (d.U0 * d.M0) ** 0.5
    if not 0 < root < math.inf:  # the product over- or underflows
        raise PhysicsError("sqrt_U0_M0 out of float range")
    data = {
        "inputs": _field_strings(p, _fmt),
        **_field_strings(d, _fmt),
        "sqrt_U0_M0": _fmt(root),
        "barrier": {"z_star": _fmt(z_star), "V_star": _fmt(v_star)},
    }
    _emit_json(data, out)
    return 0


def _cmd_weyl(args, out) -> int:
    sym = parse_hamiltonian(args.hamiltonian, _bindings(args))
    op = weyl_order(sym)
    # D^2 past f(x) multiplies a coefficient by two exponents, so a part may
    # pass the parser's bound, and Python prints no int that long
    past = polys_past_bound(poly for poly, _ in op.terms)
    if past:
        raise ValueError("Weyl operator: expected %s, found %s" % past)
    report = hermiticity_check(op)
    _emit_json(
        {"operator": op.to_jsonable(), "hermiticity": report.to_jsonable()},
        out,
    )
    return 0


def _cmd_susy(args, out) -> int:
    source = normalize_source(args.source)
    mass, ordp = PowerLawMass(Fraction(3)), OrderingParam(args.a)
    susy = factorize(mass, ordp)  # the readers below share this build
    data = {
        "a": str(ordp.a),
        "b": str(ordp.b),
        "source": source,
        "paper_source_available": True,
        "W": susy.W.to_jsonable(),
        "V_plus": partner_potential(mass, ordp, "+", source).V.to_jsonable(),
        "V_minus": partner_potential(mass, ordp, "-", source).V.to_jsonable(),
        "c_a": str(inverse_square_coefficient(ordp.a, source)),
        "checks": {
            "commutator_zero": commutator_check(mass, ordp).is_zero(),
            "sum_is_multiplication": (susy.plus + susy.minus).order == 0,
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


def _cmd_spectrum(args, out) -> int:
    import numpy as np
    with float_errors():
        # the grid and the count come first: nothing is built for a solve
        # that cannot run
        _check_points(args.points)
        grid = Grid(args.zmin, args.zmax, args.points)
        check_count(args.count, grid.points)
        _check_solve_work(args.points, args.count)
        d = derived_params(_load_params(args))
        c_a = inverse_square_coefficient(args.a, args.source)
        # The columns come before the stencil, so the z**2 check fires before
        # h**2 (h < the largest z) can overflow; the diagonal is
        # (2k/h^2 + V_a) + V_sys.
        v_a, v_sys = potential_profile(c_a, d, z_powers(grid.interior))
        matrix = stencil(-d.k, grid, v_a, v_sys)
        levels = np.array(eigenvalues(matrix, args.count, grid).eigenvalues)
        levels_eV = levels / EV
        _require_finite(eigenvalue_J=levels, eigenvalue_eV=levels_eV)
        out.write("index,eigenvalue_J,eigenvalue_eV\n")
        _write_rows(out, (np.arange(len(levels)), levels, levels_eV))
        return 0


def _cmd_scan(args, out) -> int:
    import numpy as np
    with float_errors():
        _check_points(args.points)
        if args.points < 2:
            raise ValueError("--points must be at least 2")
        check_range(args.zmin, args.zmax)
        base = _load_params(args)
        ratios = sorted(float(r) for r in args.pressures.split(","))
        # the same float operations, in the same order, as
        # zmin + i * (zmax - zmin) / (points - 1) on Python floats
        zs = args.zmin + np.arange(args.points) * (args.zmax - args.zmin) / (
            args.points - 1)
        # every ratio is validated before the first line is written
        states = [
            (ratio, derived_params(base.with_pressure(ratio * base.P_v)))
            for ratio in ratios
        ]
        c_a = inverse_square_coefficient(args.a, args.source)
        powers = z_powers(zs)  # the same for every table

        def table(d):
            v_a, v_sys = potential_profile(c_a, d, powers)
            columns = (powers.z, v_a / EV, v_sys / EV, (v_a + v_sys) / EV)
            _require_finite(V_a_eV=columns[1], V_sys_eV=columns[2],
                            V_total_eV=columns[3])
            return columns

        # every table is checked before the header; the first is checked last
        # and kept, so a one-ratio scan computes its table once
        for _, d in states[1:]:
            table(d)
        columns = table(states[0][1])
        out.write("pressure_ratio,z,V_a_eV,V_sys_eV,V_total_eV\n")
        for i, (ratio, d) in enumerate(states):
            if i:
                columns = table(d)
            _write_rows(out, columns, _fmt(ratio) + ",")
            del columns  # one table in memory at a time
        return 0


# ------------------------------------------------------------------ wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parse_args puts its results in a new namespace and leaves the parser as
    it was."""
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
    # P comes from each --pressures ratio, so scan takes no --pressure-ratio
    p.add_argument("--config", help="parameter file (key=value lines)")
    p.set_defaults(func=_cmd_scan)

    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
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
