#!/usr/bin/env python3
"""Fast self-test of the benchmark's checks at tiny sizes (a few seconds).

    python3 bench/selftest.py

Each check must pass on the program's real output and reject every corrupted
copy below; the script exits 1 if one does not.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import CliCall, CliOutput, OrderingCall  # noqa: E402

FAILURES = []


def expect(label: str, errors: list[str], fragment: str | None):
    """fragment None: the check must pass; else an error must contain it."""
    if fragment is None:
        ok = not errors
    else:
        ok = any(fragment in e for e in errors)
    print(f"{'ok' if ok else 'FAIL'}: {label}" + ("" if ok else f" -> {errors}"))
    if not ok:
        FAILURES.append(label)


def _edit_csv(text: str, row: int, column: int, edit) -> str:
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = edit(fields[column])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def _scaled(factor: float):
    return lambda field: f"{float(field) * factor:.11e}"


def ordering_cases(lib):
    from pdmbubble.algebra import Coeff, DiffOp, PolyX
    from pdmbubble.susy import PartnerPotential

    for call in (OrderingCall(Fraction(3), Fraction(-1, 3)),
                 OrderingCall(Fraction(5, 2), Fraction(-7, 24))):
        good = call.run(lib)
        tag = f"n={call.n} a={call.a}"
        expect(f"{tag} real output passes", checks.check(call, good), None)

        def bad(label, fragment, **changes):
            corrupted = dataclasses.replace(good, **changes)
            expect(f"{tag} rejects {label}", checks.check(call, corrupted),
                   fragment)

        bad("a nonzero commutator", "[A-, A+]", commutator=DiffOp.identity())
        bad("a wrong gamma", "gamma", gamma=good.gamma + 1)
        bad("a failed Hermiticity report", "Hermiticity",
            hermiticity=SimpleNamespace(passes=False))
        imaginary = PartnerPotential(
            V=PolyX.mono(Coeff.imag_unit(), -5), sign="+", source="expanded")
        bad("a complex partner potential", "not real",
            partners=(imaginary,) + good.partners[1:])
        bad("a D term after restore", "D term",
            restored=good.restored + DiffOp([(PolyX.mono(1, -1), 1)]))
        bad("a wrong second-order coefficient", "second-order",
            restored=good.restored.scale(2))
        bad("a wrong Weyl operator", "Weyl", weyl=good.weyl.scale(2))
        roots = good.match.roots
        bad("a missing root", "expected 2",
            match=dataclasses.replace(good.match, roots=roots[:1]))
        shifted = dataclasses.replace(
            roots[0], a=roots[0].a + (1 if roots[0].exact else 1e-9))
        bad("a root that does not solve the quadratic", "does not solve",
            match=dataclasses.replace(good.match, roots=(shifted,) + roots[1:]))
        if call.n == 3:
            bad("a wrong z^-2 coefficient", "z^-2", restored=good.restored
                + DiffOp.multiplication(PolyX.mono(Fraction(1, 7), -2)))
            unverified = dataclasses.replace(roots[0], verified=False)
            bad("an unverified exact root", "not verified",
                match=dataclasses.replace(good.match,
                                          roots=(unverified,) + roots[1:]))


def cli_cases(lib):
    spectrum = CliCall.make("spectrum", Fraction(-1, 3), "paper", 0.8, 300, 3)
    out = spectrum.run(lib)
    expect("spectrum real output passes", checks.check(spectrum, out), None)

    def bad_spectrum(label, fragment, text):
        corrupted = CliOutput(out.code, text, out.stderr)
        expect(f"spectrum rejects {label}", checks.check(spectrum, corrupted),
               fragment)

    bad_spectrum("an eigenvalue off by 1e-8", "dsbevx",
                 _edit_csv(out.stdout, 1, 1, _scaled(1 + 1e-8)))
    bad_spectrum("an eV column off by 1e-6", "eV column",
                 _edit_csv(out.stdout, 2, 2, _scaled(1 + 1e-6)))
    bad_spectrum("a missing level", "requested",
                 out.stdout.rsplit("\n", 2)[0] + "\n")
    bad_spectrum("a wrong index", "indices",
                 _edit_csv(out.stdout, 0, 0, lambda f: "7"))
    bad_spectrum("a mangled header", "expected CSV", "x" + out.stdout)

    scan = CliCall.make("scan", Fraction(-7, 24), "expanded", 0.9, 50)
    out_scan = scan.run(lib)
    expect("scan real output passes", checks.check(scan, out_scan), None)

    def bad_scan(label, fragment, text):
        corrupted = CliOutput(out_scan.code, text, out_scan.stderr)
        expect(f"scan rejects {label}", checks.check(scan, corrupted), fragment)

    bad_scan("a V_sys value off by 1e-6", "V_sys column",
             _edit_csv(out_scan.stdout, 10, 3, _scaled(1 + 1e-6)))
    bad_scan("a V_total that is not the sum", "V_total column",
             _edit_csv(out_scan.stdout, 20, 4, _scaled(1 + 1e-6)))
    bad_scan("a V_a value off by 1e-6", "V_a column",
             _edit_csv(out_scan.stdout, 5, 2, _scaled(1 + 1e-6)))
    bad_scan("a shifted z", "z column",
             _edit_csv(out_scan.stdout, 3, 1, _scaled(1 + 1e-6)))
    bad_scan("a missing row", "requested",
             out_scan.stdout.rsplit("\n", 2)[0] + "\n")


def main() -> int:
    lib = workloads.Library()
    ordering_cases(lib)
    cli_cases(lib)
    for name in workloads.WORKLOADS:  # the seeded inputs build and run
        case = workloads.make_cases(name, 0)[0]
        for call in workloads.ready_calls(name) or [case[0]]:
            expect(f"{name} smallest call runs clean",
                   checks.check(call, call.run(lib)), None)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
