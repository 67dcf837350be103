"""Compare the CLI and exact layer of the working tree with those at a git
revision.

    python3 tools/stdout_identity.py REV [--commands FILE]

``src/`` at REV is extracted with ``git archive`` into a temporary directory.
Each tree then runs, in one subprocess of its own, two things:

* one fixed list of commands (plus the argv lists in FILE, a JSON list of
  lists of strings), in-process through ``pdmbubble.cli.run``.  Every command
  whose exit code, stdout or stderr differs is printed.  Warnings are shown on
  every occurrence and count as stderr.
* the ordering-sweep chain of ``bench/workloads.py`` (``OrderingCall``: the
  sandwich, commutator, partner potentials, restored operator, gamma,
  Hermiticity report, Weyl operator and ordering match for one n and a) over
  the 40 cases of each of seeds 1-8, 320 cases.  Both trees run the working
  tree's ``bench/workloads.py``, which is only read.  Each result is hashed
  as sha256 of its ``repr`` and of its ``to_jsonable`` form (a field without
  one is read through its dataclass fields, or as ``str``), and every case
  whose hashes differ is printed.

Both tallies are printed; the exit status is 1 if any stdout or any exact
result differs and 0 otherwise.

Only the standard library is imported here; the two subprocesses need what
``pdmbubble`` needs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The default helium-4 parameters as a file with CRLF lines.
HE4 = ("# typical superfluid helium values at 4 K\r\nsigma = 0.12e-3\r\n"
       "P_v = 8.1445e4\r\nrho_L = 140\r\nrho_v = 0\r\nT = 4\r\nP = 0\r\n")

#: Parameter files the commands name as "@NAME"; each is written once, as
#: UTF-8, and read by both trees from the same path.
CONFIGS = {
    "he4": HE4,
    "he4_bom": "\ufeff" + HE4,  # as Windows editors save it
    "r_c_huge": "sigma = 1e200\nP_v = 1\nrho_L = 140\nT = 4\n",
    "v_sys_huge": "sigma = 1e100\nP_v = 1\nrho_L = 1\nT = 4\nP = 0\n",
    "light": "sigma = 1e100\nP_v = 1\nrho_L = 1e-300\nT = 4\nP = 0\n",
    "ev_huge": "sigma = 1e284\nP_v = 2e284\nrho_L = 1\nT = 4\nP = 0\n",
    "r_c_tiny": "sigma = 1e-100\nP_v = 1\nrho_L = 140\nT = 4\n",
    "k_inf": "sigma = 0.5\nP_v = 1\nrho_L = 1e-300\nT = 4\nP = 0\n",
    "u0_zero": "sigma = 1e-130\nP_v = 2e-30\nrho_L = 1e300\nT = 4\nP = 0\n",
}

ORDERINGS = ("-1/3", "0", "1/2", "-1/6", "-2/3", "1/6", "7/24", "-5/11")
SOURCES = ("expanded", "paper")


def long_sum() -> str:
    """A sum of 1000 terms whose parts repeat, cancel and carry p and p^2."""
    terms = []
    for i in range(250):
        term = f"{i % 7 + 1}/{i % 3 + 1}*x^({i % 40 - 20}/{i % 4 + 1})"
        p = ("", "*p", "*p^2")[i % 3]
        terms += [term + p, f"x^{i % 9}*p^2", f"-x^{i % 9}*p^2", f"(x+p)*x^{i}"]
    return " + ".join(terms)


def success_set() -> list[list[str]]:
    """79 success-path commands: params, weyl (one a long sum), match, susy
    and match under the source alias paper-eq12, transform, susy, spectrum
    and scan at eight orderings with both sources, three large grids
    whose z spans many decades, five exact-layer
    commands with large denominators and complex coefficients over mixed
    denominators, four weyl commands whose exponent denominators mix
    and cancel, and two weyl commands with --bind values."""
    cmds = [["params"], ["params", "--pressure-ratio", "0.8"],
            ["weyl", "--hamiltonian", "p^2/(2*x^3)"],
            ["weyl", "--hamiltonian", "p^2/x^3"],
            ["weyl", "--hamiltonian", long_sum()],
            ["match", "--source", "expanded"], ["match", "--source", "paper"],
            ["susy", "--a=-1/3", "--source", "paper-eq12"],
            ["match", "--source", "paper-eq12"],
            ["scan", "--zmin", "1e-8", "--zmax", "1e3", "--points", "200000",
             "--pressures", "0.5,0.9"],
            ["scan", "--zmin", "1e-150", "--zmax", "1e150",
             "--points", "50000", "--pressures", "0.5"],
            ["spectrum", "--a=-2/3", "--zmin", "1e-8", "--zmax", "0.02",
             "--points", "40000", "--count", "10"],
            ["susy", "--a=-17/23", "--source", "expanded"],
            ["susy", "--a=19/24", "--source", "paper"],
            ["transform", "--a=19/24"], ["transform", "--a=-17/23"],
            ["weyl", "--hamiltonian",
             "x^(7/3)*p/5-3/7*p^2/x^(5/2)+2/9*x*p"]]
    cmds += [["weyl", "--hamiltonian", h] for h in (
        "x^(1/6)*p^2*x^(-1/6)",
        "x^(5/12)*p*x^(-5/12)+x^(3/4)*p^2/x^(1/4)",
        "(x^(1/3)+x^(2/3))^3*p^2/x^2",
        "(x^(1/4)-x^(-1/4))*(x^(1/4)+x^(-1/4))*p")]
    cmds += [["weyl", "--hamiltonian", "p^2/(2*M*x^3)", "--bind", "M=4"],
             ["weyl", "--hamiltonian", "K*x^(1/2)*p/x + p^2/(M*x^3)",
              "--bind", "M=3/7", "--bind", "K=-2"]]
    for a in ORDERINGS:
        cmds.append(["transform", f"--a={a}"])
        for source in SOURCES:
            cmds += [
                ["susy", f"--a={a}", "--source", source],
                ["spectrum", f"--a={a}", "--source", source,
                 "--points", "3000", "--count", "7"],
                ["scan", f"--a={a}", "--source", source, "--points", "2000",
                 "--pressures", "0.8,0.95"],
            ]
    return cmds


def well_box_set() -> list[list[str]]:
    """48 spectrum and scan commands on boxes around the well near z = 0."""
    cmds = []
    boxes = product(("1e-8", "1e-7", "1e-6", "1e-5"), ("0.01", "0.02", "0.05"))
    for i, (zmin, zmax) in enumerate(boxes):
        box = ["--zmin", zmin, "--zmax", zmax]
        for j, source in enumerate(SOURCES):
            a = ORDERINGS[(2 * i + j) % len(ORDERINGS)]
            ratio = ("0.5", "0.8", "0.95")[(i + j) % 3]
            cmds += [
                ["spectrum", f"--a={a}", "--source", source, *box,
                 "--points", "4000", "--count", "8", "--pressure-ratio", ratio],
                ["scan", f"--a={a}", "--source", source, *box,
                 "--points", "500", "--pressures", "0.5,0.8,0.95"],
            ]
    return cmds


def error_set() -> list[list[str]]:
    """Front-door faults recorded in CHANGES.md, neighbouring bad input, the
    order of the ratio, source, z and c_a errors, a U0 that underflows to 0,
    the edges of the LAPACK call (every level, the smallest grid and a
    non-finite matrix), the parser's nesting and digit bounds and run of
    minus signs, one command per domain-error class the CLI can raise
    (transform's refused pipeline, p past p^2 and an unbound name), the
    size bounds of a numeric power, --a and --bind, a zero base under a
    negative power, the term-pair budget, coefficients past the rational
    bound in a parse and in the Weyl operator, --bind names the parser
    never reads, the parser's refusals of a sum as divisor and of a sum
    power that is fractional, negative or past 16, and spectrum's points x
    count budget, with the invalid --points or --count it leaves to their
    own refusals and a bad count named before a bad source, and the he4 file
    read with a leading UTF-8 byte-order mark."""
    nines = "9" * 4096
    spectrum = ["spectrum", "--a=-1/3"]
    return [
        ["susy", "--a=1/0"],
        ["params", "--pressure-ratio", "nan"],
        [*spectrum, "--zmin", "-1"],
        [*spectrum, "--zmax", "inf", "--points", "10"],
        [*spectrum, "--zmax", "1e200", "--points", "10"],
        [*spectrum, "--zmin", "0", "--zmax", "1e-100", "--points", "10"],
        [*spectrum, "--points", "10", "--count", "11"],
        [*spectrum, "--points", "10", "--count", "10"],
        [*spectrum, "--points", "3", "--count", "3"],
        ["spectrum", "--a=-1/4", "--zmin", "1e-40", "--zmax", "2e-40",
         "--points", "3", "--count", "1", "--config", "@k_inf"],
        [*spectrum, "--points", "1000001"],
        [*spectrum, "--points", "2900", "--count", "2900"],
        ["spectrum", "--a=0", "--points", "-3000", "--count", "-3000"],
        ["spectrum", "--a=0", "--points", "2000", "--count", "5000"],
        ["spectrum", "--a=0", "--source", "bogus", "--points", "2"],
        ["spectrum", "--a=0", "--source", "bogus", "--count", "0"],
        ["spectrum", "--a=0", "--source", "bogus", "--zmin", "-1"],
        ["spectrum", f"--a={10**200}", "--points", "10"],
        ["spectrum", f"--a={10**200}", "--zmin", "-1", "--points", "10"],
        ["scan", "--pressures", "0.8,1.2", "--points", "3"],
        ["scan", "--pressures", "0.8,oops"],
        ["scan", "--zmin", "0"],
        ["scan", "--zmin", "inf"],
        ["scan", "--zmin", "-5", "--zmax", "1e200", "--points", "3"],
        ["scan", "--zmin", "1e-170", "--zmax", "1e200", "--points", "3"],
        ["scan", "--zmax", "1e200", "--points", "3"],
        ["scan", "--zmin", "1e-200", "--points", "3"],
        ["scan", "--zmin=-1e308", "--zmax", "1e308", "--points", "3"],
        ["scan", "--zmax", "1e305", "--points", "2000"],
        ["scan", "--zmin", "1", "--zmax", "1", "--points", "3"],
        ["scan", "--zmin", "3", "--zmax", "0.05"],
        ["scan", "--points", "1"],
        ["scan", f"--a={10**200}", "--points", "3"],
        ["scan", "--source", "bogus", "--points", "3"],
        ["scan", "--source", "bogus", "--zmin", "0", "--points", "3"],
        ["scan", "--source", "bogus", "--pressures", "0.8,1.2", "--points", "3"],
        ["scan", f"--a={10**200}", "--zmin", "0", "--pressures", "0.5,0.8",
         "--points", "3"],
        ["weyl", "--hamiltonian", "(" * 300 + "x" + ")" * 300],
        ["weyl", "--hamiltonian=" + "-" * 3000 + "x"],
        ["weyl", "--hamiltonian", "1" * 5000 + "*x"],
        ["transform", "--a=0", "--pipeline", "transform-first"],
        ["weyl", "--hamiltonian", "p^3"],
        ["weyl", "--hamiltonian", "Q*x"],
        ["scan", "--pressure-ratio", "0.5", "--points", "3"],
        ["params", "--config", "@he4"],
        ["params", "--config", "@he4_bom"],
        ["spectrum", "--a=-1/3", "--config", "@he4", "--points", "300"],
        ["scan", "--config", "@he4", "--points", "30"],
        ["params", "--config", "@r_c_huge"],
        [*spectrum, "--config", "@r_c_huge", "--points", "10"],
        ["scan", "--config", "@r_c_huge", "--points", "3"],
        ["params", "--config", "@v_sys_huge"],
        ["params", "--config", "@r_c_tiny"],
        ["scan", "--config", "@v_sys_huge", "--zmin", "1", "--zmax", "1e10",
         "--points", "3"],
        [*spectrum, "--config", "@v_sys_huge", "--zmin", "1", "--zmax", "1e10",
         "--points", "10"],
        ["scan", "--config", "@v_sys_huge", "--zmin", "1", "--zmax", "1e5",
         "--points", "3", "--pressures", "0"],
        ["scan", "--config", "@light", "--zmin", "1", "--zmax", "1e10",
         "--points", "3"],
        [*spectrum, "--config", "@light", "--zmin", "1", "--zmax", "1e10",
         "--points", "10"],
        ["scan", "--config", "@light", "--zmin", "1", "--zmax", "1e5",
         "--points", "3", "--pressures", "0,0.9"],
        ["scan", "--config", "@ev_huge", "--zmin", "1", "--zmax", "1e5",
         "--points", "3", "--pressures", "0"],
        [*spectrum, "--config", "@ev_huge", "--zmin", "1", "--zmax", "1e5",
         "--points", "10"],
        ["scan", "--config", "@ev_huge", "--zmin", "1", "--zmax", "1e3",
         "--points", "3", "--pressures", "0,0.9"],
        ["scan", "--config", "@u0_zero", "--zmin", "0.5", "--zmax", "3",
         "--points", "3", "--pressures", "0.5"],
        [*spectrum, "--config", "@u0_zero", "--zmin", "1", "--zmax", "3",
         "--points", "10", "--count", "2"],
        ["params", "--config", "@missing"],
        ["weyl", "--hamiltonian", "(1111111111*x)^4096"],
        ["susy", "--a=1e100000"],
        ["transform", "--a=1/" + "3" * 4000],
        ["weyl", "--hamiltonian", "M*x", "--bind", "M=1e100000"],
        ["weyl", "--hamiltonian", "(0*x)^-1"],
        ["weyl", "--hamiltonian", "(((x+1)^16)^16)^16"],
        ["weyl", "--hamiltonian", f"{nines}*{nines}*x"],
        ["weyl", "--hamiltonian", f"{nines}e4096*x"],
        ["weyl", "--hamiltonian", "M*x", "--bind", f"M={nines}e4096"],
        ["weyl", "--hamiltonian", f"x^(1/{nines})*p^2"],
        ["weyl", "--hamiltonian", f"{nines}*1e204*x^3*p^2"],
        ["weyl", "--hamiltonian", "x", "--bind", "x=3"],
        ["weyl", "--hamiltonian", "p^2", "--bind", "p=3"],
        ["weyl", "--hamiltonian", "x", "--bind", "1M=3"],
        ["weyl", "--hamiltonian", "x/(x+1)"],
        ["weyl", "--hamiltonian", "(x+1)^(1/2)"],
        ["weyl", "--hamiltonian", "(x+1)^(-1)"],
        ["weyl", "--hamiltonian", "(x+1)^17"],
    ]


SEEDS = range(1, 9)

# Runs in each subprocess: reads {"commands", "bench", "seeds"} as JSON on
# stdin; writes one [code, sha256 of stdout, stdout length, stderr] per command
# and one [label, sha256 of repr, sha256 of to_jsonable] per ordering-sweep
# case, as JSON.
RUNNER = """
import contextlib, dataclasses, hashlib, io, json, sys, traceback, warnings
from pdmbubble.cli import run

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()

def jsonable(value):
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    if dataclasses.is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return str(value)

job = json.load(sys.stdin)
commands = []
for argv in job["commands"]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = run(argv, out, err)
        except Exception:  # a traceback, recorded as its last line
            code = None
            err.write(traceback.format_exc().splitlines()[-1] + "\\n")
    text = out.getvalue()
    commands.append([code, sha(text), len(text), err.getvalue()])

sys.path.insert(0, job["bench"])
from workloads import Library, make_cases
lib = Library()
exact = []
for seed in job["seeds"]:
    for index, case in enumerate(make_cases("ordering-sweep", seed)):
        for call in case:
            result = call.run(lib)
            exact.append([f"seed {seed} case {index} (n={call.n}, a={call.a})",
                          sha(repr(result)),
                          sha(json.dumps(jsonable(result), sort_keys=True))])
json.dump({"commands": commands, "exact": exact}, sys.stdout)
"""


def run_tree(src: Path, commands: list[list[str]]) -> dict:
    job = {"commands": commands, "bench": str(ROOT / "bench"),
           "seeds": list(SEEDS)}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER], input=json.dumps(job),
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    if proc.returncode != 0:
        sys.exit(f"runner failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def extract_src(rev: str, into: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.12 and in 3.10.12/3.11.4
        # backports; without it, extract as-is, as the archive is local
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--commands", help="JSON list of extra argv lists")
    args = parser.parse_args()
    commands = success_set() + well_box_set() + error_set()
    if args.commands:
        commands += json.loads(Path(args.commands).read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in CONFIGS.items():
            (tmp / f"{name}.cfg").write_bytes(text.encode())
        argvs = [[str(tmp / f"{t[1:]}.cfg") if t.startswith("@") else t
                  for t in argv] for argv in commands]
        old = run_tree(extract_src(args.rev, tmp / "rev"), argvs)
        new = run_tree(ROOT / "src", argvs)
    differs = {"stdout": 0, "stderr": 0, "exit": 0}
    for argv, (c0, h0, n0, e0), (c1, h1, n1, e1) in zip(
            commands, old["commands"], new["commands"]):
        diffs = []
        if c0 != c1:
            diffs.append(f"exit {c0} -> {c1}")
            differs["exit"] += 1
        if (h0, n0) != (h1, n1):
            diffs.append(f"stdout differs ({n0} -> {n1} chars)")
            differs["stdout"] += 1
        if e0 != e1:
            diffs.append(f"stderr {e0!r} -> {e1!r}")
            differs["stderr"] += 1
        if diffs:
            print(" ".join(argv) + ": " + "; ".join(diffs))
    labels = [[label for label, *_ in tree["exact"]] for tree in (old, new)]
    if labels[0] != labels[1]:
        sys.exit("the two trees ran different ordering-sweep cases")
    exact = {"repr": 0, "to_jsonable": 0}
    for (label, r0, j0), (_, r1, j1) in zip(old["exact"], new["exact"]):
        diffs = [kind for kind, h0, h1 in (("repr", r0, r1),
                                           ("to_jsonable", j0, j1)) if h0 != h1]
        for kind in diffs:
            exact[kind] += 1
        if diffs:
            print(f"{label}: {' and '.join(diffs)} differ")
    print(f"{len(commands)} commands against {args.rev}: "
          + ", ".join(f"{n} {kind}" for kind, n in differs.items())
          + " differences")
    print(f"{len(new['exact'])} ordering-sweep cases against {args.rev}: "
          + ", ".join(f"{n} {kind}" for kind, n in exact.items())
          + " differences")
    return 1 if differs["stdout"] or any(exact.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
