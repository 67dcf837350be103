"""Compare the exact layer of the working tree with the one at a git revision.

    python3 tools/exact_identity.py REV

``src/`` at REV is extracted as ``tools/stdout_identity.py`` extracts it.
Each tree then runs, in one subprocess of its own, the ordering-sweep chain of
``bench/workloads.py`` (``OrderingCall``: the sandwich, commutator, partner
potentials, restored operator, gamma, Hermiticity report, Weyl operator and
ordering match for one n and a) over the 40 cases of each of seeds 1-8, 320
cases.  Both trees run the working tree's ``bench/workloads.py``, which is only
read.  Each result is hashed twice, as sha256 of its ``repr`` and of its
``to_jsonable`` form (a field without one is read through its dataclass
fields, or as ``str``).  Every case whose hashes differ is printed; the exit
status is 1 if any case differs and 0 otherwise.

Only the standard library is imported here; the two subprocesses need what
``pdmbubble`` needs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from stdout_identity import ROOT, extract_src

SEEDS = range(1, 9)

# Runs in each subprocess: argv[1] is the bench directory, argv[2:] the seeds;
# writes one [label, sha256 of repr, sha256 of to_jsonable] per case as JSON.
RUNNER = """
import dataclasses, hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from workloads import Library, make_cases

def jsonable(value):
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    if dataclasses.is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return str(value)

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()

lib = Library()
results = []
for seed in map(int, sys.argv[2:]):
    for index, case in enumerate(make_cases("ordering-sweep", seed)):
        for call in case:
            result = call.run(lib)
            results.append([f"seed {seed} case {index} (n={call.n}, a={call.a})",
                            sha(repr(result)),
                            sha(json.dumps(jsonable(result), sort_keys=True))])
json.dump(results, sys.stdout)
"""


def run_tree(src: Path) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(ROOT / "bench"), *map(str, SEEDS)],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    if proc.returncode != 0:
        sys.exit(f"runner failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        old = run_tree(extract_src(args.rev, Path(tmp)))
    new = run_tree(ROOT / "src")
    if [label for label, *_ in old] != [label for label, *_ in new]:
        sys.exit("the two trees ran different cases")
    differs = {"repr": 0, "to_jsonable": 0}
    for (label, r0, j0), (_, r1, j1) in zip(old, new):
        diffs = [kind for kind, h0, h1 in (("repr", r0, r1),
                                           ("to_jsonable", j0, j1)) if h0 != h1]
        for kind in diffs:
            differs[kind] += 1
        if diffs:
            print(f"{label}: {' and '.join(diffs)} differ")
    print(f"{len(new)} cases against {args.rev}: "
          + ", ".join(f"{n} {kind}" for kind, n in differs.items())
          + " differences")
    return 1 if any(differs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
