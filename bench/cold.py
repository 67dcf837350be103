"""Cold-start probe: a fresh interpreter imports ``pdmbubble.cli`` and builds
the seeded inputs of one workload, runs a tiny call of each command the
workload uses, then prints the seconds that took.

Usage: python3 bench/cold.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import pdmbubble.cli  # noqa: E402,F401
import workloads  # noqa: E402

cases = workloads.make_cases(sys.argv[1], int(sys.argv[2]))
lib = workloads.Library()
for call in workloads.ready_calls(sys.argv[1]):
    call.run(lib)
elapsed = time.perf_counter() - T0
print(f"{elapsed!r} {len(cases)}")
