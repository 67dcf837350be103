#!/usr/bin/env python3
"""Benchmark of pdmbubble: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload ordering-sweep --seed 1 --seconds 15 --trace 0

Runs whole rounds of the workload's seeded cases until they have spent
``--seconds`` seconds in the program, checks every case's output
(checks.py), and prints one JSON object as the last line of stdout.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the tracing
overhead and the import split.  Details go to bench/out/.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import tracing
import workloads
from workloads import CliOutput

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 9   # cold starts per run, spread over the timed phase
MIN_CASES = 100     # so that at least 10 latencies lie beyond the p90
CHILD_TIMEOUT_S = 60
KERNEL_WINDOW = 5   # cases; the machine's speed holds for seconds at a time


class Tally:
    """Cases attempted and failed, and the check errors of those that did not
    fail.  Warm-up and complement cases are run but not counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []


class Samples:
    """Times of the cases (or cold starts) that succeeded, each with the time a
    reference took next to it (calibrate.py)."""

    def __init__(self):
        self.latency = []
        self.reference = []
        self.busy = 0.0

    def add(self, latency: float, reference: float):
        self.latency.append(latency)
        self.reference.append(reference)
        self.busy += latency

    def normalized(self, reference_s: float, window: int = 1) -> list[float]:
        """The times as they would be when the reference takes reference_s.
        Each is scaled by the median of its own and the previous window - 1
        reference times, which damps the kernel's own noise."""
        out = []
        for i, t in enumerate(self.latency):
            recent = self.reference[max(0, i - window + 1):i + 1]
            out.append(t * reference_s / statistics.median(recent))
        return out


def cold_start(workload: str, seed: int, importtime: bool) -> tuple[float, str]:
    """(seconds to ready, stderr) of one fresh interpreter running cold.py."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "cold.py"), workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"cold start failed: {tail[0]}")
    return float(proc.stdout.split()[0]), proc.stderr


def run_case(lib, case, tally: Tally, samples: Samples, kernels=(), count=True,
             tracer=None):
    """Time the kernels, then one case; check its outputs outside the timed
    interval.  A tracer gets the case's scale to the reference speed."""
    if count:
        tally.attempted += 1
    reference = calibrate.kernel_time(kernels)
    if tracer is not None:
        recent = samples.reference[-(KERNEL_WINDOW - 1):]
        tracer.scale = (calibrate.reference_time(kernels)
                        / statistics.median(recent + [reference]))
    t0 = time.perf_counter()
    try:
        outputs = [call.run(lib) for call in case]
    except Exception as exc:  # the run goes on; the case counts as failed
        elapsed = None
        failure = f"{type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - t0
        failure = next((f"exit {o.code}: {o.stderr.strip()}" for o in outputs
                        if isinstance(o, CliOutput) and o.code != 0), None)
    if failure is not None:
        tally.failed += count
        tally.failures.append(f"{case[0]!r}: {failure}")
        return
    samples.add(elapsed, reference)
    for call, output in zip(case, outputs):
        tally.errors += [f"{call!r}: {e}" for e in checks.check(call, output)]


def measure(args, lib, cases, tally: Tally, tracer=None) -> dict:
    """Whole rounds until the cases have spent ``args.seconds`` in the program,
    with SETUP_SAMPLES cold starts spread over the run so that a slow phase of
    the machine does not land on all of them.  With a tracer, rounds alternate
    untraced and traced."""
    kernels = calibrate.KERNELS[args.workload]
    plain, traced = Samples(), Samples()
    cold, imports = Samples(), []
    rounds = 0
    for j in range(SETUP_SAMPLES):
        seconds, stderr = cold_start(args.workload, args.seed, tracer is not None)
        cold.add(seconds, calibrate.import_time(CHILD_TIMEOUT_S))
        if tracer is not None:
            imports.append(tracing.import_times(stderr))
        target = args.seconds * (j + 1) / SETUP_SAMPLES
        last = j == SETUP_SAMPLES - 1
        while plain.busy + traced.busy < target or (
                last and len(plain.latency) < MIN_CASES
                and tally.attempted < 4 * MIN_CASES):
            for case in cases:
                run_case(lib, case, tally, plain, kernels)
            if tracer is not None:
                tracer.install()
                try:
                    for case in cases:
                        run_case(lib, case, tally, traced, kernels,
                                 tracer=tracer)
                finally:
                    tracer.uninstall()
            rounds += 1
    return {"plain": plain, "traced": traced, "cold": cold,
            "imports": imports, "rounds": rounds}


def _p50_p90(values) -> tuple[float, float]:
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def end_to_end(args, m: dict) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same figures as measured)."""
    plain, cold = m["plain"], m["cold"]
    reference = calibrate.reference_time(calibrate.KERNELS[args.workload])
    lat = plain.normalized(reference, KERNEL_WINDOW)
    p50, p90 = _p50_p90(lat)
    raw50, raw90 = _p50_p90(plain.latency)
    setup = statistics.median(cold.normalized(calibrate.REFERENCE_IMPORT_S))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup, "s"),
        "throughput_ops_s": (len(lat) / sum(lat), "cases/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {
        "setup_s": statistics.median(cold.latency),
        "import_probe_s": statistics.median(cold.reference),
        "throughput_ops_s": len(lat) / plain.busy,
        "latency_p50_ms": raw50 * 1e3, "latency_p90_ms": raw90 * 1e3,
        "kernel_ms": statistics.median(plain.reference) * 1e3,
    }
    return metrics, raw


def per_layer(args, lib, m: dict, tracer, tally: Tally) -> dict:
    import numpy
    import scipy

    # One traced round of each other workload reaches the layers this one
    # does not, so that every per-layer metric is measured on every run.
    for other in workloads.WORKLOADS:
        if other == args.workload:
            continue
        tracer.tag = other
        samples, kernels = Samples(), calibrate.KERNELS[other]
        tracer.install()
        try:
            for case in workloads.make_cases(other, args.seed):
                run_case(lib, case, tally, samples, kernels, count=False,
                         tracer=tracer)
        finally:
            tracer.uninstall()
    versions = {"python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__}
    _write(f"trace-{args.workload}-seed{args.seed}.json", tracer.dump())
    _write(f"layers-{args.workload}-seed{args.seed}.json",
           tracing.layer_rows(tracer.spans, versions))

    metrics = tracing.layer_metrics(tracer.spans, args.workload, m["rounds"])
    scipy_ms, pdm_ms = zip(*m["imports"])
    metrics["setup.import_scipy_linalg_ms"] = (statistics.median(scipy_ms), "ms")
    metrics["setup.import_pdmbubble_ms"] = (statistics.median(pdm_ms), "ms")
    # Each traced round repeats the untraced round before it, case by case.
    plain, traced = (m[k].normalized(1.0, KERNEL_WINDOW)
                     for k in ("plain", "traced"))
    overhead = statistics.median(t / p for p, t in zip(plain, traced)) - 1
    metrics["tracing.overhead_pct"] = (overhead * 100, "%")
    return metrics


def _write(name: str, data):
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pdmbubble" / "__init__.py").is_file():
        print(f"error: no pdmbubble sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    lib = workloads.Library()
    cases = workloads.make_cases(args.workload, args.seed)
    tally = Tally()
    # Warm-up, untimed: fills caches and lets any lazy set-up finish.
    for call in workloads.ready_calls(args.workload):
        call.run(lib)
    run_case(lib, cases[0], tally, Samples(), count=False)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.tag = args.workload
    m = measure(args, lib, cases, tally, tracer)
    raw = {}
    if tracer is None:
        metrics, raw = end_to_end(args, m)
    else:
        metrics = per_layer(args, lib, m, tracer, tally)

    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = dict(result, workload=args.workload, seed=args.seed,
                   seconds=args.seconds, rounds=m["rounds"],
                   cases_per_round=len(cases), cold_starts_s=m["cold"].latency,
                   measured=raw, failures=tally.failures[:50],
                   errors=tally.errors[:50])
    _write(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
           details)
    for message in tally.failures[:10] + tally.errors[:10]:
        print(f"bench: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
