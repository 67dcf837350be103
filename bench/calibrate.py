"""Reference kernels that measure how fast the machine is running right now.

The machine this benchmark was built on is shared: for seconds to minutes at a
time the same code runs up to 1.5x slower (pure-Python code more so than
LAPACK), and the slowdown shows in CPU time as well as in wall time.  So a run
times a fixed kernel, which shares no code with pdmbubble, right before every
case, and scales that case's latency by ``reference time / kernel time``: the
result is the latency at the reference speed.  Raw latencies are kept in the
details file.

Each workload uses the kernels whose mix of work is closest to its own: the
exact layer and the per-point loops of fine-grid spend their time in the
interpreter; levels-deep splits its time between that and LAPACK bisection.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction


def interpreter_kernel():
    """Rational arithmetic and small-object churn, like the exact layer."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return total


_BAND = None


def lapack_kernel():
    """Bisection for 15 eigenvalues of a fixed 1000-point tridiagonal matrix."""
    global _BAND
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal

    if _BAND is None:
        z = np.linspace(0.05, 3.0, 1000)
        _BAND = (2e4 + z**0.8 * (1.0 - z**0.4), np.full(999, -1e4))
    return eigvalsh_tridiagonal(*_BAND, select="i", select_range=(0, 14),
                                lapack_driver="stebz")


KERNELS = {
    "ordering-sweep": (interpreter_kernel,),
    "fine-grid": (interpreter_kernel,),
    "levels-deep": (interpreter_kernel, lapack_kernel),
}
# Kernel times that define the reference speed, in seconds: typical of the
# machine the benchmark was built on (2 vCPUs, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1), where the kernels take 3.0 to 5.0 ms each.
REFERENCE_S = {interpreter_kernel: 4.0e-3, lapack_kernel: 4.5e-3}


def kernel_time(kernels) -> float:
    """Seconds the kernels take now."""
    t0 = time.perf_counter()
    for kernel in kernels:
        kernel()
    return time.perf_counter() - t0


def reference_time(kernels) -> float:
    return sum(REFERENCE_S[kernel] for kernel in kernels)


# A cold start is mostly imports, whose speed tracks the interpreter kernels
# poorly, so it is compared with a fresh interpreter importing the same
# third-party modules.  Reference: 0.25 s on the machine above.
REFERENCE_IMPORT_S = 0.25
_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, scipy.linalg; "
                 "print(repr(time.perf_counter() - t0))")


def import_time(timeout: float) -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.linalg."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True,
                          capture_output=True, text=True, timeout=timeout)
    return float(proc.stdout)
