"""Speed normalisation against a fixed reference load.

The machines this benchmark runs on are shared, and their effective speed
drifts by tens of percent over seconds, for the package and for any other
code alike. Each op is therefore bracketed by two runs of a fixed
reference load, made of the two kinds of work the package does: numpy
calls and exact Fraction arithmetic. An op's latency is reported scaled by
NOMINAL_S / (the faster of the two bracketing loads), that is, in seconds
at the speed at which the reference load takes NOMINAL_S. The faster load
is used because an interrupt can only slow a load down. The load is part
of the benchmark, so a change to the package cannot move it.
"""

import ctypes
import ctypes.util
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.003
_X = np.linspace(0.0, 1.0, 4096)


def reference_load_s() -> float:
    """Seconds taken by one run of the reference load."""
    t0 = time.perf_counter()
    a = _X
    for _ in range(250):
        a = 1.0000001 * a - 0.5 * _X
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(1, k * k + 1)
    return time.perf_counter() - t0


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def fresh_pages() -> None:
    """Hand free heap pages back to the system (glibc malloc_trim).

    The next pass then runs on newly mapped physical pages. Which physical
    pages a process's arrays land on changes its cache behaviour, so
    without this a whole run sees one placement, and a grid op's time
    differs by ~20% between otherwise equal runs; with it, every pass
    draws a new placement and the medians average over them.
    """
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)
