"""Reference kernel: the scaled recurrence renormalised after every step.

Each value is carried as (mantissa in [1/2,1), base-2 exponent) and the
previous value is shifted onto the current exponent on every step.  The
package kernel renormalises only once per block; power-of-two rescaling
is exact, so the two must agree bit for bit wherever this one is finite.
This one overflows for subnormal x (|x| below about 2^-1022, n >= 2),
where ``ldexp(pm, pe - e)`` is asked for a shift beyond the double range.
"""

from __future__ import annotations

import math

import numpy as np

from qhotunnel.oscillator import _seed


def psi_scaled_grid(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled psi_n on a grid: (mantissa, exponent) arrays.

    mantissa is 0.0 exactly at zeros of psi_n, with exponent 0 there.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    m, e = _seed(x)
    if n == 0:
        return m, e
    pm = np.zeros_like(m)
    pe = np.zeros_like(e)
    for k in range(n):
        c1 = math.sqrt(2.0 / (k + 1))
        c2 = math.sqrt(k / (k + 1.0))
        q = np.ldexp(pm, pe - e)
        r = c1 * x * m - c2 * q
        nm, de = np.frexp(r)
        pm, pe = m, e
        m = nm
        e = np.where(r == 0.0, e, e + de)
    e = np.where(m == 0.0, 0, e)
    return m, e.astype(np.int64)
