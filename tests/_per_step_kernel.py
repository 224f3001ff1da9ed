"""Reference kernel: the scaled recurrence renormalised after every step.

Each value is carried as (mantissa in [1/2,1), base-2 exponent) and the
previous value is shifted onto the current exponent on every step.  The
package kernel renormalises only once per block; power-of-two rescaling
is exact, so the two must agree bit for bit wherever this one is finite.
This one overflows for subnormal x (|x| below about 2^-1022, n >= 2),
where ``ldexp(pm, pe - e)`` is asked for a shift beyond the double range.

tail_point is the one-point loop with the tail identity summed over all
n terms, the reference for the kernel's sum over the turning-point layer.
two_step_point reaches the window's first step two orders a step, by
psi_{k+2} = alpha_k psi_k - c_k psi_{k-2}, renormalised after every step,
with each coefficient and each Dekker product formed where it is used.
"""

from __future__ import annotations

import math

import numpy as np

from qhotunnel.oscillator import _block_length, _half_erfc, _seed, _seed_point


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


def tail_point(n: int, x: float) -> tuple[float, int, float, int]:
    """psi_n and its tail mass int_x^inf psi_n^2 at a float x, summing every term.

    The one-point loop with all n terms of the tail identity added, from
    step 0 on, each in the block loop's scale; (m, e, tm, te) as
    ``psi_scaled_grid(n, x, tail=True)`` returns them.
    """
    m0, e0 = _seed_point(x)
    return _window(n, x, 0, m0, 0.0, e0)


def two_step_point(n: int, x: float, start: int) -> tuple[float, int, float, int]:
    """As tail_point, but summing from step start on, which it reaches two orders a step.

    The chain has start's parity and begins at psi_0 or at
    psi_1 = fl(x sqrt(2)) psi_0. Each step takes
    alpha_k = a_k (x^2 - k - 1/2), with a_k = 2/sqrt((k+1)(k+2)), rounded
    once from a_k times x^2 = h + lo: fl(p + (pe + a_k lo)), where
    p + pe = a_k (h - (k + 1/2)) exactly. psi_{start-1} then follows from
    the one-step recurrence at step start - 1, solved for it.
    """
    m0, e0 = _seed_point(x)
    h, hlo = _dekker(x, x)
    p = start % 2
    m, pm, e = (x * math.sqrt(2.0) * m0 if p else m0), 0.0, e0
    for k in range(p, start - 1, 2):
        q = (k + 1.0) * (k + 2.0)
        a = 2.0 / math.sqrt(q)
        c = math.sqrt(k * (k - 1.0) / q)
        prod, err = _dekker(a, h - (k + 0.5))
        alpha = prod + (err + a * hlo)
        m, pm = alpha * m - pm * c, m
        _, sh = math.frexp(max(abs(m), abs(pm)))
        e += sh
        m, pm = math.ldexp(m, -sh), math.ldexp(pm, -sh)
    pm = (m + math.sqrt((start - 1) / (start - 1 + 1.0)) * pm) / (x * math.sqrt(2.0 / start))
    return _window(n, x, start, m, pm, e)


def _window(n: int, x: float, start: int, mf: float, pm: float, ef: int) -> tuple[float, int, float, int]:
    """The steps from start to n from the pair (psi_start, psi_{start-1}) on exponent ef, summing their terms."""
    m0, e0 = _seed_point(x)
    s = 0.0
    block = _block_length(abs(x))
    for k0 in range(start, n, block):
        for k in range(k0, min(k0 + block, n)):
            u = x * math.sqrt(2.0 / (k + 1)) * mf
            mf, pm = u - pm * math.sqrt(k / (k + 1.0)), mf
            s += u * mf
        _, sh = math.frexp(max(abs(mf), abs(pm)))
        ef += sh
        mf, pm, s = math.ldexp(mf, -sh), math.ldexp(pm, -sh), math.ldexp(s, -2 * sh)
    terms = s / (2.0 * x) if x else 0.0
    v, k = _half_erfc(x, m0, e0)
    if k > 2 * ef:
        tm, te = v + math.ldexp(terms, 2 * ef - k), k
    else:
        tm, te = terms + math.ldexp(v, k - 2 * ef), 2 * ef
    return (*_normalized(mf, ef), *_normalized(tm, te))


def _dekker(a: float, b: float) -> tuple[float, float]:
    """a * b = p + e exactly, with p = fl(a * b), by Dekker's split."""
    p = a * b
    ca = 134217729.0 * a
    ahi = ca - (ca - a)
    cb = 134217729.0 * b
    bhi = cb - (cb - b)
    alo, blo = a - ahi, b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def _normalized(v: float, e: int) -> tuple[float, int]:
    m, de = math.frexp(v)
    return m, e + de if m else 0
