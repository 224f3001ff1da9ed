"""The scaled oscillator-eigenfunction kernel, in numpy.

For a fixed quantum number ``n`` and a grid of positions, run the
orthonormal three-term recurrence

    psi_{k+1}(x) = x*sqrt(2/(k+1))*psi_k(x) - sqrt(k/(k+1))*psi_{k-1}(x)

seeded by psi_0(x) = pi^{-1/4} e^{-x^2/2}, whose base-2 logarithm is
split with Dekker's exact product (the package's only one).  The pair
(psi_k, psi_{k-1}) is carried as two mantissa arrays sharing one base-2
exponent array, and is rescaled by a power of two, taken from the larger
of the two, once every B steps (block renormalisation; Gil, Segura &
Temme, *Numerical Methods for Special Functions*, ch. 4).  Per step max(|psi_k|, |psi_{k-1}|)
grows or shrinks by at most a factor 2*sqrt(2)*(|x| + 1), so B (at most
64) is chosen from the grid's largest |x| to keep the unnormalised
mantissas within 2^(+-900).  Power-of-two rescaling is exact, so the
values equal those of a kernel that renormalises after every step,
wherever that one stays finite; this one also stays finite for
subnormal x.

The step allocates nothing: the coefficients are computed once per call,
and each step is four ufunc calls writing into two state arrays and one
scratch array, with the roundings of (c1*x)*m - c2*pm in that order (no
fused multiply-add, no reassociation).  This is the package's only
kernel; there is no compiled twin.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_BLOCK = 64
_BLOCK_LOG2_RANGE = 900.0  # binary orders a block may drift from [1/2, 1)

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for binary64
HALF_LOG2E_HI = 0.7213475204444817  # 1/(2 ln 2) as hi + lo
HALF_LOG2E_LO = 1.0177636870465517e-17
QUARTER_LOG2PI_HI = 0.4128740323680797  # log2(pi)/4 as hi + lo
QUARTER_LOG2PI_LO = 1.9744082879119833e-17


def two_prod(a, b):
    """Dekker's exact product, elementwise: a * b = p + e with p = fl(a*b)."""
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


def _seed(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled psi_0: mantissa/exponent arrays for pi^{-1/4} e^{-x^2/2}.

    The base-2 logarithm is split into integer and fractional parts with
    compensated products so the seed keeps full relative accuracy even
    when x^2/2 is ~2000 (where a naive log2 would round at ~1e-13).
    """
    h, herr = two_prod(x, x)
    p, perr = two_prod(h, HALF_LOG2E_HI)
    corr = perr + h * HALF_LOG2E_LO + herr * HALF_LOG2E_HI

    e0 = np.floor(-p)
    frac = (-p - e0) - corr - QUARTER_LOG2PI_HI - QUARTER_LOG2PI_LO
    shift = np.floor(frac)
    e0 += shift
    frac -= shift
    m, de = np.frexp(np.exp2(frac))
    return m, e0.astype(np.int64) + de


def _block_length(x: np.ndarray) -> int:
    """Steps between rescalings, so no block drifts past 2^(+-900)."""
    xmax = float(np.max(np.abs(x), initial=0.0))
    growth = math.log2(2.0 * math.sqrt(2.0) * (xmax + 1.0))
    if not growth < _BLOCK_LOG2_RANGE:  # also catches inf and nan
        return 1
    return min(_MAX_BLOCK, int(_BLOCK_LOG2_RANGE // growth))


def psi_scaled_grid(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled psi_n on a grid: (mantissa, exponent) arrays.

    mantissa is 0.0 exactly at zeros of psi_n, with exponent 0 there.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    m, e = _seed(x)
    if n == 0:
        return m, e
    # IEEE division and sqrt round correctly, so these hold the same doubles
    # as math.sqrt(2.0 / (k + 1)) and math.sqrt(k / (k + 1.0))
    k = np.arange(n, dtype=np.float64)
    c1 = np.sqrt(2.0 / (k + 1.0)).tolist()
    c2 = np.sqrt(k / (k + 1.0)).tolist()
    pm = np.zeros_like(m)
    t = np.empty_like(m)
    block = _block_length(x)
    for start in range(0, n, block):
        for j in range(start, min(start + block, n)):
            # (c1*x)*m - c2*pm, rounded in that order, into pm's storage
            np.multiply(x, c1[j], t)
            np.multiply(t, m, t)
            np.multiply(pm, c2[j], pm)
            np.subtract(t, pm, pm)
            m, pm = pm, m
        np.abs(m, t)
        np.maximum(t, np.abs(pm), out=t)
        _, s = np.frexp(t)
        e += s
        np.negative(s, s)
        np.ldexp(m, s, m)
        np.ldexp(pm, s, pm)
    m, de = np.frexp(m)
    e = np.where(m == 0.0, 0, e + de)
    return m, e.astype(np.int64)
