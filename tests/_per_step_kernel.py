"""Reference kernel: the scaled recurrence renormalised after every step.

Each value is carried as (mantissa in [1/2,1), base-2 exponent) and the
previous value is shifted onto the current exponent on every step.  The
package kernel renormalises only once per block; power-of-two rescaling
is exact, so the two must agree bit for bit wherever this one is finite.
This one overflows for subnormal x (|x| below about 2^-1022, n >= 2),
where ``ldexp(pm, pe - e)`` is asked for a shift beyond the double range.

tail_point is the one-point loop with the tail identity summed over all
n terms, the reference for the kernel's sum over the turning-point layer.
reduced_point reaches the window's first step by cyclic reduction of
psi_{k+2} = alpha_k psi_k - c_k psi_{k-2}, level by level in lists of
scalars, with each coefficient and each Dekker product formed where it is
used, and runs the last level renormalised after every step.
"""

from __future__ import annotations

import math

import numpy as np

from qhotunnel import oscillator
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


def reduced_point(n: int, x: float, start: int) -> tuple[float, int, float, int]:
    """As tail_point, but summing from step start on, which it reaches 2^j orders a step by cyclic reduction.

    The two-step chain has start's parity and begins at psi_0 or at
    psi_1 = fl(x sqrt(2)) psi_0. Its step at k takes
    alpha_k = a_k (x^2 - k - 1/2), with a_k = 2/sqrt((k+1)(k+2)), rounded
    once from a_k times x^2 = h + lo: fl(p + (pe + a_k lo)), where
    p + pe = a_k (h - (k + 1/2)) exactly, and c_k = sqrt(k(k-1)/((k+1)(k+2))).
    Each level of stride s keeps the steps at k with start - k a multiple of
    2s, with A_k = alpha_{k+s} alpha_k - c_{k+s} - q_k and C_k = q_k c_{k-s},
    q_k = alpha_{k+s} c_k / alpha_{k-s} rounded left to right and A_k rounded
    once from the Dekker product p + pe = alpha_{k+s} alpha_k, as
    fl(p + ((pe - c_{k+s}) - q_k)); at the chain's first step, whose c is 0
    and which has none before it, q_k = 0. A step left out at the chain's
    front is taken at once. Levels are added while the last holds
    _TWO_STEP_MIN / 2 steps or more and the next one's steps grow psi by at
    most (x sqrt(2))^(2s) <= 2^_BLOCK_LOG2_RANGE. The last
    level runs renormalised after every step; then each level down gives
    psi_{start-s} = (psi_start + c_{start-s} psi_{start-2s}) / alpha_{start-s},
    and psi_{start-1} follows from the one-step recurrence at step
    start - 1, solved for it.
    """
    m0, e0 = _seed_point(x)
    h, hlo = _dekker(x, x)
    p = start % 2
    ks, alpha, c = list(range(p, start - 1, 2)), [], []
    for k in ks:
        q = (k + 1.0) * (k + 2.0)
        a = 2.0 / math.sqrt(q)
        prod, err = _dekker(a, h - (k + 0.5))
        alpha.append(prod + (err + a * hlo))
        c.append(math.sqrt(k * (k - 1.0) / q))
    m = x * math.sqrt(2.0) * m0 if p else m0
    s, last = 2, []
    while len(ks) >= oscillator._TWO_STEP_MIN // 2 and 2 * s * math.log2(x * math.sqrt(2.0)) <= oscillator._BLOCK_LOG2_RANGE:
        last.append((alpha[-1], c[-1]))
        at = {k: i for i, k in enumerate(ks)}
        if (start - ks[0]) % (2 * s):
            m *= alpha[0]
        kept = [k for k in ks if (start - k) % (2 * s) == 0]
        big, small = [], []
        for k in kept:
            i, j = at[k], at[k + s]
            q = alpha[j] * c[i] / alpha[at[k - s]] if k > ks[0] else 0.0
            prod, err = _dekker(alpha[j], alpha[i])
            big.append(prod + ((err - c[j]) - q))
            small.append(q * c[at[k - s]] if k > ks[0] else 0.0)
        ks, alpha, c, s = kept, big, small, 2 * s
    m, e = math.frexp(m)
    pm, e = 0.0, e0 + e
    for a, b in zip(alpha, c):
        m, pm = a * m - pm * b, m
        _, sh = math.frexp(max(abs(m), abs(pm)))
        e += sh
        m, pm = math.ldexp(m, -sh), math.ldexp(pm, -sh)
    for a, b in reversed(last):
        pm = (m + b * pm) / a
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
