"""P_n = 2 int_nu^inf psi_n^2 by the ladder identity, in Python ints: a fast exact-arithmetic reference.

The identity

    int_x^inf psi_n^2 = erfc(x)/2 + sum_{k<n} psi_k(x) psi_{k+1}(x) / sqrt(2(k+1))

is evaluated at the exact turning point nu = sqrt(2n+1) with every psi_k
a fixed-point integer of Q = 128 fraction bits.  psi_0(nu) =
pi^(-1/4) e^(-(2n+1)/2) and erfc(nu)/2 come from 50-digit mpmath; the
recurrence's coefficients nu sqrt(2/(k+1)) = sqrt(2(2n+1)/(k+1)) and
sqrt(k/(k+1)) from ``math.isqrt``, each short by at most one unit of
2^-Q.  Each product is truncated by ``>> Q``, and the pair is shifted
back to Q bits once its leading member passes Q + 8, the sum by twice as
much.  With nu sqrt(2/(k+1)) / (2 nu) = 1 / sqrt(2(k+1)), the sum runs over
psi_k psi_{k+1} times the step's own coefficient and is divided by 2 nu
once at the end.  At nu every term is positive, so the truncations, about
n units of 2^-Q, cannot cancel the sum.  No package code is used: the
reference's independence from the oracle lies in its arithmetic.  It costs
about 0.2 s at n = 10^5.  ``python -m tests._int_reference N [N ...]``
prints each P_n to 30 digits.
"""

from __future__ import annotations

import math

import mpmath

Q = 128


def tunnel_probability(n: int) -> mpmath.mpf:
    """P_n at the exact turning point, to about n 2^-128 relative, as a 50-digit mpmath number."""
    with mpmath.workdps(50):
        nu = mpmath.sqrt(2 * n + 1)
        half_erfc = mpmath.erfc(nu) / 2
        m0, e = mpmath.frexp(mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-mpmath.mpf(2 * n + 1) / 2))
        m = int(mpmath.ldexp(m0, Q))  # psi_k = m 2^(e - Q), the sum s 2^(2 (e - Q))
    pm, s = 0, 0
    top, one = 2 * (2 * n + 1) << 2 * Q, 1 << 2 * Q
    for k in range(n):
        a = math.isqrt(top // (k + 1))
        b = math.isqrt(k * one // (k + 1))
        m, pm = (a * m - b * pm) >> Q, m
        s += (a * m * pm) >> Q
        if m.bit_length() > Q + 8:
            sh = m.bit_length() - Q
            m, pm, s, e = m >> sh, pm >> sh, s >> 2 * sh, e + sh
    with mpmath.workdps(50):
        return 2 * (half_erfc + mpmath.ldexp(s, 2 * (e - Q)) / (2 * nu))


if __name__ == "__main__":
    import sys

    for n in map(int, sys.argv[1:]):
        print(n, mpmath.nstr(tunnel_probability(n), 30))
