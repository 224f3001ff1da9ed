"""Reference series kernels: schoolbook recurrences on plain Fractions.

They take and return the package kernels' (denominator, numerators) pairs,
but convert them to Fractions and do every operation there (each with its
gcd).  The package kernels work on integer numerators over one common
denominator instead.  Series products, powers and compositions are unique,
so any route to one must agree with these coefficient for coefficient, with
``==``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _fractions(pair):
    d, nums = pair
    return [Fraction(n, d) for n in nums]


def _pair(fracs):
    d = math.lcm(*(f.denominator for f in fracs))
    return d, [f.numerator * (d // f.denominator) for f in fracs]


def _mul_fracs(a, b, m):
    out = [Fraction(0)] * m
    for i, ai in enumerate(a[:m]):
        for j, bj in enumerate(b[: m - i]):
            out[i + j] += ai * bj
    return out


def _mul(a, b, m):
    return _pair(_mul_fracs(_fractions(a), _fractions(b), m))


def _binomial(t, r: Fraction):
    """t^r for t with constant term 1: k y_k = sum_i (r i t_i y_{k-i}) - sum_i (i y_i t_{k-i})."""
    t = _fractions(t)
    y = [Fraction(1)]
    for k in range(1, len(t)):
        acc = sum(r * i * t[i] * y[k - i] for i in range(1, k + 1))
        acc -= sum(i * y[i] * t[k - i] for i in range(1, k))
        y.append(acc / k)
    return _pair(y)


def _compose(f, g, m):
    f, g = _fractions(f), _fractions(g)
    out = [f[m - 1]] + [Fraction(0)] * (m - 1)
    for k in range(m - 2, -1, -1):
        out = _mul_fracs(out, g, m)
        out[0] += f[k]
    return _pair(out)


# the package has no power or composition kernel: _binomial rebuilds s(u) by
# powers and _compose checks the reversion u(s) in the tests
KERNELS = {"_mul": _mul}
