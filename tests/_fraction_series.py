"""Reference series kernels: ring arithmetic on ExactCoefficients of Fractions.

Every ring product goes through ``ExactCoefficient.__mul__`` (about twenty
Fraction operations, each with its gcd).  The package kernels carry whole
series as integer triples over one common denominator instead.  Series
products, inverses, rational powers and compositions are unique, so the
two must agree coefficient for coefficient, with ``==``.
"""

from __future__ import annotations

from fractions import Fraction

from qhotunnel.series import ONE, ZERO, ZeroLeadingTerm


def _mul_lists(a, b, m):
    out = [ZERO] * m
    for i, ai in enumerate(a[:m]):
        if ai.is_zero:
            continue
        for j, bj in enumerate(b[: m - i]):
            if bj.is_zero:
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _inv_list(a):
    if a[0].is_zero:
        raise ZeroLeadingTerm("series inverse needs a nonzero constant term")
    m = len(a)
    inv0 = a[0].inverse()
    out = [inv0] + [ZERO] * (m - 1)
    for k in range(1, m):
        acc = ZERO
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out[k] = -(inv0 * acc)
    return out


def _binomial_list(t, r: Fraction):
    """(1 + w)^r for t = 1 + w (t[0] must be ONE), rational exponent r."""
    m = len(t)
    y = [ONE] + [ZERO] * (m - 1)
    for k in range(1, m):
        acc = ZERO
        for i in range(1, k + 1):
            acc = acc + (t[i] * i) * y[k - i] * r
        for i in range(1, k):
            acc = acc - (y[i] * i) * t[k - i]
        y[k] = acc * Fraction(1, k)
    return y


def _compose_lists(f, g, m):
    out = [ZERO] * m
    out[0] = f[m - 1]
    for k in range(m - 2, -1, -1):
        out = _mul_lists(out, g, m)
        out[0] = out[0] + f[k]
    return out


KERNELS = {
    "_mul_lists": _mul_lists,
    "_inv_list": _inv_list,
    "_binomial_list": _binomial_list,
    "_compose_lists": _compose_lists,
}
