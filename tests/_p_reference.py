"""Frozen tunnelling probabilities P_n = 2 int_nu^inf psi_n^2, at nu = sqrt(2n+1).

The values come from ``regenerate()``: mpmath at 60 digits evaluates the
ladder identity

    int_x^inf psi_n^2 = erfc(x)/2 + sum_{k<n} psi_k(x) psi_{k+1}(x) / sqrt(2(k+1))

at the exact turning point (the square root is taken inside the 60-digit
context, so nu is not rounded to a double), with psi_k from the orthonormal
recurrence, and rounds them to 40 significant digits.  The identity's
independence from the package's oracle lies in the arithmetic, not in the
formula, so ``regenerate()`` also checks it against ``mp.quad`` of the
density, with psi_n from ``mpmath.hermite``, for n <= 50.  It takes about
six seconds.  Run ``python -m tests._p_reference`` to recompute and compare.
"""

P_REFERENCE = {
    0: "0.1572992070502851306587793649173907407039",
    1: "0.1116102250947125599770286346470472324627",
    2: "0.09506943488572630961869376858971452531936",
    7: "0.0670312787907018705930849507434939533863",
    10: "0.06014381449057185543302643823236423614766",
    20: "0.04839766284623238208345848679872968140129",
    50: "0.03601316393348750320553223632459452270862",
    100: "0.02869731584977520476204148906577592398962",
    200: "0.02283023064748915891272352551201061509461",
    400: "0.01814535592270654940306032348144739231142",
    500: "0.01684990478406580448118556700566704297928",
    800: "0.01441380537524638566841914852527354365423",
    2000: "0.01062661166833907483697895615362945522648",
    5200: "0.007730540833420154635973263761249351341441",
    9800: "0.006259230713483375329250813652547929960181",
    100000: "0.002886275881653505212262460588228303378097",
}


def _identity(n, mp):
    """2 int_nu^inf psi_n^2 at the exact nu, by the ladder identity, in mp's context."""
    x = mp.sqrt(2 * n + 1)
    prev, cur = mp.mpf(0), mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2)
    total = mp.erfc(x) / 2
    for k in range(n):
        c1 = mp.sqrt(mp.mpf(2) / (k + 1))
        nxt = x * c1 * cur - mp.sqrt(mp.mpf(k) / (k + 1)) * prev
        total += cur * nxt * c1 / 2  # c1 / 2 = 1 / sqrt(2(k+1))
        prev, cur = cur, nxt
    return 2 * total


def _quadrature(n, mp):
    """2 int_nu^inf psi_n^2 by mp.quad of the density, with H_n from mpmath.hermite."""
    x0 = mp.sqrt(2 * n + 1)
    norm = 1 / (mp.sqrt(mp.pi) * mp.mpf(2) ** n * mp.factorial(n))
    density = lambda t: norm * mp.exp(-t * t) * mp.hermite(n, t) ** 2
    return 2 * mp.quad(density, [x0, x0 + 1, x0 + 4, mp.inf])


def regenerate() -> dict[int, str]:
    """P_n to 40 significant digits at every n of P_REFERENCE."""
    from mpmath import mp

    with mp.workdps(60):
        values = {n: _identity(n, mp) for n in P_REFERENCE}
        for n, p in values.items():
            if n <= 50:
                q = _quadrature(n, mp)
                if abs(q / p - 1) > mp.mpf("1e-40"):
                    raise AssertionError(f"identity and quadrature differ at n = {n}: {p} vs {q}")
        return {n: mp.nstr(p, 40) for n, p in values.items()}


if __name__ == "__main__":
    fresh = regenerate()
    stale = [n for n in P_REFERENCE if fresh[n] != P_REFERENCE[n]]
    for n in stale:
        print(f"stale P_REFERENCE[{n}]: have {P_REFERENCE[n]}, recomputed {fresh[n]}")
    print("stale" if stale else "all frozen values reproduce")
