"""Special functions: Ai/Ai', gamma, log-gamma, erfc, Ai^2 moments.

Gamma, ln Gamma and erfc come from the standard `math` module, behind
typed domain checks; ln Gamma switches to the Stirling series beyond 20,
whose remainder the eq41 prefactor uses on its own.  The Airy pair is
built here (a double-double Maclaurin series and the exponentially
scaled asymptotic expansion), because the uniform approximation needs
Ai far below the double underflow point; the test suite cross-validates
the two Airy routes where they overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _dd
from ._dd import dd_add, dd_div_d, dd_mul, dd_mul_d, dd_sqrt, two_prod
from .oscillator import ScaledValue

AIRY_SWITCH = 9.0  # Maclaurin pair below, exponentially-scaled asymptotics above

# Ai(0) and Ai'(0) as double-doubles
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_AIP0 = (-0.2588194037928068, 2.522243111610832e-17)

_SQRT_PI = 1.7724538509055159
_HALF_LN_2PI = 0.9189385332046727


class DomainError(ValueError):
    """Argument outside the supported domain."""


@dataclass(frozen=True)
class AiryPair:
    ai: float
    ai_prime: float


def _airy_series_dd(t: float) -> tuple[float, float]:
    """Maclaurin pair series for (Ai, Ai') in double-double arithmetic.

    The two basis series grow like e^{(2/3)t^{3/2}} while Ai decays, so
    ~10 digits cancel at t ~ 9; the doubled precision absorbs that.
    """
    th, tl = two_prod(t, t)
    x3h, x3l = dd_mul_d(th, tl, t)  # t^3 to ~1e-32

    tf = (1.0, 0.0)
    tg = (t, 0.0)
    tfp = (0.5 * th, 0.5 * tl)  # f' term of index 1: t^2/2
    tgp = (1.0, 0.0)
    sf, sg, sfp, sgp = tf, tg, tfp, tgp

    for k in range(0, 90):
        tf = dd_div_d(*dd_mul(*tf, x3h, x3l), (3 * k + 2) * (3 * k + 3))
        tg = dd_div_d(*dd_mul(*tg, x3h, x3l), (3 * k + 3) * (3 * k + 4))
        tgp = dd_div_d(*dd_mul(*tgp, x3h, x3l), (3 * k + 1) * (3 * k + 3))
        sf = dd_add(*sf, *tf)
        sg = dd_add(*sg, *tg)
        sgp = dd_add(*sgp, *tgp)
        if k >= 1:
            # f' terms use c_k = a_k*3k; index k+1 from index k (exact factors)
            tfp = dd_mul_d(*tfp, float(k + 1))
            tfp = dd_div_d(*dd_mul(*tfp, x3h, x3l), k * (3 * k + 2) * (3 * k + 3))
            sfp = dd_add(*sfp, *tfp)
        if abs(tf[0]) < 1e-36 * abs(sf[0]) and abs(tg[0]) < 1e-36 * max(abs(sg[0]), 1e-300):
            break

    ai = dd_add(*dd_mul(*_AI0, *sf), *dd_mul(*_AIP0, *sg))
    aip = dd_add(*dd_mul(*_AI0, *sfp), *dd_mul(*_AIP0, *sgp))
    return ai[0] + ai[1], aip[0] + aip[1]


def _airy_asymptotic_scaled(t: float) -> tuple[ScaledValue, ScaledValue]:
    """Scaled (Ai, Ai') for large t from the exponentially-scaled expansion."""
    sh, sl = dd_sqrt(t, 0.0)
    tsh, tsl = dd_mul(t, 0.0, sh, sl)
    xih, xil = dd_div_d(tsh, tsl, 1.5)  # (2/3) t^{3/2}
    lh, ll = _dd.log2_exp_neg(xih, xil)
    m_exp, e_exp = _dd.exp2_scaled(lh, ll)

    xi = xih
    s_ai = 1.0
    s_aip = 1.0
    u = 1.0
    term_prev = 1.0
    for k in range(0, 40):
        u_next = u * (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1))
        term = u_next / xi ** (k + 1)
        if term > term_prev:  # divergence onset
            break
        sign = -1.0 if (k + 1) % 2 else 1.0
        s_ai += sign * term
        v_next = -u_next * (6 * (k + 1) + 1) / (6 * (k + 1) - 1)
        s_aip += sign * v_next / xi ** (k + 1)
        u = u_next
        term_prev = term
        if term < 1e-18:
            break

    t4 = t ** 0.25
    ai = ScaledValue.from_float(m_exp * s_ai / (2.0 * _SQRT_PI * t4))
    aip = ScaledValue.from_float(-m_exp * t4 * s_aip / (2.0 * _SQRT_PI))
    return (
        ScaledValue(ai.mantissa, ai.exponent + e_exp),
        ScaledValue(aip.mantissa, aip.exponent + e_exp),
    )


def airy_scaled(t: float) -> tuple[ScaledValue, ScaledValue]:
    """(Ai(t), Ai'(t)) as ScaledValues, t >= 0.

    The scaled form stays meaningful far beyond the double underflow
    point (Ai(200) ~ 1e-819), which the uniform approximation needs.
    """
    if not t >= 0.0:
        raise DomainError(f"airy requires t >= 0, got {t}")
    if t <= AIRY_SWITCH:
        a, ap = _airy_series_dd(t)
        return ScaledValue.from_float(a), ScaledValue.from_float(ap)
    return _airy_asymptotic_scaled(t)


def airy(t: float) -> AiryPair:
    """Ai and Ai' at t >= 0 as doubles (underflowing beyond t ~ 108)."""
    a, ap = airy_scaled(t)
    return AiryPair(a.to_float(), ap.to_float())


# Gamma, log-gamma, erfc ------------------------------------------------------

# math.lgamma below, the Stirling series above. The series stays because
# its remainder cancels the eq41 prefactor's n ln n terms analytically, and
# because validate's printed deviations depend on its rounding (math.lgamma
# differs by 1 ulp at 401 and moves the n = 400 line).
STIRLING_SWITCH = 20.0

# B_{2k} / (2k (2k-1)) for the Stirling tail
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
)


def gamma(x: float) -> float:
    """Gamma(x) for finite x > 0, wherever it is a finite double."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma requires finite x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) overflows a double") from None


def _stirling_remainder(x: float) -> float:
    """ln Gamma(x) - (x - 1/2) ln x + x - (1/2) ln 2pi (DLMF 5.11.1), x > STIRLING_SWITCH."""
    acc = 0.0
    xk = x
    x2 = x * x
    for c in _STIRLING:
        acc += c / xk
        xk *= x2
    return acc


def log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma requires finite x > 0, got {x}")
    if x > STIRLING_SWITCH:
        out = (x - 0.5) * math.log(x) - x + _HALF_LN_2PI + _stirling_remainder(x)
        if out == math.inf:
            raise DomainError(f"log_gamma({x}) overflows a double")
        return out
    return math.lgamma(x)


def erfc(x: float) -> float:
    """Complementary error function; 0, 2 and nan at inf, -inf and nan."""
    return math.erfc(x)


# Airy-squared moments --------------------------------------------------------


# m! stops being a finite double past 170
_MOMENT_MAX = 170


def ai_squared_moment(m: int) -> float:
    """Closed form for the integral of t^m Ai^2(t) over [0, inf), 0 <= m <= 170."""
    if m < 0:
        raise DomainError(f"moment order must be >= 0, got {m}")
    if m > _MOMENT_MAX:
        raise DomainError(f"moment order must be <= {_MOMENT_MAX}, got {m}: m! overflows a double")
    return (
        2.0
        * math.factorial(m)
        * 12.0 ** (-(m / 3.0 + 7.0 / 6.0))
        / (_SQRT_PI * gamma(m / 3.0 + 7.0 / 6.0))
    )
