"""Special functions: Ai/Ai', gamma, log-gamma, erfc, Ai^2 moments.

Gamma, ln Gamma and erfc come from the standard `math` module, behind
typed domain checks.  The Airy pair is built here, because the uniform
approximation needs Ai far below the double underflow point: a Maclaurin
series and the exponentially scaled asymptotic expansion, whose exponent
e^{-(2/3)t^{3/2}} is split into a mantissa and a power of two.  Both run
in one 40-digit `decimal` context, which absorbs the series' cancellation
and carries the exponent's fraction to full double accuracy.  The test
suite cross-validates the two Airy routes where they overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

from .oscillator import ScaledValue

AIRY_SWITCH = 9.0  # Maclaurin pair below, exponentially-scaled asymptotics above

_CTX = Context(prec=40)
_AI0 = Decimal("0.355028053887817239260063186004183176397979174")  # Ai(0)
_AIP0 = Decimal("-0.258819403792806798405183560189203963479091138")  # Ai'(0)
_LN2 = Decimal("0.693147180559945309417232121458176568075500134")

_SQRT_PI = 1.7724538509055159


class DomainError(ValueError):
    """Argument outside the supported domain."""


@dataclass(frozen=True)
class AiryPair:
    ai: float
    ai_prime: float


def _airy_series(t: float) -> tuple[float, float]:
    """Maclaurin pair series for (Ai, Ai') at 40 digits.

    Ai = Ai(0) f + Ai'(0) g with f = sum t^{3k}/[(2*3)(5*6)...] and
    g = sum t^{3k+1}/[(3*4)(6*7)...].  The two basis series grow like
    e^{(2/3)t^{3/2}} while Ai decays, so ~10 digits cancel at t ~ 9; the
    40-digit context absorbs that, and each result is rounded once.
    """
    with localcontext(_CTX):
        x = Decimal(t)
        x3 = x * x * x
        tf, tg, tfp, tgp = Decimal(1), x, x * x / 2, Decimal(1)  # f'(t) starts at t^2/2
        sf, sg, sfp, sgp = tf, tg, tfp, tgp
        for k in range(90):
            tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
            tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
            tfp = tfp * x3 / ((3 * k + 3) * (3 * k + 5))
            tgp = tgp * x3 / ((3 * k + 1) * (3 * k + 3))
            grown = (sf + tf, sg + tg, sfp + tfp, sgp + tgp)
            if grown == (sf, sg, sfp, sgp):  # every term is below the sums' last digit
                break
            sf, sg, sfp, sgp = grown
        return float(_AI0 * sf + _AIP0 * sg), float(_AI0 * sfp + _AIP0 * sgp)


def _airy_asymptotic_scaled(t: float) -> tuple[ScaledValue, ScaledValue]:
    """Scaled (Ai, Ai') for large t from the exponentially-scaled expansion."""
    with localcontext(_CTX):
        xi_d = Decimal(t).sqrt() * Decimal(t) * 2 / 3  # (2/3) t^{3/2}
        l2 = -xi_d / _LN2  # log2 e^{-xi}
        e_exp = math.floor(l2)
        frac = float(l2 - e_exp)
        xi = float(xi_d)
    # e^{-xi} = m_exp * 2^e_exp, m_exp in [1, 2]
    m_exp = 2.0**frac

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
        a, ap = _airy_series(t)
        return ScaledValue.from_float(a), ScaledValue.from_float(ap)
    return _airy_asymptotic_scaled(t)


def airy(t: float) -> AiryPair:
    """Ai and Ai' at t >= 0 as doubles (underflowing beyond t ~ 108)."""
    a, ap = airy_scaled(t)
    return AiryPair(a.to_float(), ap.to_float())


# Gamma, log-gamma, erfc ------------------------------------------------------

# Beyond this the Stirling remainder below is accurate to a double; both
# prefactors in asymptotics use it there to cancel their n ln n terms.
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
    """ln Gamma(x) for finite x > 0, wherever it is a finite double."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma requires finite x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma({x}) overflows a double") from None


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
