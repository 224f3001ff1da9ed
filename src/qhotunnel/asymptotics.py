"""Turning-point map, uniform wavefunction approximation, and the closed
large-n tunnelling-probability expansions.

Positions are scaled so the turning point sits at x = 1 (physical
position nu*x).  The map zeta(x) straightens the turning point to
zeta = 0; phi, b0, a1 are the coefficient functions of the Airy-type
approximation.  Near zeta = 0 all of them are evaluated from the exact
series of the series module (their closed forms are 0/0 there); away
from it the closed forms are used directly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from . import quadrature as _quadrature
from . import series as _series
from .oscillator import OscillatorMode, ScaledValue
from .specialfn import (
    STIRLING_SWITCH,
    DomainError,
    _stirling_remainder,
    ai_squared_moment,
    airy_scaled,
    log_gamma,
)

# Unused here, but perfbench/tracer.py wraps these names in this module, so
# they stay bound.
from .series import (  # noqa: F401
    derive_a1_series,
    derive_b0_series,
    derive_inversion_series,
    derive_phi_series,
    derive_zeta_series,
)
from .specialfn import gamma  # noqa: F401

_X_SERIES_DELTA = 0.05   # closed form for x >= 1 + delta, series below
_ZETA_SWITCH = 0.1       # same idea for phi/b0/a1
_SERIES_ORDER = 13

_GAMMA_THIRD = 2.6789385347077475    # Gamma(1/3)
_GAMMA_2THIRDS = 1.3541179394264005  # Gamma(2/3)
_HALF_LN_2PI = 0.9189385332046727    # (1/2) ln 2pi

FORMS = ("eq41", "eq42", "numeric42", "jadczyk13")


@dataclass(frozen=True)
class ZetaPoint:
    x: float
    zeta: float


@dataclass(frozen=True)
class ExpansionResult:
    """Evaluated asymptotic expansion with its per-order breakdown."""

    value: float
    terms: tuple[tuple[str, float], ...]
    last_term_estimate: float


@lru_cache(maxsize=None)
def _coeffs(family: str) -> tuple[float, ...]:
    """Float coefficients of series.derive_<family>_series, derived on first use.

    The derivation is looked up on the series module at call time, so a
    wrapper installed there (perfbench/tracer.py) sees the call.
    """
    derive = getattr(_series, f"derive_{family}_series")
    return tuple(derive(_SERIES_ORDER).float_coeffs())


def _horner(coeffs, z: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _zeta32_closed(x: float) -> float:
    """(3/4)(x sqrt(x^2-1) - arccosh x) = zeta^{3/2}, for x >= 1."""
    w = math.sqrt((x - 1.0) * (x + 1.0))
    return 0.75 * (x * w - math.acosh(x))


def zeta_of_x(x: float) -> ZetaPoint:
    """Turning-point map; monotone, zeta(1) = 0."""
    if not x >= 1.0:
        raise DomainError(f"the map is defined for x >= 1, got {x}")
    if x < 1.0 + _X_SERIES_DELTA:
        zeta = _horner(_coeffs("zeta"), x - 1.0) if x > 1.0 else 0.0
    else:
        # the double 2/3 is 2^-53/3 low, so the power alone rounds zeta low by
        # that times ln(zeta^(3/2)) (2.6e-14 at x = 1e150); put it back
        z32 = _zeta32_closed(x)
        zeta = z32 ** (2.0 / 3.0)
        zeta += zeta * (2.0**-53 / 3.0 * math.log(z32))
    if not math.isfinite(zeta):  # x^2 overflows a double from x ~ 1.3e154 on
        raise DomainError(f"the map overflows a double at x = {x}")
    return ZetaPoint(x, zeta)


def x_of_zeta(zeta: float) -> ZetaPoint:
    """Inverse map via Newton on the closed form (series start for small zeta)."""
    if not zeta >= 0.0:
        raise DomainError(f"the inverse map is defined for zeta >= 0, got {zeta}")
    x = _horner(_coeffs("inversion"), zeta)
    if zeta < 0.06:
        return ZetaPoint(x, zeta)
    try:
        target = zeta**1.5
    except OverflowError:
        raise DomainError(f"zeta^(3/2) overflows at zeta = {zeta}") from None
    if zeta > 1.5 or x <= 1.0:
        # large-zeta start: zeta^{3/2} ~ (3/4) x^2 for x >> 1
        x = max(x, math.sqrt(4.0 / 3.0 * target + 1.0))
    for _ in range(60):
        f = _zeta32_closed(x) - target
        df = 1.5 * math.sqrt((x - 1.0) * (x + 1.0))
        step = f / df
        x -= step
        if x <= 1.0:
            x = 1.0 + 1e-15
        if abs(step) <= 1e-15 * x:
            return ZetaPoint(x, zeta)
    raise DomainError(f"Newton iteration for x(zeta) did not converge at zeta = {zeta}")


def _coefficient_functions(p: ZetaPoint) -> tuple[float, float, float]:
    """(phi, b0, a1) at one point of the map.

    Below _ZETA_SWITCH they are the exact series in zeta (the closed forms
    are 0/0 at zeta = 0); beyond it the closed forms in the point's own x.
    """
    zeta = p.zeta
    if zeta < _ZETA_SWITCH:
        return tuple(_horner(_coeffs(family), zeta) for family in ("phi", "b0", "a1"))
    # divided through by x^6 (x^3 where the numerator is x (x^2 - 6)), so that
    # no power of x^2 - 1 overflows before x^2 itself does
    x = p.x
    w2 = (x - 1.0) * (x + 1.0)
    y = 1.0 / (x * x)
    v = w2 * y  # (x^2 - 1) / x^2
    v3 = v**1.5
    z32 = zeta**1.5
    b = -0.5 / math.sqrt(zeta) * ((1.0 - 6.0 * y) / (12.0 * v3) + 5.0 / (24.0 * z32))
    a = (
        (145.0 * y * y + 249.0 * y - 9.0) * y / v**3
        - 7.0 * (1.0 - 6.0 * y) / (v3 * z32)
        - 455.0 / (4.0 * z32 * z32)
    ) / 1152.0
    return zeta / w2, b, a


def phi(zeta: float) -> float:
    """phi(zeta) = zeta/(x^2 - 1); regular and positive, phi(0) = 2^{-2/3}."""
    return _coefficient_functions(x_of_zeta(zeta))[0]


def b0(zeta: float) -> float:
    """First Ai'-channel coefficient function (negative, vanishing at infinity)."""
    return _coefficient_functions(x_of_zeta(zeta))[1]


def a1(zeta: float) -> float:
    """Second Ai-channel coefficient function; the three pole pieces cancel."""
    return _coefficient_functions(x_of_zeta(zeta))[2]


# ---------------------------------------------------------------------------
# Uniform approximation of psi_n
# ---------------------------------------------------------------------------


def _log_norm_prefactor(n: int, nu: float) -> float:
    """ln of the prefactor tying the Airy form to the normalised psi_n:
    ln[2^{(n+1)/2} sqrt(n!) e^{n/2+1/4} / (pi^{1/4} nu^{n+2/3})].

    Beyond STIRLING_SWITCH it is half of _eq41_log_prefactor, whose n ln n
    terms cancel analytically, plus ln[nu^(1/6) / sqrt(2)] with ln nu taken
    as (1/2)[ln 2n + log1p(1/(2n))].  Up to it the five terms (each ~n ln n)
    are summed exactly rounded, which is the more accurate route there.
    """
    if n > STIRLING_SWITCH:
        terms = (
            0.5 * _eq41_log_prefactor(n),
            math.log(n) / 12.0,
            math.log1p(0.5 / n) / 12.0,
            -5.0 / 12.0 * math.log(2.0),
        )
        return math.fsum(terms)
    terms = (
        -0.25 * math.log(math.pi),
        0.5 * (n + 1) * math.log(2.0),
        0.5 * log_gamma(n + 1.0),
        0.25 * (2 * n + 1),
        -(n + 2.0 / 3.0) * math.log(nu),
    )
    return math.fsum(terms)


def uniform_psi_approx(mode: OscillatorMode, x_scaled: float) -> ScaledValue:
    """Airy-type approximation to psi_n(nu * x_scaled), x_scaled >= 1.

    psi_n is proportional to phi^{1/4} [Ai(t) F + nu^{-8/3} Ai'(t) G] with
    t = nu^{4/3} zeta, F = 1 + nu^{-2}/24 + (a1 + 1/576) nu^{-4} and
    G = b0 (1 + nu^{-2}/24): every printed coefficient is kept.
    """
    if not x_scaled >= 1.0:
        raise DomainError(f"uniform approximation needs x_scaled >= 1, got {x_scaled}")
    n, nu = mode.n, mode.nu
    point = zeta_of_x(x_scaled)
    ph, b, a = _coefficient_functions(point)
    nu2 = nu * nu

    F = sum(c * nu2**-k for k, c in enumerate((1.0, 1.0 / 24.0, a + 1.0 / 576.0)))
    G = sum(c * nu2**-k for k, c in enumerate((b, b / 24.0)))

    t = nu ** (4.0 / 3.0) * point.zeta
    ai, aip = airy_scaled(t)
    # Upsilon = Ai(t) F + nu^{-8/3} Ai'(t) G, combined on Ai's exponent
    de = aip.exponent - ai.exponent
    ups = ai.mantissa * F
    if aip.mantissa != 0.0:
        ups += math.ldexp(aip.mantissa, max(min(de, 1000), -1000)) * nu ** (-8.0 / 3.0) * G

    amp = math.exp(_log_norm_prefactor(n, nu)) * ph**0.25 * ups
    out = ScaledValue.from_float(amp)
    if out.mantissa == 0.0:
        return out
    return ScaledValue(out.mantissa, out.exponent + ai.exponent)


# ---------------------------------------------------------------------------
# Asymptotics of the two density integrals
# ---------------------------------------------------------------------------


def _check_expansion(nu: float, M: int, top: int) -> int:
    """M as an int, refused before any work unless it is an integral 1..top and nu a state's."""
    try:
        M = operator.index(M)
    except TypeError:
        raise TypeError(f"M must be an integer, got {M!r}") from None
    if not 1 <= M <= top:
        raise ValueError(f"M must be 1..{top}")
    if not 1.0 <= nu < math.inf:  # nu = sqrt(2n + 1) >= 1 for every state
        raise DomainError(f"the expansions need finite nu >= 1, got {nu}")
    return M


def integral_phi_ai2_asym(nu: float, M: int) -> ExpansionResult:
    """Watson expansion of the integral of phi(zeta) Ai^2(nu^{4/3} zeta)."""
    M = _check_expansion(nu, M, 5)
    alphas = _coeffs("phi")
    terms = []
    for m in range(M):
        c = alphas[m] * ai_squared_moment(m)
        p = -4.0 * m / 3.0 - 4.0 / 3.0
        terms.append((_nu_label(p), c * nu**p))
    value = math.fsum(v for _, v in terms)
    return ExpansionResult(value, tuple(terms), abs(terms[-1][1]))


def integral_phib0_dai2_asym(nu: float, M: int) -> ExpansionResult:
    """Watson expansion of the integral of phi b0 [Ai^2]'(nu^{4/3} zeta).

    [Ai^2]' means 2 Ai Ai' evaluated at the stretched argument.  The
    leading term is the boundary contribution at zeta = 0.
    """
    M = _check_expansion(nu, M, 4)
    betas = _coeffs("beta")
    terms = [(_nu_label(-4.0 / 3.0), betas[0] * (3.0 * nu) ** (-4.0 / 3.0) / _GAMMA_2THIRDS**2)]
    for m in range(1, M):
        c = betas[m] * m * ai_squared_moment(m - 1)
        p = -4.0 * m / 3.0 - 4.0 / 3.0
        terms.append((_nu_label(p), c * nu**p))
    value = math.fsum(v for _, v in terms)
    return ExpansionResult(value, tuple(terms), abs(terms[-1][1]))


def _nu_label(p: float) -> str:
    if p == 0.0:
        return "nu^0"
    num = round(p * 3)
    if num % 3 == 0:
        return f"nu^({num // 3})"
    return f"nu^({num}/3)"


# ---------------------------------------------------------------------------
# Closed tunnelling-probability expansions
# ---------------------------------------------------------------------------


# eq41's six coefficients, typed from the paper: _B0C, _B1C, _A2 and _A3 are
# the first four terms of integral_phi_ai2_asym(1.0, 4), _C0 and _C1 the first
# two of integral_phib0_dai2_asym(1.0, 2)
_B0C = 6.0 ** (-2.0 / 3.0) / _GAMMA_THIRD**2
_B1C = -1.0 / (30.0 * math.pi * math.sqrt(3.0))
_A2 = 4.0 / 525.0 * 6.0 ** (-1.0 / 3.0) / _GAMMA_2THIRDS**2
_A3 = -16.0 / 525.0 * 6.0 ** (-2.0 / 3.0) / _GAMMA_THIRD**2
_C0 = 3.0 / 280.0 * 6.0 ** (-1.0 / 3.0) / _GAMMA_2THIRDS**2
_C1 = -179.0 / 6300.0 * 6.0 ** (-2.0 / 3.0) / _GAMMA_THIRD**2

# eq41 multiplied out to nu^(-14/3): its weights give 1/12 at nu^-2 and
# -29/2400 at nu^-4
_EQ41_POWER = (_B0C, _B1C, _A2 + _C0, _A3 + _C1 - 29.0 / 2400.0 * _B0C)
# eq42 is eq41 with its prefactor expanded as well:
#   exp(_eq41_log_prefactor(n)) / (2^(5/3) n^(-1/3)) = 1 - 5/(12 nu^2) - 23/(288 nu^4) + O(nu^-6),
# so the weight at nu^-2 becomes 1/12 - 5/12 = -1/3 and the nu^-4 coefficient
# takes -29/2400 - (5/12)(1/12) - 23/288 = -19/150 times _B0C
_EQ42_POWER = (_B0C, _B1C, _A2 + _C0, _A3 + _C1 - 19.0 / 150.0 * _B0C)
# the paper's decimal insertion of eq42's coefficients times 2^(5/3); the
# nu^(-8/3) entry is positive
_NUMERIC42_POWER = (0.1339750, -0.0194484, 0.0174687, -0.0248598)


def tunnel_probability_asym(mode: OscillatorMode, form: str = "eq42") -> ExpansionResult:
    """Closed asymptotic value of the tunnelling probability for state n.

    Forms: 'eq41' keeps the exact gamma-function prefactor (assembled in
    log space); its terms are the power terms to nu^(-14/3), each times that
    prefactor, and a last term, the remainder beyond nu^(-14/3).  'eq42' is
    the fully expanded power form; 'numeric42' the same with the decimal
    coefficients; 'jadczyk13' the two-term comparison form in powers of n.
    """
    n, nu = mode.n, mode.nu
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; choose from {FORMS}")
    if n < 1:
        raise DomainError("the closed expansions need n >= 1")

    if form == "jadczyk13":
        pre = n ** (-1.0 / 3.0)
        t0 = pre * 0.133975
        t1 = pre * (-0.0122518) * n ** (-2.0 / 3.0)
        return ExpansionResult(t0 + t1, (("n^0", t0), ("n^(-2/3)", t1)), abs(t1))

    if form == "eq41":
        pre = math.exp(_eq41_log_prefactor(n))
        nu2 = nu * nu
        w = 1.0 + 1.0 / (12.0 * nu2) - 29.0 / (2400.0 * nu2 * nu2)
        group1 = w * (_B0C + _B1C * nu ** (-4.0 / 3.0) + _A2 * nu ** (-8.0 / 3.0) + _A3 / (nu2 * nu2))
        group2 = nu ** (-8.0 / 3.0) * (1.0 + 1.0 / (12.0 * nu2)) * (_C0 + _C1 * nu ** (-4.0 / 3.0))
        value = pre * (group1 + group2)
        terms = _power_terms(pre, nu, _EQ41_POWER, 1.0 / 12.0)
        terms += (("nu^(-16/3)", value - math.fsum(v for _, v in terms)),)
        return ExpansionResult(value, terms, abs(terms[-1][1]))

    if form == "eq42":
        terms = _power_terms(2.0 ** (5.0 / 3.0) * n ** (-1.0 / 3.0), nu, _EQ42_POWER, -1.0 / 3.0)
    else:  # numeric42
        terms = _power_terms(n ** (-1.0 / 3.0), nu, _NUMERIC42_POWER, -1.0 / 3.0)
    return ExpansionResult(math.fsum(v for _, v in terms), terms, abs(terms[-1][1]))


def _power_terms(pre, nu, b, w):
    """The seven labelled terms of pre (b0 + b1 nu^-4/3 + b2 nu^-8/3 + b3 nu^-4)
    (1 + w nu^-2), to nu^(-14/3)."""
    nu2 = nu * nu
    return (
        ("nu^0", pre * b[0]),
        ("nu^(-4/3)", pre * b[1] * nu ** (-4.0 / 3.0)),
        ("nu^(-2)", pre * w * b[0] / nu2),
        ("nu^(-8/3)", pre * b[2] * nu ** (-8.0 / 3.0)),
        ("nu^(-10/3)", pre * w * b[1] * nu ** (-10.0 / 3.0)),
        ("nu^(-4)", pre * b[3] / (nu2 * nu2)),
        ("nu^(-14/3)", pre * w * b[2] * nu ** (-14.0 / 3.0)),
    )


def _eq41_log_prefactor(n: int) -> float:
    """ln[2^{n+2} n! e^{n+1/2} / (sqrt(pi) nu^{2n+5/3})] with nu^2 = 2n + 1.

    With Stirling's remainder S(n) = ln n! - (n + 1/2) ln n + n - (1/2) ln 2pi
    and ln nu = (1/2) ln 2n + (1/2) log1p(1/(2n)), the n ln n terms cancel
    analytically and every term left is O(ln n).
    """
    if n > STIRLING_SWITCH:
        s = _stirling_remainder(float(n))
    else:
        s = math.fsum((log_gamma(n + 1.0), -(n + 0.5) * math.log(n), n, -_HALF_LN_2PI))
    terms = (
        5.0 / 3.0 * math.log(2.0),
        -math.log(n) / 3.0,
        0.5,
        s,
        -(n + 5.0 / 6.0) * math.log1p(0.5 / n),
    )
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Oracle-versus-expansion table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    n: int
    p_exact: float
    p_asym: float
    rel_error: float


def relative_error_table(ns, tol: float = 1e-13, form: str = "eq42") -> list[TableRow]:
    """One row per n: oracle value, closed expansion, relative deviation."""
    rows = []
    for n in ns:
        mode = OscillatorMode(n)
        p_exact = _quadrature.tunnel_probability_exact(mode, tol)
        p_asym = tunnel_probability_asym(mode, form).value
        rows.append(TableRow(n, p_exact, p_asym, abs(p_exact - p_asym) / p_exact))
    return rows
