"""Normalised harmonic-oscillator eigenfunctions, stable for any n and x.

The eigenfunction psi_n(x) = pi^{-1/4} (2^n n!)^{-1/2} e^{-x^2/2} H_n(x)
is evaluated through the orthonormal three-term recurrence

    psi_{k+1}(x) = x*sqrt(2/(k+1))*psi_k(x) - sqrt(k/(k+1))*psi_{k-1}(x)

so that all intermediate quantities stay of moderate size; values are
carried as (mantissa, base-2 exponent) pairs because deep in the
classically forbidden region psi_n underflows the IEEE double range by
thousands of binary orders.

The kernel, psi_scaled_grid, runs the recurrence in numpy on a grid of
positions.  It is seeded by psi_0(x) = pi^{-1/4} e^{-x^2/2}, whose base-2
logarithm is split with Dekker's exact product (the package's only one).
The pair (psi_k, psi_{k-1}) is carried as two mantissa arrays sharing one
base-2 exponent array, and is rescaled by a power of two, taken from the
larger of the two, once every B steps (block renormalisation; Gil, Segura
& Temme, *Numerical Methods for Special Functions*, ch. 4).  Per step
max(|psi_k|, |psi_{k-1}|) grows or shrinks by at most a factor
2*sqrt(2)*(|x| + 1), so B (at most 64) is chosen from the grid's largest
|x| to keep the unnormalised mantissas within 2^(+-900).  Power-of-two
rescaling is exact, so the values equal those of a kernel that
renormalises after every step, wherever that one stays finite; this one
also stays finite for subnormal x.

The step allocates nothing: the coefficients are computed once per call,
and each step is four ufunc calls writing into two state arrays and one
scratch array, with the roundings of (c1*x)*m - c2*pm in that order (no
fused multiply-add, no reassociation).  This is the package's only
kernel; there is no compiled twin.

On a one-point grid the kernel runs the same steps, with the same
roundings and rescaling points, in plain Python floats, where a step costs
a fraction of a ufunc call; the values are the same bits.  Either loop
ends holding psi_{n-1} beside psi_n, and previous=True returns it too.
Beyond the turning point, march_tail integrates psi'' = (x^2 - (2n+1)) psi
backward from deep in the tail and scales the result to the kernel's
psi_n(fl(nu)), taken with psi_{n-1} from one one-point call: the oracle's
density for large n, at n float steps instead of O(n) ufunc calls.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

# Beyond this |x| the seed exponent x^2/2 * log2(e) passes 2^53, so its
# integer part is no longer exact and psi_n loses every digit.
X_MAX = 2.0**26

_log = logging.getLogger(__name__)

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


def _coefficients(n: int) -> tuple[memoryview, memoryview]:
    """The recurrence's c1[k] = sqrt(2/(k+1)) and c2[k] = sqrt(k/(k+1)), for k < n."""
    # IEEE division and sqrt round correctly, so these hold the same doubles
    # as math.sqrt(2.0 / (k + 1)) and math.sqrt(k / (k + 1.0)); iterating a
    # memoryview makes each float as its step reads it, with no list to build
    k = np.arange(n, dtype=np.float64)
    return memoryview(np.sqrt(2.0 / (k + 1.0))), memoryview(np.sqrt(k / (k + 1.0)))


def _normalized(m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, e) with m in [1/2, 1), or (0.0, 0) where m is 0."""
    m, de = np.frexp(m)
    return m, np.where(m == 0.0, 0, e + de).astype(np.int64)


def psi_scaled_grid(n: int, x: np.ndarray, *, previous: bool = False) -> tuple[np.ndarray, ...]:
    """Scaled psi_n on a grid: (mantissa, exponent) arrays.

    mantissa is 0.0 exactly at zeros of psi_n, with exponent 0 there.  With
    previous=True the call returns (m, e, m_prev, e_prev), where the last
    two are psi_{n-1} from the same run, normalised the same way; since
    rescaling is by exact powers of two they are the bits of
    psi_scaled_grid(n - 1, x), and psi_{-1} is (0.0, 0).  At subnormal x
    a power-of-two rescaling can round, so there the bits also depend on
    the grid's largest |x|, which sets the block length.
    """
    if n < 0:
        raise ValueError(f"quantum number must be >= 0, got {n}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    m, e = _seed(x)
    if n == 0:
        return (m, e, np.zeros_like(m), np.zeros_like(e)) if previous else (m, e)
    if x.size == 1:
        out = _psi_scaled_point(n, x, m, e)
        return out if previous else out[:2]
    pm = np.zeros_like(m)
    t = np.empty_like(m)
    block = _block_length(x)
    steps = zip(*_coefficients(n))
    for _ in range(0, n, block):
        for a, b in itertools.islice(steps, block):
            # (c1*x)*m - c2*pm, rounded in that order, into pm's storage
            np.multiply(x, a, t)
            np.multiply(t, m, t)
            np.multiply(pm, b, pm)
            np.subtract(t, pm, pm)
            m, pm = pm, m
        np.abs(m, t)
        np.maximum(t, np.abs(pm), out=t)
        _, s = np.frexp(t)
        e += s
        np.negative(s, s)
        np.ldexp(m, s, m)
        np.ldexp(pm, s, pm)
    if previous:
        return *_normalized(m, e), *_normalized(pm, e)
    return _normalized(m, e)


def _psi_scaled_point(n: int, x: np.ndarray, m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """psi_scaled_grid(n, x, previous=True)'s steps on a one-point grid x seeded with (m, e), in plain floats."""
    block = _block_length(x)
    xf, mf, ef, pm = float(x.flat[0]), float(m.flat[0]), int(e.flat[0]), 0.0
    steps = zip(*_coefficients(n))
    for _ in range(0, n, block):
        for a, b in itertools.islice(steps, block):
            mf, pm = (xf * a) * mf - pm * b, mf
        _, s = math.frexp(max(abs(mf), abs(pm)))
        ef += s
        mf, pm = math.ldexp(mf, -s), math.ldexp(pm, -s)
    (mf, de), (pm, pe) = math.frexp(mf), math.frexp(pm)
    return (np.full(x.shape, mf), np.full(x.shape, ef + de if mf else 0, dtype=np.int64),
            np.full(x.shape, pm), np.full(x.shape, ef + pe if pm else 0, dtype=np.int64))


@dataclass(frozen=True)
class OscillatorMode:
    """Quantum number n together with the turning-point abscissa nu = sqrt(2n+1)."""

    n: int
    nu: float = field(init=False)

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise TypeError(f"quantum number must be an integer, got {self.n!r}")
        # a Python int, so that 2n + 1 cannot wrap (numpy integers would)
        n = operator.index(self.n)
        object.__setattr__(self, "n", n)
        if n < 0:
            raise ValueError(f"quantum number must be >= 0, got {n}")
        try:
            nu2 = float(2 * n + 1)
        except OverflowError:
            raise ValueError("quantum number too large: 2n + 1 is not a finite double") from None
        object.__setattr__(self, "nu", math.sqrt(nu2))


@dataclass(frozen=True)
class ScaledValue:
    """A real number mantissa * 2**exponent with mantissa in [1/2,1) (or 0).

    Zero is canonically (0.0, 0).  Every constructor and operation below
    returns a normalised value.
    """

    mantissa: float
    exponent: int

    @classmethod
    def from_float(cls, x: float) -> "ScaledValue":
        if x == 0.0:
            return cls(0.0, 0)
        m, e = math.frexp(x)
        return cls(m, e)

    def to_float(self) -> float:
        """Nearest double; underflows to 0.0 and overflows to +-inf."""
        if self.mantissa == 0.0:
            return 0.0
        if self.exponent > 1100:
            return math.inf if self.mantissa > 0 else -math.inf
        if self.exponent < -1100:
            return 0.0 * self.mantissa
        return math.ldexp(self.mantissa, self.exponent)

    def __float__(self) -> float:
        return self.to_float()

    def square(self) -> "ScaledValue":
        if self.mantissa == 0.0:
            return ScaledValue(0.0, 0)
        m, de = math.frexp(self.mantissa * self.mantissa)
        return ScaledValue(m, 2 * self.exponent + de)

    @property
    def is_normalized(self) -> bool:
        if self.mantissa == 0.0:
            return self.exponent == 0
        return 0.5 <= abs(self.mantissa) < 1.0


def rel_diff(a: ScaledValue, b: ScaledValue) -> float:
    """|a - b| / |b| without leaving scaled representation."""
    if b.mantissa == 0.0:
        return math.inf if a.mantissa != 0.0 else 0.0
    de = a.exponent - b.exponent
    if abs(de) > 60:
        return math.inf if a.mantissa != 0.0 else 1.0
    ratio = (a.mantissa / b.mantissa) * math.ldexp(1.0, de)
    return abs(ratio - 1.0)


def eval_psi(mode: OscillatorMode, x: float) -> ScaledValue:
    """psi_n(x) as a ScaledValue, for |x| <= X_MAX."""
    m, e = eval_psi_grid(mode, np.array([x], dtype=np.float64))
    return ScaledValue(float(m[0]), int(e[0]))


def eval_density(mode: OscillatorMode, x: float) -> ScaledValue:
    """Probability density psi_n(x)^2 as a ScaledValue."""
    return eval_psi(mode, x).square()


def eval_psi_grid(mode: OscillatorMode, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of eval_psi: (mantissa, exponent) arrays, for every |x| <= X_MAX.

    Parity psi_n(-x) = (-1)^n psi_n(x) holds bit for bit in the kernel's
    arithmetic: its seed depends on x only through x*x and a Dekker split,
    which is odd in x, each step negates exactly with x, and the rescaling
    reads only magnitudes.  So when the grid holds negative points the
    kernel runs once on the distinct |x|, and the values are gathered back
    and, for odd n, negated where x < 0.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    ax = np.abs(x)
    if not np.all(ax <= X_MAX):  # also rejects nan
        raise ValueError(f"psi_n(x) needs |x| <= 2^26, got max |x| = {np.max(ax)}")
    negative = x < 0.0
    if not negative.any():
        return psi_scaled_grid(mode.n, x)
    distinct, inverse = np.unique(ax, return_inverse=True)
    m, e = psi_scaled_grid(mode.n, distinct)
    inverse = inverse.reshape(x.shape)
    m, e = m[inverse], e[inverse]
    if mode.n % 2:
        np.negative(m, out=m, where=negative)
    return m, e


def density_floats(mode: OscillatorMode, x: np.ndarray) -> np.ndarray:
    """psi_n(x)^2 collapsed to doubles; the far tail underflows gracefully to 0."""
    m, e = eval_psi_grid(mode, x)
    e2 = np.clip(2 * e, -4000, 4000).astype(np.int64)
    return np.ldexp(m * m, e2)


# The march ends at T, where the rigorous bound psi_n^2(nu + t) <= psi_n^2(nu)
# exp(-(4/3) sqrt(2 nu) t^(3/2)) reaches this fraction; it drops no more than
# that share of the density, far below the oracle's tolerance floor of 1e-14.
_TAIL_FLOOR = 1e-40
# Taylor terms per march step.  h sqrt(q) stays below 1.9 (h is within a
# factor sqrt(2) of nu^(-1/3)/4), and the last term is then under 1e-17 of
# psi; 40 terms give the same P_n to the bit at n = 1e3, 5.2e3 and 1e5.
_TAYLOR_TERMS = 24


@dataclass(frozen=True)
class TailMarch:
    """psi_n beyond the turning point as the dense output of a backward Taylor march.

    In t = x - nu, with nu = fl(sqrt(2n+1)), psi'' = q psi where
    q = t (t + 2 nu) + r and r = nu^2 - (2n+1) is formed exactly.  The march
    starts at t = T from the WKB log-derivative -sqrt(q) - x/(2q) and takes
    fixed steps of h, a power of two, down to t = 0, so every knot i*h is
    exact.  It runs backward because psi_n is the solution that decays in
    x: the error of the start and the roundings of each step excite the
    other solution, which shrinks relative to psi_n on the way down (Glaser,
    Liu & Rokhlin 2007; Townsend, Trogdon & Olver, arXiv:1410.5286).  The
    table is scaled so that it meets the kernel's psi_n(nu) at t = 0.

    table[i] holds the Taylor coefficients of psi_n about t = (i+1) h, used
    for t in [i h, (i+1) h].  seed_residual is the relative difference of
    the march's log-derivative at t = 0 and the seed's
    sqrt(2n) psi_{n-1}/psi_n - nu, which the march never uses: a check that
    the two meet.
    """

    nu: float
    step: float
    table: np.ndarray
    seed_residual: float

    @property
    def end(self) -> float:
        """T: the table covers t in [0, T]."""
        return len(self.table) * self.step

    def density(self, x: np.ndarray) -> np.ndarray:
        """psi_n(x)^2 for x >= nu, by Horner on the table; exactly 0.0 from nu + T on."""
        t = np.asarray(x, dtype=np.float64) - self.nu
        if not np.all(t >= 0.0):  # also rejects nan
            raise ValueError(f"the march covers x >= {self.nu} only")
        i = np.floor(t / self.step)
        inside = i < len(self.table)
        i = i[inside].astype(np.intp)
        s = t[inside] - (i + 1) * self.step
        coeffs = self.table[i]
        y = coeffs[:, -1]
        for k in range(coeffs.shape[1] - 2, -1, -1):
            y = y * s + coeffs[:, k]
        out = np.zeros_like(t)
        out[inside] = y * y
        return out


def march_tail(mode: OscillatorMode) -> TailMarch:
    """psi_n on [nu, nu + T] from a backward Taylor march, scaled to the kernel's psi_n(nu)."""
    n, nu = mode.n, mode.nu
    # psi_{n-1}, from the same run, feeds only the check at the end
    m, e, pm, pe = (v.item() for v in psi_scaled_grid(n, np.array([nu]), previous=True))
    p, perr = two_prod(nu, nu)
    r = (p - (2 * n + 1)) + perr  # p - (2n+1) is exact (Sterbenz)
    h = 2.0 ** round(math.log2(nu ** (-1.0 / 3.0) / 4.0))
    reach = (0.75 * math.log(1.0 / _TAIL_FLOOR) / math.sqrt(2.0 * nu)) ** (2.0 / 3.0)
    steps = math.ceil(reach / h)

    t = steps * h
    q = t * (t + 2.0 * nu) + r
    y, dy = 1.0, -math.sqrt(q) - (nu + t) / (2.0 * q)
    rows = []
    for i in range(steps, 0, -1):
        # about t = i h, q = q0 + q1 s + s^2, so (j+1)(j+2) a[j+2] = q0 a[j] + q1 a[j-1] + a[j-2]
        t = i * h
        q0, q1 = t * (t + 2.0 * nu) + r, 2.0 * (t + nu)
        a = [0.0, 0.0, y, dy]  # a[j-1] = a[j-2] = 0 for j = 0
        for j in range(_TAYLOR_TERMS - 2):
            a.append((q0 * a[j + 2] + q1 * a[j + 1] + a[j]) / ((j + 1) * (j + 2)))
        a = a[2:]
        rows.append(a)
        # psi and psi' at s = -h, the next knot down
        y = dy = 0.0
        for j in range(_TAYLOR_TERMS - 1, 0, -1):
            y = y * -h + a[j]
            dy = dy * -h + j * a[j]
        y = y * -h + a[0]
    table = np.array(rows[::-1]) * (math.ldexp(m, e) / y)

    ratio = math.ldexp(pm / m, pe - e)
    seed_w = math.sqrt(2.0 * n) * ratio - nu
    residual = abs(dy / y - seed_w) / abs(seed_w)
    _log.debug("march n=%d: %d steps of %g to t = %g, seed log-derivative residual %.2e",
               n, steps, h, steps * h, residual)
    return TailMarch(nu, h, table, residual)
