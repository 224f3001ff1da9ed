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
|x| to keep the unnormalised mantissas within 2^(+-450), and so the
products of two of them, which the tail sum adds, within 2^(+-900).
Power-of-two rescaling is exact, so the values equal those of a kernel
that renormalises after every step, wherever that one stays finite; this
one also stays finite for subnormal x.

The step allocates nothing: the coefficients are computed once per call,
and each step is four ufunc calls writing into two state arrays and one
scratch array, with the roundings of (c1*x)*m - c2*pm in that order (no
fused multiply-add, no reassociation).  This is the package's only
kernel; there is no compiled twin.

On a one-point grid the kernel runs the same steps, with the same
roundings and rescaling points, in plain Python floats, where a step costs
a fraction of a ufunc call; the values are the same bits.  That loop also
sums the tail mass by the ladder identity (DLMF §18.9)

    int_x^inf psi_n^2 = erfc(x)/2 + sum_{k<n} psi_k(x) psi_{k+1}(x) / sqrt(2(k+1)),

whose terms are the products of consecutive pairs the recurrence already
forms; tail=True returns it.  At x = nu = sqrt(2n+1) every term is
positive, and the recurrence runs in its dominant direction, so the
rounding errors of the steps add up but are not amplified.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

# Beyond this |x| the seed exponent x^2/2 * log2(e) passes 2^53, so its
# integer part is no longer exact and psi_n loses every digit.
X_MAX = 2.0**26

_MAX_BLOCK = 64
_BLOCK_LOG2_RANGE = 450.0  # binary orders a block may drift from [1/2, 1)

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
    """Steps between rescalings, so no block drifts past 2^(+-450)."""
    xmax = float(np.max(np.abs(x), initial=0.0))
    growth = math.log2(2.0 * math.sqrt(2.0) * (xmax + 1.0))
    if not growth < _BLOCK_LOG2_RANGE:  # also catches inf and nan
        return 1
    return min(_MAX_BLOCK, int(_BLOCK_LOG2_RANGE // growth))


def _coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence's c1[k] = sqrt(2/(k+1)) and c2[k] = sqrt(k/(k+1)), for k < n."""
    # IEEE division and sqrt round correctly, so these hold the same doubles
    # as math.sqrt(2.0 / (k + 1)) and math.sqrt(k / (k + 1.0)); the loops
    # iterate memoryviews of them, which make each float as its step reads
    # it, with no list to build
    k = np.arange(n, dtype=np.float64)
    return np.sqrt(2.0 / (k + 1.0)), np.sqrt(k / (k + 1.0))


def _normalized(m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, e) with m in [1/2, 1), or (0.0, 0) where m is 0."""
    m, de = np.frexp(m)
    return m, np.where(m == 0.0, 0, e + de).astype(np.int64)


def psi_scaled_grid(n: int, x: np.ndarray, *, tail: bool = False) -> tuple[np.ndarray, ...]:
    """Scaled psi_n on a grid: (mantissa, exponent) arrays.

    mantissa is 0.0 exactly at zeros of psi_n, with exponent 0 there.  At
    subnormal x a power-of-two rescaling can round, so there the bits also
    depend on the grid's largest |x|, which sets the block length.  With
    tail=True, on a one-point grid only, the call returns (m, e, tm, te),
    where the last two are the tail mass int_x^inf psi_n^2 from the same
    run, normalised the same way; psi_n keeps its bits.
    """
    if n < 0:
        raise ValueError(f"quantum number must be >= 0, got {n}")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if tail and x.size != 1:
        raise ValueError(f"tail=True needs a one-point grid, got {x.size} points")
    m, e = _seed(x)
    if x.size == 1:
        return _psi_scaled_point(n, x, m, e, tail)
    pm = np.zeros_like(m)
    t = np.empty_like(m)
    block = _block_length(x)
    steps = zip(*map(memoryview, _coefficients(n)))
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
    return _normalized(m, e)


def _psi_scaled_point(n: int, x: np.ndarray, m: np.ndarray, e: np.ndarray, tail: bool) -> tuple[np.ndarray, ...]:
    """psi_scaled_grid's steps on a one-point grid x seeded with (m, e), in plain floats."""
    block = _block_length(x)
    xf, mf, ef = float(x.flat[0]), float(m.flat[0]), int(e.flat[0])
    pm = s = 0.0
    c1, c2 = _coefficients(n)
    # fl(x c1[k]) in one multiply: the doubles of the grid loop's first product
    steps = zip(memoryview(xf * c1), memoryview(c2))
    for _ in range(0, n, block):
        for a, b in itertools.islice(steps, block):
            u = a * mf
            mf, pm = u - pm * b, mf
            s += u * mf  # 2x psi_k psi_{k+1} / sqrt(2(k+1)), in the pair's scale squared
        _, sh = math.frexp(max(abs(mf), abs(pm)))
        ef += sh
        mf, pm, s = math.ldexp(mf, -sh), math.ldexp(pm, -sh), math.ldexp(s, -2 * sh)
    psi = _filled(x, mf, ef)
    if not tail:
        return psi
    # each term carries the factor fl(x c1[k]), so all are 0 at x = 0
    terms = s / (2.0 * xf) if xf else 0.0
    v, k = _half_erfc(xf, float(m.flat[0]), int(e.flat[0]))
    # erfc(x)/2 lies far above the pair's scale for x << 0 and far below it for x >> 0
    if k > 2 * ef:
        return *psi, *_filled(x, v + math.ldexp(terms, 2 * ef - k), k)
    return *psi, *_filled(x, terms + math.ldexp(v, k - 2 * ef), 2 * ef)


def _filled(x: np.ndarray, v: float, e: int) -> tuple[np.ndarray, np.ndarray]:
    """v * 2**e, normalised, as (mantissa, exponent) arrays of x's shape."""
    m, de = math.frexp(v)
    return np.full(x.shape, m), np.full(x.shape, e + de if m else 0, dtype=np.int64)


def _half_erfc(x: float, m0: float, e0: int) -> tuple[float, int]:
    """erfc(x)/2 as v * 2**k, given psi_0(x) = m0 * 2**e0."""
    v = math.erfc(x)
    if v >= sys.float_info.min:
        return 0.5 * v, 0
    # erfc(x) leaves the normal range at x ~ 26.5; from there on it is
    # psi_0(x)^2 F(x) / x, with the asymptotic series
    # F = sum_j (-1)^j (2j-1)!! / (2x^2)^j, whose terms fall below 1e-17 within ten
    w, term, f, j = 0.5 / (x * x), 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * j - 1) * w
        f += term
        j += 1
    return m0 * m0 * f / (2.0 * x), 2 * e0


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
