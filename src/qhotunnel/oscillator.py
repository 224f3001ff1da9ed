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

The step allocates nothing: the coefficients c1 and c2 do not depend on n,
so they are built once per process, into one read-only table that grows to
the largest n a call has needed (16 bytes per step), and each call takes
prefix views of it.  Each step is four ufunc calls writing into two state
arrays and one scratch array, with the roundings of (c1*x)*m - c2*pm in
that order (no fused multiply-add, no reassociation).  This is the
package's only kernel; there is no compiled twin.

At a float x the kernel runs the same steps, with the same roundings and,
but before a tail window (below), the same rescaling points, in plain
Python floats, where a step costs a fraction of a ufunc call and the
set-up no array: the seed is _seed's sequence of operations on floats, so
the values are the bits of the one-point grid [x], at subnormal x too
(n = 400: about 0.06 ms, against 2.8 ms through the ufunc loop).  A float
x goes in and Python floats and ints come out, with no grid or result
array built.  Any array, of any size and shape, runs the ufunc loop.
With tail=True, at a float x only, the float loop also sums the tail mass
by the ladder identity (DLMF §18.9)

    int_x^inf psi_n^2 = erfc(x)/2 + sum_{k<n} psi_k(x) psi_{k+1}(x) / sqrt(2(k+1)),

whose terms are the products of consecutive pairs the recurrence already
forms; without tail=True the loop forms no such product.  At
x = nu = sqrt(2n+1) every term is positive, and the recurrence runs in its
dominant direction, so the rounding errors of the steps add up but are not
amplified.

At x >= sqrt(2n) only the last terms reach the rounded sum, so the loop
sums only a window: from the block that holds step n - 1 - 16 x^(2/3)
(_WINDOW), below the turning-point layer, whose width is O(x^(2/3))
steps (DLMF §18.15(iv)); the steps before it form no product.  There every
psi_k(x), k <= n, is positive and nondecreasing in k.  The ratio
r_k = psi_{k+1}/psi_k has r_0 = sqrt(2) x >= 1 and, by induction,
r_k = a_k - b_k / r_{k-1} >= a_k - b_k >= 1, for the step's coefficients
a_k = x sqrt(2/(k+1)) and b_k = sqrt(k/(k+1)), because
sqrt(2) x >= 2 sqrt(n) >= sqrt(k+1) + sqrt(k) for k < n.  Because
b_k / r_{k-1} > 0, also r_k <= a_k, and a_k falls with k.  So the steps
before the window, which form no product, rescale not every B steps but
after runs of L = floor(900 / log2(a_k)) steps from step k (at most 900,
as a_k >= 2 there): a run grows the pair by at most a_k^L <= 2^900, the
budget of the window's products, and the smaller member stays within a_k
of the larger, so nothing leaves the normal range and the bits are those
of the block schedule (at fl(nu), 14 rescalings before the window instead
of 124 at n = 7000, and 1914 instead of 26972 at 10^6).  The k0 terms
before the window's first step k0 sum to at most k0 sqrt(2) x psi_{k0}^2
(in the loop's units, 2x times the identity's terms), and the window's own
sum is a lower bound on the tail.  After the loop the two bounds are
compared by their frexp exponents; unless the first is below 2^-96
(_WINDOW_MARGIN) of the second, the loop runs again and sums from step 0.
The check, not the width 16, carries the result.  The window's sum has
had the full sum's bits wherever it was compared (every n to 1200 and 201
more to 10^5, in the tests), psi_n keeps its bits either way, and at
n = 5200 to 9800 a solve takes about a fifth less time.  At x < sqrt(2n),
at x <= 0, and where the window's block is the first (at fl(nu), every
n up to 177), the loop sums from step 0.
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
# the tail sum at x >= sqrt(2n) starts about this many x^(2/3) steps below n,
# below the turning-point layer; the terms it leaves out must sum below
# 2^-_WINDOW_MARGIN of the rest, or the sum reruns from step 0
_WINDOW = 16
_WINDOW_MARGIN = 96

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


def _seed_point(x: float) -> tuple[float, int]:
    """_seed at one point, in Python floats: the same operations, the same bits."""
    h, herr = two_prod(x, x)
    p, perr = two_prod(h, HALF_LOG2E_HI)
    corr = perr + h * HALF_LOG2E_LO + herr * HALF_LOG2E_HI

    e0 = math.floor(-p)  # |p| < 2^53, so e0 converts to a double exactly
    frac = (-p - e0) - corr - QUARTER_LOG2PI_HI - QUARTER_LOG2PI_LO
    shift = math.floor(frac)
    frac -= shift
    # np.exp2, not math.exp2 or 2.0**frac: those round about 5% of fractions
    # in [0, 1) differently from numpy's exp2, and so from _seed
    m, de = math.frexp(np.exp2(frac))
    return m, e0 + shift + de


def _block_length(xmax: float) -> int:
    """Steps between rescalings on a grid of largest |x| xmax, so no block drifts past 2^(+-450)."""
    # at most log2(2 sqrt(2) (X_MAX + 1)) ~ 27.5 binary orders a step, so B >= 16
    growth = math.log2(2.0 * math.sqrt(2.0) * (xmax + 1.0))
    return min(_MAX_BLOCK, int(_BLOCK_LOG2_RANGE // growth))


# c1 and c2 do not depend on n: one read-only table serves every call and
# grows, when a call needs more entries, to max(n, twice its size)
_TABLE = (np.empty(0), np.empty(0))


def _coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence's c1[k] = sqrt(2/(k+1)) and c2[k] = sqrt(k/(k+1)), for k < n.

    Read-only prefix views of the process's table.
    """
    global _TABLE
    c1, c2 = _TABLE
    if n > c1.size:
        # IEEE division and sqrt round correctly, so these hold the same doubles
        # as math.sqrt(2.0 / (k + 1)) and math.sqrt(k / (k + 1.0)), whatever the
        # table's length; the loops iterate memoryviews of them, which make each
        # float as its step reads it, with no list to build
        k = np.arange(max(n, 2 * c1.size), dtype=np.float64)
        c1, c2 = np.sqrt(2.0 / (k + 1.0)), np.sqrt(k / (k + 1.0))
        c1.flags.writeable = c2.flags.writeable = False
        _TABLE = c1, c2
    return c1[:n], c2[:n]


def _normalized(m: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, e) with m in [1/2, 1), or (0.0, 0) where m is 0."""
    m, de = np.frexp(m)
    return m, np.where(m == 0.0, 0, e + de).astype(np.int64)


def psi_scaled_grid(n: int, x: float | np.ndarray, *, tail: bool = False) -> tuple:
    """Scaled psi_n at a float x or on a grid, for every |x| <= X_MAX.

    At a float x (a Python float or a numpy float scalar) the call runs the
    steps in plain floats and returns plain Python values: (m, e), a float
    mantissa and an int exponent, with no grid or result array built.  Any
    array, of any size and shape, runs the ufunc loop and returns
    (mantissa, exponent) arrays of its shape; a float x gives the bits of
    the one-point grid [x].  mantissa is 0.0 exactly at zeros of psi_n,
    with exponent 0 there.  At subnormal x a power-of-two rescaling can
    round, so there the bits also depend on the grid's largest |x|, which
    sets the block length.  With tail=True, at a float x only, the call
    returns (m, e, tm, te), where the last two are the tail mass
    int_x^inf psi_n^2 from the same run, normalised the same way; psi_n
    keeps its bits.  At x >= sqrt(2n) the tail identity's terms grow with
    k, and the run sums only those from the turning-point layer on, after
    checking that the terms it leaves out sum below 2^-96 of the rest (and
    sums them all when they do not; see the module docstring).
    """
    if n < 0:
        raise ValueError(f"quantum number must be >= 0, got {n}")
    if isinstance(x, float):
        x = float(x)  # a numpy scalar would carry numpy arithmetic into the loop
        if not abs(x) <= X_MAX:  # also rejects nan
            raise ValueError(f"psi_n(x) needs |x| <= 2^26, got |x| = {abs(x)}")
        return _psi_scaled_point(n, x, _block_length(abs(x)), *_coefficients(n), tail)
    if tail:
        raise ValueError("tail=True needs a float x, got an array")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if not np.all(np.abs(x) <= X_MAX):  # also rejects nan
        raise ValueError(f"psi_n(x) needs |x| <= 2^26, got max |x| = {np.max(np.abs(x))}")
    m, e = _seed(x)
    pm = np.zeros_like(m)
    t = np.empty_like(m)
    block = _block_length(float(np.max(np.abs(x), initial=0.0)))
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


def _psi_scaled_point(n: int, x: float, block: int, c1: np.ndarray, c2: np.ndarray, tail: bool,
                      start: int | None = None) -> tuple:
    """psi_scaled_grid's steps at one point x, in plain floats: (m, e), or (m, e, tm, te) with tail.

    Without tail start is n, and every step runs in blocks of block steps.
    With tail the blocks from step start on also sum the tail, and start is
    the first step of a block: by default the predicted window's, and 0 when
    the terms before it could reach the sum; the steps before it rescale
    after runs sized on their growth bound (module docstring), not blocks.
    """
    if not tail:
        start = n
    elif start is None:
        start = 0
        # the terms grow with k (module docstring): the window is the block
        # that holds step n - 1 - _WINDOW x^(2/3) and the rest, and only past
        # the first block is there a window to predict
        if n > block and x > 0.0 and x * x >= 2 * n:
            start = n - 1 - int(_WINDOW * x ** (2.0 / 3.0))
            start = start - start % block if start >= block else 0
    m0, e0 = _seed_point(x)
    mf, ef, pm, s = m0, e0, 0.0, 0.0
    # fl(x c1[k]) in one multiply: the doubles of the grid loop's first product
    steps = zip(memoryview(x * c1), memoryview(c2))
    k = 0
    while k < start:
        if tail:
            # before the window the pair grows by at most a_k = x c1[k] a step and
            # a_k falls with k (module docstring): a run of 2 _BLOCK_LOG2_RANGE /
            # log2(a_k) steps keeps it within the window products' 2^900
            run = min(start - k, int(2 * _BLOCK_LOG2_RANGE // math.log2(x * math.sqrt(2.0 / (k + 1)))))
        else:
            run = block
        for a, b in itertools.islice(steps, run):
            mf, pm = a * mf - pm * b, mf
        k += run
        _, sh = math.frexp(max(abs(mf), abs(pm)))
        ef += sh
        mf, pm = math.ldexp(mf, -sh), math.ldexp(pm, -sh)
    if not tail:
        return _normalized_float(mf, ef)
    ef_start = ef
    for _ in range(start, n, block):
        for a, b in itertools.islice(steps, block):
            u = a * mf
            mf, pm = u - pm * b, mf
            s += u * mf  # 2x psi_k psi_{k+1} / sqrt(2(k+1)), in the pair's scale squared
        _, sh = math.frexp(max(abs(mf), abs(pm)))
        ef += sh
        mf, pm, s = math.ldexp(mf, -sh), math.ldexp(pm, -sh), math.ldexp(s, -2 * sh)
    # the terms left out sum to less than start sqrt(2) x 2^(2 ef_start) <
    # 2^(frexp(start x) + 1 + 2 ef_start) (module docstring), the window's to at
    # least 2^(frexp(s) - 1 + 2 ef): unless the first is below 2^-_WINDOW_MARGIN
    # of the second, sum again from step 0
    if start and math.frexp(start * x)[1] + 2 * ef_start + 1 > math.frexp(s)[1] - 1 + 2 * ef - _WINDOW_MARGIN:
        return _psi_scaled_point(n, x, block, c1, c2, tail, 0)
    # each term carries the factor fl(x c1[k]), so all are 0 at x = 0
    terms = s / (2.0 * x) if x else 0.0
    v, k = _half_erfc(x, m0, e0)
    # erfc(x)/2 lies far above the pair's scale for x << 0 and far below it for x >> 0
    if k > 2 * ef:
        return *_normalized_float(mf, ef), *_normalized_float(v + math.ldexp(terms, 2 * ef - k), k)
    return *_normalized_float(mf, ef), *_normalized_float(terms + math.ldexp(v, k - 2 * ef), 2 * ef)


def _normalized_float(v: float, e: int) -> tuple[float, int]:
    """v * 2**e as (m, e) with m in [1/2, 1), or (0.0, 0) where v is 0."""
    m, de = math.frexp(v)
    return m, e + de if m else 0


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
        n = self.n
        # an exact int needs no ABC check, which costs twice the rest of the call
        if type(n) is not int:
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise TypeError(f"quantum number must be an integer, got {n!r}")
            # a Python int, so that 2n + 1 cannot wrap (numpy integers would)
            n = operator.index(n)
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
        if not math.isfinite(x):
            raise ValueError(f"a scaled value needs a finite float, got {x}")
        if x == 0.0:
            return cls(0.0, 0)
        m, e = math.frexp(x)
        return cls(m, e)

    def to_float(self) -> float:
        """Nearest double; underflows to 0.0 and overflows to +-inf."""
        if self.mantissa == 0.0:
            return 0.0
        # |mantissa| >= 1/2, so 2**1024 (past the largest double) is reached from 1025 on
        if self.exponent > 1024:
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
    if de < -60:  # |a/b| < 2^-60, so |1 - a/b| rounds to 1
        return 1.0
    try:
        ratio = math.ldexp(a.mantissa / b.mantissa, de)
    except OverflowError:  # |a/b| past the largest double
        return math.inf
    return abs(ratio - 1.0)


def eval_psi(mode: OscillatorMode, x: float) -> ScaledValue:
    """psi_n(x) as a ScaledValue, for |x| <= X_MAX: the bits of eval_psi_grid at [x]."""
    # no parity fold: the kernel's arithmetic is odd in x bit for bit (see eval_psi_grid)
    return ScaledValue(*psi_scaled_grid(mode.n, float(x)))


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
    negative = x < 0.0
    if not negative.any():
        return psi_scaled_grid(mode.n, x)
    distinct, inverse = np.unique(np.abs(x), return_inverse=True)
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
