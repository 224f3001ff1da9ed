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
logarithm is split with Dekker's exact product, two_prod, the package's
only one: it also forms the reduced route's coefficients (below) and the
oracle's sliver, and it works in place on arrays.
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
nor do the reduced route's a_k and c_k (below), so the four are built once
per process, into one read-only table that grows to the largest n a call
has needed (32 bytes per k), and each call takes views of the arrays it
reads.  Each step is four ufunc calls writing into two state arrays and
one scratch array, with the roundings of (c1*x)*m - c2*pm in that order
(no fused multiply-add, no reassociation).  This is the
package's only kernel; there is no compiled twin.

At a float x the kernel runs the same steps, with the same roundings and,
at x < sqrt(2n), the same rescaling points (elsewhere fewer, below), in
plain Python floats, where a step costs a fraction of a ufunc call and
the set-up no array: the seed is _seed's sequence of operations on
floats, so the values are the bits of the one-point grid [x], at
subnormal x too (n = 400: about 0.06 ms, against 2.8 ms through the ufunc
loop), except where the steps before a long tail window run 2^j orders a
turn (below).  A float x goes in and Python floats and ints come out,
with no grid or result array built.  Any array, of any size and shape,
runs the ufunc loop.  The float route runs one loop per job.  _grown runs
every step that forms no product: without tail all n steps, in blocks of
B steps at x < sqrt(2n) and in runs sized on their growth bound
elsewhere (below).  With tail=True, at a float x only, _window runs the
steps from a given start pair on and also sums the tail mass by the
ladder identity (DLMF §18.9)

    int_x^inf psi_n^2 = erfc(x)/2 + sum_{k<n} psi_k(x) psi_{k+1}(x) / sqrt(2(k+1)),

whose terms are the products of consecutive pairs the recurrence already
forms, and _grown runs the steps before that start.  At x = nu =
sqrt(2n+1) every term is positive, and the recurrence runs in its
dominant direction, so the rounding errors of the steps add up but are
not amplified.

At x >= sqrt(2n) only the last terms reach the rounded sum, so _window
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
of 124 at n = 7000, and 1914 instead of 26972 at 10^6).  Without tail, at
x >= sqrt(2n), _grown runs all n steps on that schedule, with the same
bits.  The k0 terms before the window's first step k0 sum to at most
k0 sqrt(2) x psi_{k0}^2 (in _window's units, 2x times the identity's
terms), and the window's own sum is a lower bound on the tail.  After the
window the two bounds are compared by their frexp exponents; unless the
first is below 2^-96 (_WINDOW_MARGIN) of the second, _window runs again,
from step 0 and the seed pair (psi_0, 0).  The check, not the width 16,
carries the result.  Where the steps before the window run one a turn, the
window's sum has had the full sum's bits wherever it was compared (every n
to 1200 and 201 more to 10^5, in the tests), and psi_n keeps the grid's
bits either way.  At x < sqrt(2n), at x <= 0, and where the window's block
is the first (at fl(nu), every n up to 177), the window starts at step 0.

From _TWO_STEP_MIN = 1024 steps before the window on, those steps run 2^j
orders a turn, by cyclic reduction of the recurrence in even-odd form
(x^2 psi_k from x psi_k = sqrt((k+1)/2) psi_{k+1} + sqrt(k/2) psi_{k-1}
applied twice; Gil, Segura & Temme, ch. 4)

    psi_{k+2} = alpha_k psi_k - c_k psi_{k-2},   alpha_k = a_k (x^2 - k - 1/2),
    a_k = 2/sqrt((k+1)(k+2)),   c_k = sqrt(k(k-1)/((k+1)(k+2))),

on the chain of the window start's parity, from psi_0 or from
psi_1 = fl(x c1[0]) psi_0; as c_0 = c_1 = 0 the chain's first turn has no
term before it.  a_k and c_k are the table's other two arrays, read as
strided views; alpha_k depends on x and is formed per call in numpy,
rounded once from a_k times the exact x^2 - k - 1/2 (_two_step_turns).
A form that rounds x^2's low part away first, such as
a_k fl(x^2 - k - 1/2 + lo), errs the same way at every k: the oracle then
read -1.5e-13 at n = 2000 and +5.1e-13 at 9800 against the frozen P_n.
A level of reduction (_reduced) takes a chain of turns
psi_{k+s} = alpha_k psi_k - c_k psi_{k-s} of stride s, writes the turn at
k + s and, solved for psi_{k-s}, the one at k - s into the one at k, and
so keeps every other turn:

    psi_{k+2s} = A_k psi_k - C_k psi_{k-2s},
    A_k = alpha_{k+s} alpha_k - c_{k+s} - alpha_{k+s} c_k / alpha_{k-s},
    C_k = alpha_{k+s} c_k c_{k-s} / alpha_{k-s},

at the k with start - k a multiple of 2s; a turn left over at the chain's
front is taken at once, and again the first turn kept has C = 0.  Each
level doubles the stride and halves the turns.  Every psi_k is positive
and every alpha_k, c_k, A_k and C_k is >= 0, so a turn's ratio
psi_{k+2s}/psi_k = A_k - C_k psi_{k-2s}/psi_k is at most A_k, and, as the
product r_k .. r_{k+2s-1} of one-step ratios, at least 1 and at most
a_k^(2s), a_k = fl(x c1[k]) being the largest step coefficient from k on.
A_k is rounded once from the exact product alpha_{k+s} alpha_k = p + pe
(two_prod), as fl(p + ((pe - c_{k+s}) - q_k)), q_k = alpha_{k+s} c_k /
alpha_{k-s}, and C_k = q_k c_{k-s}: where A_k is large, c_{k+s} and q_k
lie just below round numbers of p's grid, so fl(p - c_{k+s}) errs the same
way at most k (at n = 10^6 and x = 10 fl(nu), psi_n was then 3.3e-12 off,
against 1.3e-14 rounded once).  Levels are added while a level holds
_TWO_STEP_MIN / 2 turns or more, which saves more turns than the level's
two dozen ufunc calls cost, and while the next level's turn of 2^(j+1)
orders grows the pair by at most fl(x c1[0])^(2^(j+1)) <= 2^450
(_BLOCK_LOG2_RANGE).  At fl(nu) that is 4 orders from n = 1273, 8 from
2333, 16 from 4457 and 32 from 8630, where the growth bound stops the
levels from 16933 on (3094 turns at 10^5, 31186 at 10^6).
_grown runs the last level in runs of floor(900 / (2^j log2 a_k)) turns
from the turn whose first step is k: by the j rule 2^j log2 a_k <= 450, so
a run takes two turns or more (at fl(nu) 14 rescalings at n = 7000, 1985
at 10^6).  Going back down, each level gives
psi_{start-s} = (psi_start + c_{start-s} psi_{start-2s}) / alpha_{start-s}
from its last turn, and psi_{start-1} =
(psi_start + c2[start-1] psi_{start-2}) / fl(x c1[start-1]) follows: sums
of positive terms, with no cancellation.

psi_n then has its own bits, not the grid's; the tests pin them to a
per-level reference of the route.  Forming alpha costs 22 ufunc calls
(about 37 us at n = 7000), and a turn about what a step costs, so two
orders a turn pay from about 400-650 steps before the window on;
_TWO_STEP_MIN = 1024 leaves a margin and keeps the one-step route and its
bits up to n = 1272 at fl(nu), so for every row of the paper's table
(n <= 800, at most 603 steps before the window).  The error stays set by
the one-step window (tests/_int_reference.py evaluates the identity in
Python ints): on 20 n drawn from [1273, 10^5] its largest |error| is
2.6e-13 and the median 5.7e-14; at 10^5 the window's steps from the
correctly rounded start pair read +2.3e-14, and from one a unit lower in
psi_start +5.4e-14.  Against the frozen P_n: -5.2e-15 at n = 2000,
-2.3e-14 at 5200, +1.3e-14 at 9800, +2.3e-14 at 10^5.
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
# from this many steps before the tail window on, they run 2^j orders a turn;
# below about 400-650 forming the turns' coefficients costs more than it saves
_TWO_STEP_MIN = 1024

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for binary64
HALF_LOG2E_HI = 0.7213475204444817  # 1/(2 ln 2) as hi + lo
HALF_LOG2E_LO = 1.0177636870465517e-17
QUARTER_LOG2PI_HI = 0.4128740323680797  # log2(pi)/4 as hi + lo
QUARTER_LOG2PI_LO = 1.9744082879119833e-17


def two_prod(a, b):
    """Dekker's exact product, elementwise: a * b = p + e with p = fl(a*b).

    Floats, arrays and an array times a float alike.  The splits and the
    error term are formed in place: on arrays the call allocates nothing but
    p, e and the splits, and it never writes into a or b.
    """
    p = a * b
    # a = ahi + alo: ahi = ca - (ca - a), ca = _SPLIT a; the same for b
    ahi = _SPLIT * a
    alo = ahi - a
    ahi -= alo
    alo = a - ahi
    bhi = _SPLIT * b
    blo = bhi - b
    bhi -= blo
    blo = b - bhi
    # e = ((ahi bhi - p) + ahi blo + alo bhi) + alo blo, rounded in that order
    e = ahi * bhi
    e -= p
    ahi *= blo
    bhi *= alo
    alo *= blo
    e += ahi
    e += bhi
    e += alo
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


# c1, c2 and the two-step recurrence's a and c (module docstring) do not depend
# on n: one read-only table serves every call and grows, when a call needs more
# entries, to max(n, twice its size)
_TABLE = (np.empty(0),) * 4


def _coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence's c1[k] = sqrt(2/(k+1)) and c2[k] = sqrt(k/(k+1)), for k < n.

    Read-only prefix views of the process's table, which grows with them
    a[k] = 2/sqrt((k+1)(k+2)) and c[k] = sqrt(k(k-1)/((k+1)(k+2))).
    """
    global _TABLE
    c1, c2, _, _ = _TABLE
    if n > c1.size:
        # IEEE division and sqrt round correctly, so these hold the same doubles
        # as math.sqrt(2.0 / (k + 1)) and math.sqrt(k / (k + 1.0)), whatever the
        # table's length; the loops iterate memoryviews of them, which make each
        # float as its step reads it, with no list to build.  a and c are formed
        # in place: five arrays at the peak (40 MB at n = 10^6)
        k = np.arange(max(n, 2 * c1.size), dtype=np.float64)
        c1, c2 = np.sqrt(2.0 / (k + 1.0)), np.sqrt(k / (k + 1.0))
        a = k + 1.0
        a *= k + 2.0  # (k + 1)(k + 2), exact below k = 9e7, as is k (k - 1)
        c = k - 1.0
        c *= k
        c /= a
        np.sqrt(c, out=c)
        np.sqrt(a, out=a)
        np.divide(2.0, a, out=a)
        for t in (c1, c2, a, c):
            t.flags.writeable = False
        _TABLE = c1, c2, a, c
    return c1[:n], c2[:n]


def _two_step_turns(x: float, p: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha[k] = a[k] (x^2 - k - 1/2) and c[k] for k = p, p + 2, .., start - 2.

    alpha is rounded once from a[k] times the exact x^2 - k - 1/2: with
    x^2 = h + lo by two_prod, d = h - (k + 1/2) is exact, a d = q + qe by
    two_prod, and alpha = fl(q + (qe + a lo)).  lo enters the product's
    error term, not the difference, whose rounding would lean the same way
    at every k.
    """
    _, _, a, c = _TABLE  # grown past start by the caller's _coefficients(n)
    a, c = a[p : start - 1 : 2], c[p : start - 1 : 2]
    h, lo = two_prod(x, x)
    d = np.arange(p, start - 1, 2, dtype=np.float64)
    d += 0.5
    np.subtract(h, d, out=d)  # exact: k + 1/2 < h <= 2^52, both multiples of min(ulp(h), 1/2)
    q, qe = two_prod(a, d)
    qe += np.multiply(a, lo, out=d)
    qe += q
    return qe, c


def _reduced(al: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level of cyclic reduction: the turns psi_{k+2s} = A_k psi_k - C_k psi_{k-2s} from those of stride s.

    al and c hold a chain's turns psi_{k+s} = al_k psi_k - c_k psi_{k-s},
    the first with c = 0; the result holds every other one, ending at the
    same last turn, again the first with C = 0, with
    A_k = al_{k+s} al_k - c_{k+s} - q_k and C_k = q_k c_{k-s},
    q_k = al_{k+s} c_k / al_{k-s}.  A_k is rounded once from the exact
    product, al_{k+s} al_k = p + pe by two_prod: A_k = fl(p + ((pe - c_{k+s}) - q_k)),
    since rounding p - c_{k+s} first errs the same way at most k where A_k
    is large.  q_k and C_k are rounded left to right.  Where the chain holds
    an odd number of turns its first is left out, and the caller takes it.
    """
    t = len(al)
    o = t % 2  # the first turn kept; at o = 0 it is the chain's first, with c_k = 0 and no turn before it
    nxt = al[o + 1 :: 2]
    big, err = two_prod(nxt, al[o::2])
    err -= c[o + 1 :: 2]
    q = nxt * c[o::2]
    q[1 - o :] /= al[1 - o : -1 : 2]
    err -= q
    big += err
    q[1 - o :] *= c[1 - o : -1 : 2]
    return big, q


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
    int_x^inf psi_n^2 from the same run, normalised the same way.  At
    x >= sqrt(2n) the tail identity's terms grow with
    k, and the run sums only those from the turning-point layer on, after
    checking that the terms it leaves out sum below 2^-96 of the rest (and
    sums them all when they do not; see the module docstring).  psi_n
    keeps the grid's bits, unless 1024 steps or more come before that
    window: those run 2^j orders a turn, with their own roundings.
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
    shape = np.shape(x)
    x = np.ascontiguousarray(x, dtype=np.float64)  # 1-d at a 0-d x, so the steps can write into it
    if not np.all(np.abs(x) <= X_MAX):  # also rejects nan
        raise ValueError(f"psi_n(x) needs |x| <= 2^26, got max |x| = {np.max(np.abs(x))}")
    m, e = _seed(x)
    if not m.size:  # no point to step
        return m.reshape(shape), e.reshape(shape)
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
    m, e = _normalized(m, e)
    return m.reshape(shape), e.reshape(shape)


def _window_start(n: int, x: float, block: int) -> int:
    """The first step of the tail sum at a float x: that of the block holding step n - 1 - _WINDOW x^(2/3).

    0 where the terms before it could reach the sum: at x < sqrt(2n) and at
    x <= 0, where the terms need not grow with k (module docstring), and
    where that block is the first.
    """
    if n > block and _grows(n, x):
        start = n - 1 - int(_WINDOW * x ** (2.0 / 3.0))
        if start >= block:
            return start - start % block
    return 0


def _grows(n: int, x: float) -> bool:
    """Whether x >= sqrt(2n), where psi_0(x) .. psi_n(x) are positive and nondecreasing (module docstring)."""
    return x > 0.0 and x * x >= 2 * n


def _run_length(lead: float, orders: int) -> int:
    """Turns of orders steps from one whose first step's coefficient is lead, growing the pair by at most 2^900."""
    return int(2 * _BLOCK_LOG2_RANGE // (orders * math.log2(lead)))


def _grown(mf: float, pm: float, ef: int, a: np.ndarray, b: np.ndarray, lead: np.ndarray,
           orders: int = 1, block: int | None = None) -> tuple[float, float, int]:
    """The pair (mf, pm) on exponent ef after the turns mf, pm = a[k] mf - b[k] pm, mf for every k.

    These form no product.  With block the pair is rescaled every block
    turns.  Without, turn k spans orders steps, the first with coefficient
    lead[k] = fl(x c1); the pair is positive, each step grows it by at most
    its coefficient, and those are >= 2 and fall with k (module docstring),
    so it is rescaled after runs of _run_length turns, within 2^900 each.
    """
    steps, lead = zip(memoryview(a), memoryview(b)), memoryview(lead)
    k = 0
    while k < len(a):
        run = block or _run_length(lead[k], orders)
        for u, v in itertools.islice(steps, run):
            mf, pm = u * mf - pm * v, mf
        k += run
        _, sh = math.frexp(max(abs(mf), abs(pm)))
        ef += sh
        mf, pm = math.ldexp(mf, -sh), math.ldexp(pm, -sh)
    return mf, pm, ef


def _reduced_turns(x: float, start: int, c1: np.ndarray, c2: np.ndarray, m0: float,
                   e0: int) -> tuple[float, float, int]:
    """(psi_start, psi_{start-1}) on one exponent from psi_0 = m0 2^e0, 2^j orders a turn (module docstring).

    The two-step chain of start's parity is reduced level by level while a
    level holds _TWO_STEP_MIN / 2 turns or more and the next level's turn
    would grow the pair by at most 2^_BLOCK_LOG2_RANGE; _grown runs the last
    level, and each level below it gives back psi_{start-s}, s its stride.
    """
    p = start % 2
    # from psi_0, or from psi_1 = fl(x c1[0]) psi_0, the first step's bits
    mf = x * c1[0].item() * m0 if p else m0
    al, c = _two_step_turns(x, p, start)
    growth = math.log2(x * c1[0].item())  # of the largest step coefficient
    orders, last = 2, []
    while len(al) >= _TWO_STEP_MIN // 2 and 2 * orders * growth <= _BLOCK_LOG2_RANGE:
        last.append((al[-1].item(), c[-1].item()))
        if len(al) % 2:  # the first turn, whose c is 0, is left out: take it here
            mf *= al[0].item()
        al, c = _reduced(al, c)
        orders *= 2
    mf, sh = math.frexp(mf)
    first = start - orders * len(al)
    mf, pm, ef = _grown(mf, 0.0, e0 + sh, al, c, x * c1[first:start:orders], orders)
    # psi_{start-s} from psi_start = al psi_{start-s} - c psi_{start-2s} on each
    # level down, then psi_{start-1} from the one-step recurrence: sums of
    # positive terms
    for a, b in reversed(last):
        pm = (mf + b * pm) / a
    return mf, (mf + c2[start - 1].item() * pm) / (x * c1[start - 1].item()), ef


def _window(n: int, x: float, block: int, c1: np.ndarray, c2: np.ndarray, start: int, mf: float, pm: float,
            ef: int) -> tuple[float, float, int, float]:
    """Steps start .. n - 1 from (mf, pm) = (psi_start, psi_{start-1}) on exponent ef, summing the tail's terms.

    (mf, pm, ef, s) after the last, rescaled every block steps, s on twice the pair's exponent.
    """
    s = 0.0
    steps = zip(memoryview(x * c1[start:]), memoryview(c2[start:]))
    for _ in range(start, n, block):
        for a, b in itertools.islice(steps, block):
            u = a * mf
            mf, pm = u - pm * b, mf
            s += u * mf  # 2x psi_k psi_{k+1} / sqrt(2(k+1)), in the pair's scale squared
        _, sh = math.frexp(max(abs(mf), abs(pm)))
        ef += sh
        mf, pm, s = math.ldexp(mf, -sh), math.ldexp(pm, -sh), math.ldexp(s, -2 * sh)
    return mf, pm, ef, s


def _psi_scaled_point(n: int, x: float, block: int, c1: np.ndarray, c2: np.ndarray, tail: bool) -> tuple:
    """psi_scaled_grid's steps at one point x, in plain floats: (m, e), or (m, e, tm, te) with tail.

    Without tail _grown runs every step, in blocks of block steps, or, at
    x >= sqrt(2n), in runs sized on their growth bound (module docstring).
    With tail _grown, or from _TWO_STEP_MIN steps on _reduced_turns, runs
    the steps before _window_start's step, and _window the rest; where the
    terms left out could reach the sum, _window runs again from step 0.
    """
    m0, e0 = _seed_point(x)
    if not tail:
        # fl(x c1[k]) in one multiply: the doubles of the grid loop's first product
        a = x * c1
        mf, _, ef = _grown(m0, 0.0, e0, a, c2, a, block=None if _grows(n, x) else block)
        return _normalized_float(mf, ef)
    start = _window_start(n, x, block)
    if start >= _TWO_STEP_MIN:
        mf, pm, ef = _reduced_turns(x, start, c1, c2, m0, e0)
    else:
        a = x * c1[:start]
        mf, pm, ef = _grown(m0, 0.0, e0, a, c2[:start], a)
    ef_start = ef
    mf, pm, ef, s = _window(n, x, block, c1, c2, start, mf, pm, ef)
    # the terms left out sum to less than start sqrt(2) x 2^(2 ef_start) <
    # 2^(frexp(start x) + 1 + 2 ef_start) (module docstring), the window's to at
    # least 2^(frexp(s) - 1 + 2 ef): unless the first is below 2^-_WINDOW_MARGIN
    # of the second, sum again from step 0
    if start and math.frexp(start * x)[1] + 2 * ef_start + 1 > math.frexp(s)[1] - 1 + 2 * ef - _WINDOW_MARGIN:
        mf, pm, ef, s = _window(n, x, block, c1, c2, 0, m0, 0.0, e0)
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
    x = np.asarray(x, dtype=np.float64)
    negative = x < 0.0
    if not negative.any():
        return psi_scaled_grid(mode.n, x)
    distinct, inverse = np.unique(np.abs(x), return_inverse=True)
    m, e = psi_scaled_grid(mode.n, distinct)
    # gathered flat, so that a 0-d x too gives arrays to negate in place
    m, e = m[inverse.ravel()], e[inverse.ravel()]
    if mode.n % 2:
        np.negative(m, out=m, where=negative.ravel())
    return m.reshape(x.shape), e.reshape(x.shape)


def density_floats(mode: OscillatorMode, x: np.ndarray) -> np.ndarray:
    """psi_n(x)^2 collapsed to doubles; the far tail underflows gracefully to 0."""
    m, e = eval_psi_grid(mode, x)
    e2 = np.clip(2 * e, -4000, 4000).astype(np.int64)
    return np.ldexp(m * m, e2)
