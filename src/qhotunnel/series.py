"""Exact truncated power series for the turning-point expansions.

Every expansion coefficient that the asymptotic machinery needs (the
turning-point map, its inverse, phi, b0, a1 and the order-nu^-4 weight)
is re-derived here from first principles in exact arithmetic, so the
golden tests can demand equality rather than closeness.

The coefficients lie in Q(2^(1/3)), but the field never enters the
arithmetic.  The map is zeta = 2^(1/3) s with s a rational series in
u = x - 1, so every family is f(zeta) = 2^(a/3) g(2^(-1/3) zeta) with g a
rational series in s and a a fixed integer per family; coefficient k of f
is the monomial g_k 2^((a - k)/3).  All derivations therefore run over Q in
the variable s, and the cube root of 2 is applied only on output
(ExactSeries, ExactCoefficient).  Half-integer powers such as zeta^{-1/2}
or ((x^2 - 1)/zeta)^{3/2} are never stored in a series: the derivations
cancel them by hand before any series arithmetic happens.

A TruncatedSeries holds integer numerators over one common denominator, so
a product is plain int arithmetic with no gcd.  Both directions of the map,
s(u) for zeta and its reversion u(s) for every other family, come from one
coefficient-by-coefficient solve of the map's ODE zeta (dzeta/dx)^2 =
x^2 - 1 (_solve_map), and the same ODE turns phi and the powers of
B = (x^2 - 1)/zeta that b0 and a1 need into products of u'(s).  So the
derivations need products and no inverse, power or reversion of a series.
Products and reversions of series are unique, so the results equal those
of Fraction arithmetic coefficient for coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul
from typing import Iterable


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for n > 0, by Newton's method from above the root."""
    x = 1 << (n.bit_length() // 3 + 1)
    while (y := (2 * x + n // (x * x)) // 3) < x:
        x = y
    return x


# 2^(j/3) for j = 0, 1, 2 as integers over 2^_CBRT2_BITS, rounded down
_CBRT2_BITS = 160
_CBRT2_NUMS = tuple(_icbrt(1 << (j + 3 * _CBRT2_BITS)) for j in range(3))


class PoleCancellationFailure(ArithmeticError):
    """A singular-looking combination failed to cancel its pole exactly."""


@dataclass(frozen=True)
class ExactCoefficient:
    """Element c0 + c1*2^(1/3) + c2*2^(2/3) of Q(2^(1/3))."""

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)

    def __neg__(self) -> "ExactCoefficient":
        return ExactCoefficient(-self.c0, -self.c1, -self.c2)

    def to_float(self) -> float:
        """The exact sum over one denominator, rounded once at the end.

        2^(1/3) and 2^(2/3) are good to 2^-160, so a monomial r 2^(j/3), as
        every derived coefficient is, gives its nearest double unless it lies
        within about 2^-160 of a midpoint between two doubles.
        """
        num, den = 0, 1
        for r, n in zip((self.c0, self.c1, self.c2), _CBRT2_NUMS):
            if r:
                num = num * r.denominator + r.numerator * n * den
                den *= r.denominator
        return num / (den << _CBRT2_BITS)  # int division rounds correctly

    def __str__(self) -> str:
        return format_coefficient(self)


def _monomial(r: Fraction, e: int) -> ExactCoefficient:
    """r * 2^(e/3) as a field element (e any integer)."""
    j = e % 3
    parts = [Fraction(0)] * 3
    parts[j] = r * Fraction(2) ** ((e - j) // 3)
    return ExactCoefficient(*parts)


def format_coefficient(c: ExactCoefficient) -> str:
    """Exact display form 'p/q * 2^(e/3)', folding cube powers into the rational."""
    parts = [(r, j) for j, r in enumerate((c.c0, c.c1, c.c2)) if r != 0]
    if not parts:
        return "0"
    if len(parts) > 1:
        tags = ("", "*2^(1/3)", "*2^(2/3)")
        return " + ".join(f"{r}{tags[j]}" for r, j in parts).replace("+ -", "- ")
    rat, j = parts[0]
    num, den = rat.numerator, rat.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    v_num = (num & -num).bit_length() - 1
    v_den = (den & -den).bit_length() - 1
    e = 3 * (v_num - v_den) + j
    num >>= v_num
    den >>= v_den
    if e % 3 == 0:
        f = Fraction(num, den) * Fraction(2) ** (e // 3)
        return f"{sign}{f}"
    head = f"{num}*" if num != 1 else ""
    tail = f"/{den}" if den != 1 else ""
    return f"{sign}{head}2^({e}/3){tail}"


@dataclass(frozen=True)
class ExactSeries:
    """A derived expansion: sum coeffs[k] * var^k with coefficients in Q(2^(1/3))."""

    coeffs: tuple[ExactCoefficient, ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> ExactCoefficient:
        return self.coeffs[k]

    def __neg__(self) -> "ExactSeries":
        return ExactSeries(tuple(-c for c in self.coeffs))

    def evaluate(self, z: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + c.to_float()
        return acc

    def float_coeffs(self) -> list[float]:
        return [c.to_float() for c in self.coeffs]

    def __str__(self) -> str:
        return ", ".join(format_coefficient(c) for c in self.coeffs)


# ---------------------------------------------------------------------------
# Rational truncated series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Rational truncation sum (nums[k] / den) * var^k.

    Always reduced: den > 0 and gcd(den, *nums) == 1, so the pair is the
    same for equal series.  The numerators stay in a list that each
    operation builds once and never changes.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: list[int]) -> None:
        if not nums:
            raise ValueError("a truncated series needs at least one coefficient")
        den, self.nums = _reduced(den, nums)
        self.den = den

    @classmethod
    def from_list(cls, vals: Iterable) -> "TruncatedSeries":
        fracs = [Fraction(v) for v in vals]
        d = math.lcm(*(f.denominator for f in fracs))
        return cls(d, [f.numerator * (d // f.denominator) for f in fracs])

    def __len__(self) -> int:
        return len(self.nums)

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def truncate(self, m: int) -> "TruncatedSeries":
        return TruncatedSeries(self.den, self.nums[:m])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        d = math.lcm(self.den, other.den)
        sa, sb = d // self.den, d // other.den
        return TruncatedSeries(d, [a * sa + b * sb for a, b in zip(self.nums, other.nums)])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.den, [-n for n in self.nums])

    def scale(self, factor) -> "TruncatedSeries":
        q = Fraction(factor)
        return TruncatedSeries(self.den * q.denominator, [n * q.numerator for n in self.nums])

    def add_const(self, v) -> "TruncatedSeries":
        q = Fraction(v)
        d = math.lcm(self.den, q.denominator)
        s = d // self.den
        nums = [n * s for n in self.nums]
        nums[0] += q.numerator * (d // q.denominator)
        return TruncatedSeries(d, nums)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(len(self), len(other))
        return TruncatedSeries(*_mul((self.den, self.nums), (other.den, other.nums), m))

    def derivative(self) -> "TruncatedSeries":
        """d/dvar, one coefficient shorter."""
        return TruncatedSeries(self.den, [k * n for k, n in enumerate(self.nums)][1:])

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by var^k; the k lowest coefficients must vanish exactly."""
        for j in range(k):
            if self.nums[j]:
                raise PoleCancellationFailure(
                    f"coefficient of var^{j} is {self.coefficient(j)}, expected 0"
                )
        return TruncatedSeries(self.den, self.nums[k:])

# ---------------------------------------------------------------------------
# Kernels on (denominator, numerators) pairs
# ---------------------------------------------------------------------------


def _reduced(d: int, nums: list[int]) -> tuple[int, list[int]]:
    """Divide out the common gcd of the denominator and all numerators; d > 0."""
    g = math.gcd(d, *nums)
    if d < 0:
        g = -g
    if g == 1:
        return d, nums
    return d // g, [n // g for n in nums]


def _mul(a, b, m: int) -> tuple[int, list[int]]:
    """a*b mod var^m; the denominator is the product of both."""
    (da, na), (db, nb) = a, b
    out = [0] * m
    for i, x in enumerate(na[:m]):
        if not x:
            continue
        k = i
        for y in nb[: m - i]:
            out[k] += x * y
            k += 1
    return da * db, out


# ---------------------------------------------------------------------------
# Derivations of the turning-point expansions
# ---------------------------------------------------------------------------


_MAX_ORDER = 30


def _check_order(M) -> int:
    """M as an int, refused before any work unless it is an integral 1.._MAX_ORDER."""
    try:
        M = index(M)
    except TypeError:
        raise TypeError(f"order must be an integer, got {M!r}") from None
    # the cap is on the order asked for; the work lengths inside run past it
    if not 1 <= M <= _MAX_ORDER:
        raise ValueError(f"order must lie in 1..{_MAX_ORDER}, got {M}")
    return M


def _in_zeta(g: TruncatedSeries, a: int) -> ExactSeries:
    """f(zeta) = 2^(a/3) g(2^(-1/3) zeta): coefficient k is g_k 2^((a - k)/3)."""
    return ExactSeries(
        tuple(_monomial(Fraction(n, g.den), a - k) for k, n in enumerate(g.nums))
    )


# (a, b) of _solve_map for each direction of the map
_U_OF_S, _S_OF_U = (1, 0), (0, 1)


def _solve_map(work: int, a: int, b: int) -> TruncatedSeries:
    """The turning-point map in one direction, as v y(v) with work coefficients.

    The map obeys zeta (dzeta/dx)^2 = x^2 - 1, with zeta = 2^(1/3) s and
    x = 1 + u.  Both directions are v y with y_0 = 1 solving

        (2y + a v y^2)(y + v y')^2 = 2 + b v:

    _U_OF_S = (1, 0) gives u = s y(s), from y (s y + 2)(y + s y')^2 = 2, and
    _S_OF_U = (0, 1) gives s = u y(u), from 2y (y + u y')^2 = u + 2.
    Coefficient k of the left side is (4k + 6) y_k plus terms in
    y_0..y_(k-1), so y_k follows from three convolutions of length k:
    P = 2y + a v y^2, C = (y + v y')^2 and H = P C, each without its y_k
    terms.  Y = d y and V_j = (j + 1) Y_j are carried over one common
    denominator d, P and C over d^2; when y_k needs a new factor of d, every
    list is rescaled by it.
    """
    d, Y, V, P, C = 1, [1], [1], [2], [1]  # y_0 = 1: P_0 = 2, C_0 = 1
    for k in range(1, work - 1):
        q = a * sum(map(mul, Y, reversed(Y)))
        c = sum(map(mul, V[1:], reversed(V[1:])))
        h = q * C[0] + P[0] * c + sum(map(mul, P[1:], reversed(C[1:])))
        # the right side 2 + b v has b at k = 1 and 0 past it, so
        # (4k + 6) y_k = (b [k = 1] d^4 - h) / d^4, and Y_k = d y_k; d = 1 at k = 1
        yk = Fraction((b if k == 1 else 0) - h, (4 * k + 6) * d**3)
        r = yk.denominator
        if r != 1:
            r2 = r * r
            d *= r
            Y = [v * r for v in Y]
            V = [v * r for v in V]
            P = [v * r2 for v in P]
            C = [v * r2 for v in C]
            q *= r2
            c *= r2
        p = yk.numerator
        Y.append(p)
        V.append((k + 1) * p)
        P.append(q + 2 * d * p)
        C.append(c + 2 * (k + 1) * d * p)
    return TruncatedSeries(d, ([0] + Y)[:work])


def derive_zeta_series(M: int) -> ExactSeries:
    """zeta as a series in u = x - 1, with M coefficients (degrees 0..M-1).

    zeta = 2^(1/3) s(u), and s = u t(u) solves 2t (t + u t')^2 = u + 2, the
    map's ODE zeta (dzeta/dx)^2 = x^2 - 1 written in u; see _solve_map.
    """
    M = _check_order(M)
    s = _solve_map(M, *_S_OF_U)
    return ExactSeries(tuple(_monomial(Fraction(n, s.den), 1) for n in s.nums))


def derive_inversion_series(M: int) -> ExactSeries:
    """x as a series in zeta (constant term 1), M coefficients."""
    M = _check_order(M)
    return _in_zeta(_solve_map(M, *_U_OF_S).add_const(1), 0)


# By the same ODE, B = (x^2 - 1)/zeta = (dzeta/dx)^2, and dx/dzeta =
# 2^(-1/3) u'(s), so phi = 1/B and the powers of B that b0 and a1 need are
# plain products of u'(s): no inverse, no fractional power.  Each piece below
# takes u(s) with at least M + (its offset) coefficients, one lost to u' and
# the rest to its shift_down, and cuts it to that length, so one map can serve
# two pieces.  Each returns g with f(zeta) = 2^(a/3) g(s) for the constant a
# its derive_* applies.
_PHI_WORK, _B0_WORK, _A1_WORK = 1, 3, 4


def _phi(u: TruncatedSeries, M: int) -> TruncatedSeries:
    """phi = zeta/(x^2 - 1) = (dx/dzeta)^2 = 2^(1/3) u'^2/2: a = 1."""
    v = u.truncate(M + _PHI_WORK).derivative()
    return v.mul(v).scale(Fraction(1, 2))


def derive_phi_series(M: int) -> ExactSeries:
    """phi(zeta) = zeta/(x^2-1) as a series in zeta, M coefficients."""
    M = _check_order(M)
    return _in_zeta(_phi(_solve_map(M + _PHI_WORK, *_U_OF_S), M), 1)


def _x_and_cube(u: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(x, u'^3), where 1/B^(3/2) = u'^3/2 and 1/B^3 = u'^6/4 stay rational."""
    v = u.derivative()
    return u.add_const(1), v.mul(v).mul(v)


def _b0(u: TruncatedSeries, M: int) -> TruncatedSeries:
    """b0 = -(1/2)[x(x^2-6)/(12 B^(3/2)) + 5/24]/zeta^2, zeta^2 = 2^(2/3) s^2: a = -2."""
    x, v3 = _x_and_cube(u.truncate(M + _B0_WORK))
    p1 = x.mul(x.mul(x).add_const(-6)).mul(v3).scale(Fraction(1, 24))
    bracket = p1.add_const(Fraction(5, 24))
    return bracket.shift_down(2).scale(Fraction(-1, 2))


def derive_b0_series(M: int) -> ExactSeries:
    """b0(zeta) as a series in zeta (regular: the 1/zeta^2 pole cancels exactly)."""
    M = _check_order(M)
    return _in_zeta(_b0(_solve_map(M + _B0_WORK, *_U_OF_S), M), -2)


def derive_beta_series(M: int) -> ExactSeries:
    """Coefficients beta_m with phi(zeta) b0(zeta) = -sum beta_m zeta^m."""
    M = _check_order(M)
    u = _solve_map(M + max(_PHI_WORK, _B0_WORK), *_U_OF_S)
    # a = 1 for phi plus -2 for b0
    return _in_zeta(-_phi(u, M).mul(_b0(u, M)), -1)


def _a1(u: TruncatedSeries, M: int) -> TruncatedSeries:
    """a1 = [(145 + 249x^2 - 9x^4)/B^3 - 7x(x^2-6)/B^(3/2) - 455/4]/(1152 zeta^3).

    With zeta^3 = 2 s^3: a = -3.
    """
    x, v3 = _x_and_cube(u.truncate(M + _A1_WORK))
    x2 = x.mul(x)
    num1 = (x2.scale(249) + x2.mul(x2).scale(-9)).add_const(145)
    piece1 = num1.mul(v3.mul(v3)).scale(Fraction(1, 4))
    piece2 = x.mul(x2.add_const(-6)).mul(v3).scale(Fraction(-7, 2))
    total = (piece1 + piece2).add_const(Fraction(-455, 4))
    return total.shift_down(3).scale(Fraction(1, 1152))


def derive_a1_series(M: int) -> ExactSeries:
    """a1(zeta) as a series in zeta.

    The three singular pieces carry a zeta^{-3} prefactor after the
    half-integer bookkeeping; their sum must vanish to third order,
    otherwise PoleCancellationFailure signals an implementation bug.
    """
    M = _check_order(M)
    return _in_zeta(_a1(_solve_map(M + _A1_WORK, *_U_OF_S), M), -3)


def derive_nu4_weight_series(M: int) -> ExactSeries:
    """Series of -(1/576) phi (1 + 1152 f2), the order-nu^-4 density weight."""
    M = _check_order(M)
    u = _solve_map(M + max(_PHI_WORK, _A1_WORK), *_U_OF_S)
    # a1 = g/2 with g = _a1(u, M), so 1152 a1 + 3 = 576 g + 3 is rational
    weight = _phi(u, M).mul(_a1(u, M).scale(576).add_const(3))
    return _in_zeta(weight.scale(Fraction(-1, 576)), 1)
