"""Exact truncated power series for the turning-point expansions.

Every expansion coefficient that the asymptotic machinery needs (the
turning-point map, its inverse, phi, b0, a1 and the order-nu^-4 weight)
is re-derived here from first principles in exact arithmetic, so the
golden tests can demand equality rather than closeness.

The coefficients lie in Q(2^(1/3)), but the field never enters the
arithmetic.  The map is zeta = 2^(1/3) s with s = u T(u)^(2/3) rational
(u = x - 1), so every family is f(zeta) = 2^(a/3) g(2^(-1/3) zeta) with g a
rational series in s and a a fixed integer per family; coefficient k of f
is the monomial g_k 2^((a - k)/3).  All derivations therefore run over Q in
the variable s, and the cube root of 2 is applied only on output
(ExactSeries, ExactCoefficient).  Half-integer powers such as u^{3/2} or
zeta^{-1/2} are never stored in a series: the derivations factor them out
by hand and cancel them before any series arithmetic happens.

A TruncatedSeries holds integer numerators over one common denominator, so
a product is plain int arithmetic with no gcd.  Newton doubling
g <- g(2 - a*g) (Brent & Kung, JACM 1978) serves inverses only, with the
denominator reduced once per doubling.  Powers run their recurrence over a
denominator fixed in advance, so every division in it is exact.  The
derivations need no reversion: u(s), the inverse of the map, is solved
coefficient by coefficient from the map's ODE zeta (dzeta/dx)^2 = x^2 - 1,
and the same ODE turns phi and the powers of B = (x^2 - 1)/zeta that b0 and
a1 need into products of u'(s).  TruncatedSeries.revert (Lagrange
inversion) stays as the reference the solve is tested against.  Products,
inverses, powers and reversions of series are unique, so whichever route
computes them, the results equal those of Fraction arithmetic coefficient
for coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable

_CBRT2 = 2.0 ** (1.0 / 3.0)


class ZeroLeadingTerm(ZeroDivisionError):
    """Series division with a vanishing constant term."""


class NonRepresentablePower(ArithmeticError):
    """Power of a series whose constant term is not 1."""


class NotInvertible(ArithmeticError):
    """Series reversion with a vanishing linear term."""


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
        return float(self.c0) + float(self.c1) * _CBRT2 + float(self.c2) * _CBRT2 * _CBRT2

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

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + -other

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

    def div(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(len(self), len(other))
        return self.mul(other.truncate(m).inverse())

    def derivative(self) -> "TruncatedSeries":
        """d/dvar, one coefficient shorter."""
        return TruncatedSeries(self.den, [k * n for k, n in enumerate(self.nums)][1:])

    def inverse(self) -> "TruncatedSeries":
        return TruncatedSeries(*_inv((self.den, self.nums)))

    def power(self, r) -> "TruncatedSeries":
        """self^r for rational r; the constant term must be 1."""
        if self.nums[0] != self.den:
            raise NonRepresentablePower("a series power needs the constant term 1")
        return TruncatedSeries(*_binomial((self.den, self.nums), Fraction(r)))

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by var^k, keeping length (high coefficients fall off)."""
        return TruncatedSeries(self.den, ([0] * k + self.nums)[: len(self)])

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Divide by var^k; the k lowest coefficients must vanish exactly."""
        for j in range(k):
            if self.nums[j]:
                raise PoleCancellationFailure(
                    f"coefficient of var^{j} is {self.coefficient(j)}, expected 0"
                )
        return TruncatedSeries(self.den, self.nums[k:])

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse: self(revert(self)) = identity.

        Lagrange inversion (Comtet, Advanced Combinatorics, 1974, 3.8): with
        self = var p and q = 1/p, coefficient k of the inverse is
        [var^(k-1)] q^k / k.
        """
        if self.nums[0]:
            raise NotInvertible("reversion needs a zero constant term")
        if len(self) < 2 or not self.nums[1]:
            raise NotInvertible("reversion needs an invertible linear term")
        q = self.shift_down(1).inverse()
        qk, coeffs = q, [0, q.coefficient(0)]
        for k in range(2, len(self)):
            qk = qk.mul(q)
            coeffs.append(qk.coefficient(k - 1) / k)
        return TruncatedSeries.from_list(coeffs)


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


def _inv(a) -> tuple[int, list[int]]:
    """1/a by Newton doubling g <- g(2 - a*g), which doubles the correct terms."""
    da, na = a
    if not na[0]:
        raise ZeroLeadingTerm("series inverse needs a nonzero constant term")
    m = len(na)
    g = (na[0], [da])
    n = 1
    while n < m:
        n = min(2 * n, m)
        de, e = _mul(a, g, n)
        e = [-v for v in e]
        e[0] += 2 * de  # 2 - a*g
        g = _reduced(*_mul(g, (de, e), n))
    return g


def _binomial(t, r: Fraction) -> tuple[int, list[int]]:
    """t^r for a series t with constant term 1, rational exponent r.

    With y = t^r, k y_k = sum_{i=1..k} (r i - (k - i)) t_i y_{k-i}.  If
    t = T/dt and r = p/q, then y_k has a denominator dividing
    q^k dt^k k!, so y is carried over the common denominator
    E = q^(m-1) dt^(m-1) (m-1)! and every division below is exact.
    """
    dt, nt = t
    m = len(nt)
    p, q = r.numerator, r.denominator
    e = (q * dt) ** (m - 1) * math.factorial(m - 1)
    y = [e]
    for k in range(1, m):
        s = 0
        for i in range(1, k + 1):
            s += (p * i - q * (k - i)) * nt[i] * y[k - i]
        y.append(s // (k * q * dt))
    return e, y


# ---------------------------------------------------------------------------
# Derivations of the turning-point expansions
# ---------------------------------------------------------------------------


_MAX_ORDER = 30


def _check_order(M: int) -> None:
    # the cap is on the order asked for; the work lengths inside run past it
    if not 1 <= M <= _MAX_ORDER:
        raise ValueError(f"order must lie in 1..{_MAX_ORDER}, got {M}")


def _in_zeta(g: TruncatedSeries, a: int) -> ExactSeries:
    """f(zeta) = 2^(a/3) g(2^(-1/3) zeta): coefficient k is g_k 2^((a - k)/3)."""
    return ExactSeries(
        tuple(_monomial(Fraction(n, g.den), a - k) for k, n in enumerate(g.nums))
    )


def derive_zeta_series(M: int) -> ExactSeries:
    """zeta as a series in u = x - 1, with M coefficients (degrees 0..M-1).

    Built by integrating d(zeta^{3/2})/dx = (3/2) sqrt(x^2-1): the factor
    sqrt(u(u+2)) splits into u^{1/2} * sqrt(2) * (1+u/2)^{1/2}, the
    half-integer power is absorbed into zeta^{3/2} = u^{3/2} sqrt(2) T(u),
    and zeta = 2^{1/3} s(u) with s = u T(u)^{2/3} rational.
    """
    _check_order(M)
    return ExactSeries(tuple(_monomial(c, 1) for c in _s_of_u(M).coeffs))


def _s_of_u(M: int) -> TruncatedSeries:
    """s = 2^(-1/3) zeta = u T(u)^(2/3) as a series in u, M coefficients."""
    work = M + 2
    c = TruncatedSeries.from_list([1, Fraction(1, 2)] + [0] * (work - 2)).power(Fraction(1, 2))
    # T(u) = (3/2) * sum c_k u^k / (k + 3/2) = sum 3 c_k u^k / (2k + 3)
    lcm = math.lcm(*range(3, 2 * work + 2, 2))
    T = TruncatedSeries(c.den * lcm, [3 * n * (lcm // (2 * k + 3)) for k, n in enumerate(c.nums)])
    return T.power(Fraction(2, 3)).shift_up(1).truncate(M)


def derive_inversion_series(M: int) -> ExactSeries:
    """x as a series in zeta (constant term 1), M coefficients."""
    _check_order(M)
    return _in_zeta(_u_of_s(M).add_const(1), 0)


def _u_of_s(work: int) -> TruncatedSeries:
    """u = x - 1 as a series in s, work coefficients: the one map of each derivation.

    The map obeys zeta (dzeta/dx)^2 = x^2 - 1, so u = s w solves
    w (s w + 2)(w + s w')^2 = 2.  Coefficient k of the left side is
    (4k + 6) w_k plus terms in w_0..w_(k-1), so w_k follows from three
    convolutions of length k: A = w(s w + 2), C = (w + s w')^2 and H = A C,
    each without its w_k terms.  W = d w and V_j = (j + 1) W_j are carried
    over one common denominator d, A and C over d^2; when w_k needs a new
    factor of d, every list is rescaled by it.
    """
    d, W, V, A, C = 1, [1], [1], [2], [1]  # w_0 = 1: A_0 = 2, C_0 = 1
    for k in range(1, work - 1):
        a = sum(map(mul, W, reversed(W)))
        c = sum(map(mul, V[1:], reversed(V[1:])))
        h = a * C[0] + A[0] * c + sum(map(mul, A[1:], reversed(C[1:])))
        # (4k + 6) w_k = -h / d^4, and W_k = d w_k
        wk = Fraction(-h, (4 * k + 6) * d**3)
        r = wk.denominator
        if r != 1:
            r2 = r * r
            d *= r
            W = [v * r for v in W]
            V = [v * r for v in V]
            A = [v * r2 for v in A]
            C = [v * r2 for v in C]
            a *= r2
            c *= r2
        p = wk.numerator
        W.append(p)
        V.append((k + 1) * p)
        A.append(a + 2 * d * p)
        C.append(c + 2 * (k + 1) * d * p)
    return TruncatedSeries(d, ([0] + W)[:work])


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
    _check_order(M)
    return _in_zeta(_phi(_u_of_s(M + _PHI_WORK), M), 1)


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
    _check_order(M)
    return _in_zeta(_b0(_u_of_s(M + _B0_WORK), M), -2)


def derive_beta_series(M: int) -> ExactSeries:
    """Coefficients beta_m with phi(zeta) b0(zeta) = -sum beta_m zeta^m."""
    _check_order(M)
    u = _u_of_s(M + max(_PHI_WORK, _B0_WORK))
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
    _check_order(M)
    return _in_zeta(_a1(_u_of_s(M + _A1_WORK), M), -3)


def derive_nu4_weight_series(M: int) -> ExactSeries:
    """Series of -(1/576) phi (1 + 1152 f2), the order-nu^-4 density weight."""
    _check_order(M)
    u = _u_of_s(M + max(_PHI_WORK, _A1_WORK))
    # a1 = g/2 with g = _a1(u, M), so 1152 a1 + 3 = 576 g + 3 is rational
    weight = _phi(u, M).mul(_a1(u, M).scale(576).add_const(3))
    return _in_zeta(weight.scale(Fraction(-1, 576)), 1)
