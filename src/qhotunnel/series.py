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
a product is plain int arithmetic with no gcd.  Inverses use Newton
doubling g <- g(2 - a*g) (Brent & Kung, JACM 1978) with the denominator
reduced once per doubling; powers run their recurrence over a denominator
fixed in advance, so every division in it is exact.  Products, inverses,
powers and reversions of series are unique, so the results equal those of
Fraction arithmetic coefficient for coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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

    def _padded(self, m: int) -> "TruncatedSeries":
        return TruncatedSeries(self.den, self.nums + [0] * (m - len(self)))

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

    def derivative(self) -> "TruncatedSeries":
        return TruncatedSeries(self.den, [k * n for k, n in enumerate(self.nums)][1:] or [0])

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        if inner.nums[0]:
            raise ValueError("composition needs a zero constant term in the inner series")
        m = min(len(self), len(inner))
        return TruncatedSeries(*_compose((self.den, self.nums), (inner.den, inner.nums), m))

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse: self(revert(self)) = identity.

        Newton's step r <- r - (self(r) - var) / self'(r) doubles the number
        of correct terms.  The top term of self' that the truncation leaves
        unknown is set to 0; no correct term of the step depends on it.
        """
        if self.nums[0]:
            raise NotInvertible("reversion needs a zero constant term")
        if len(self) < 2 or not self.nums[1]:
            raise NotInvertible("reversion needs an invertible linear term")
        m = len(self)
        ds = self.derivative()._padded(m)
        var = TruncatedSeries(1, [0, 1])._padded(m)
        r = TruncatedSeries(self.nums[1], [0, self.den])
        while len(r) < m:
            n = min(2 * len(r), m)
            r = r._padded(n)
            step = (self.truncate(n).compose(r) - var.truncate(n)).div(ds.truncate(n).compose(r))
            r = r - step
        return r


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


def _compose(f, g, m: int) -> tuple[int, list[int]]:
    """f(g) mod var^m by Horner's rule; g's constant term must be zero.

    Each later Horner step multiplies by g and so raises the valuation by
    one; with k steps still to come only the first m - k terms matter.
    """
    df, nf = f
    d, out = df, nf[m - 1 : m]
    for k in range(m - 2, -1, -1):
        dp, prod = _mul((d, out), g, m - k)
        # prod / dp + f_k / df over their least common denominator
        d = math.lcm(dp, df)
        sp = d // dp
        if sp != 1:
            prod = [n * sp for n in prod]
        prod[0] += nf[k] * (d // df)
        d, out = _reduced(d, prod)
    return d, out


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
    # a one-term zeta series has no linear term to revert
    u = _u_of_s(max(M, 2)).truncate(M)
    return _in_zeta(u.add_const(1), 0)


def _u_of_s(work: int) -> TruncatedSeries:
    """u = x - 1 as a series in s: the one reversion of each derivation."""
    return _s_of_u(work).revert()


# Each piece below takes u(s) with at least M + (its offset) coefficients and
# cuts it to that length, so one reversion can serve two pieces.  Each returns
# g with f(zeta) = 2^(a/3) g(s) for the constant a its derive_* applies.
_PHI_WORK, _B0_WORK, _A1_WORK = 3, 4, 5


def _phi(u: TruncatedSeries, M: int) -> TruncatedSeries:
    """phi = zeta/(x^2 - 1) = 2^(1/3) s/(u(u+2)): a = 1."""
    u = u.truncate(M + _PHI_WORK)
    q = u.mul(u.add_const(2)).shift_down(1)  # u(u+2) = x^2 - 1, vanishes at s = 0
    return q.inverse().truncate(M)


def derive_phi_series(M: int) -> ExactSeries:
    """phi(zeta) = zeta/(x^2-1) as a series in zeta, M coefficients."""
    _check_order(M)
    return _in_zeta(_phi(_u_of_s(M + _PHI_WORK), M), 1)


def _bn_series(u: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(x, Bn) with B = u(u+2)/zeta = 2^(2/3) Bn and Bn(0) = 1.

    So B^(3/2) = 2 Bn^(3/2) and B^3 = 4 Bn^3 stay rational.
    """
    x = u.add_const(1)
    Bn = u.shift_down(1).mul(u.add_const(2)).scale(Fraction(1, 2))
    return x, Bn


def _b0(u: TruncatedSeries, M: int) -> TruncatedSeries:
    """b0 = -(1/2)[x(x^2-6)/(12 B^(3/2)) + 5/24]/zeta^2, zeta^2 = 2^(2/3) s^2: a = -2."""
    x, Bn = _bn_series(u.truncate(M + _B0_WORK))
    p1 = x.mul(x.mul(x).add_const(-6)).div(Bn.power(Fraction(3, 2))).scale(Fraction(1, 24))
    bracket = p1.add_const(Fraction(5, 24))
    return bracket.shift_down(2).scale(Fraction(-1, 2)).truncate(M)


def derive_b0_series(M: int) -> ExactSeries:
    """b0(zeta) as a series in zeta (regular: the 1/zeta^2 pole cancels exactly)."""
    _check_order(M)
    return _in_zeta(_b0(_u_of_s(M + _B0_WORK), M), -2)


def derive_beta_series(M: int) -> ExactSeries:
    """Coefficients beta_m with phi(zeta) b0(zeta) = -sum beta_m zeta^m."""
    _check_order(M)
    work = M + 4
    u = _u_of_s(work + max(_PHI_WORK, _B0_WORK))
    # a = 1 for phi plus -2 for b0
    return _in_zeta((-_phi(u, work).mul(_b0(u, work))).truncate(M), -1)


def _a1(u: TruncatedSeries, M: int) -> TruncatedSeries:
    """a1 = [(145 + 249x^2 - 9x^4)/B^3 - 7x(x^2-6)/B^(3/2) - 455/4]/(1152 zeta^3).

    With B^3 = 4 Bn^3, B^(3/2) = 2 Bn^(3/2) and zeta^3 = 2 s^3: a = -3.
    """
    x, Bn = _bn_series(u.truncate(M + _A1_WORK))
    x2 = x.mul(x)
    num1 = (x2.scale(249) + x2.mul(x2).scale(-9)).add_const(145)
    piece1 = num1.div(Bn.power(3)).scale(Fraction(1, 4))
    piece2 = x.mul(x2.add_const(-6)).div(Bn.power(Fraction(3, 2))).scale(Fraction(-7, 2))
    total = (piece1 + piece2).add_const(Fraction(-455, 4))
    return total.shift_down(3).scale(Fraction(1, 1152)).truncate(M)


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
    work = M + 2
    u = _u_of_s(work + max(_PHI_WORK, _A1_WORK))
    # a1 = g/2 with g = _a1(u, work), so 1152 a1 + 3 = 576 g + 3 is rational
    weight = _phi(u, work).mul(_a1(u, work).scale(576).add_const(3))
    return _in_zeta(weight.scale(Fraction(-1, 576)).truncate(M), 1)
