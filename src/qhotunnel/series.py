"""Exact truncated power series over the rationals extended by 2^(1/3).

Every expansion coefficient that the asymptotic machinery needs (the
turning-point map, its inverse, phi, b0, a1 and the order-nu^-4 weight)
is re-derived here from first principles in exact arithmetic, so the
golden tests can demand equality rather than closeness.

A coefficient is c0 + c1*2^(1/3) + c2*2^(2/3) with rational c's; this is
a field, since 2^(1/3) has degree 3 over Q.  Half-integer powers such as
u^{3/2} or zeta^{-1/2} are never stored in a series: the derivations
factor them out by hand and cancel them before any ring arithmetic
happens (they always can, which is the point of the zeta variable).

The series kernels (products, scaling, inverses, rational powers and
compositions) work on an integer lattice: each input series is converted
once to integer triples (n0, n1, n2) over one common denominator d, so that
coefficient k is (n0 + n1*2^(1/3) + n2*2^(2/3)) / d.  A ring product is
then nine int multiplications with alpha^3 = 2 folded in, and no gcd;
ExactCoefficients of reduced Fractions are built only on output.  Inverses
use Newton doubling g <- g(2 - a*g) (Brent & Kung, JACM 1978) with the
common denominator reduced once per doubling; rational powers run their
recurrence over a denominator fixed in advance, so every division in it
is exact.  Products, inverses, powers and reversions of series are unique,
so the results equal those of Fraction arithmetic coefficient for
coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ZETA0 = (0.75 * math.pi) ** (2.0 / 3.0)  # inversion radius, from the x = -1 singularity
_CBRT2 = 2.0 ** (1.0 / 3.0)


class ZeroLeadingTerm(ZeroDivisionError):
    """Series division with a vanishing constant term."""


class NonRepresentablePower(ArithmeticError):
    """Requested rational power of the constant term leaves the ring."""


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

    @classmethod
    def from_rational(cls, p, q=1) -> "ExactCoefficient":
        return cls(Fraction(p, q))

    def __add__(self, other: "ExactCoefficient") -> "ExactCoefficient":
        return ExactCoefficient(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "ExactCoefficient") -> "ExactCoefficient":
        return ExactCoefficient(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "ExactCoefficient":
        return ExactCoefficient(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other) -> "ExactCoefficient":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return ExactCoefficient(self.c0 * q, self.c1 * q, self.c2 * q)
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = other.c0, other.c1, other.c2
        # alpha^3 = 2, alpha^4 = 2*alpha
        return ExactCoefficient(
            a0 * b0 + 2 * (a1 * b2 + a2 * b1),
            a0 * b1 + a1 * b0 + 2 * a2 * b2,
            a0 * b2 + a1 * b1 + a2 * b0,
        )

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def inverse(self) -> "ExactCoefficient":
        a, b, c = self.c0, self.c1, self.c2
        n = a**3 + 2 * b**3 + 4 * c**3 - 6 * a * b * c
        if n == 0:
            raise ZeroDivisionError("inverse of zero ring element")
        return ExactCoefficient((a * a - 2 * b * c) / n, (2 * c * c - a * b) / n, (b * b - a * c) / n)

    def pow_int(self, k: int) -> "ExactCoefficient":
        if k < 0:
            return self.inverse().pow_int(-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def as_monomial(self) -> tuple[Fraction, int] | None:
        """(rational, j) with value = rational * 2^(j/3), if single-component."""
        parts = [(self.c0, 0), (self.c1, 1), (self.c2, 2)]
        nz = [(r, j) for r, j in parts if r != 0]
        if not nz:
            return Fraction(0), 0
        if len(nz) > 1:
            return None
        return nz[0]

    def nth_root(self, q: int) -> "ExactCoefficient":
        """Exact q-th root, when it exists in the ring (monomials only)."""
        if q == 1:
            return self
        mono = self.as_monomial()
        if mono is None:
            raise NonRepresentablePower(f"no representable {q}-th root of {self}")
        rat, j = mono
        if rat == 0:
            return ZERO
        if rat < 0 and q % 2 == 0:
            raise NonRepresentablePower(f"even root of negative element {self}")
        sign = -1 if rat < 0 else 1
        num, den = abs(rat.numerator), rat.denominator
        v_num = (num & -num).bit_length() - 1
        v_den = (den & -den).bit_length() - 1
        thirds = 3 * (v_num - v_den) + j
        if thirds % q:
            raise NonRepresentablePower(f"2-power of {self} is not a {q}-th power")
        num_odd, den_odd = num >> v_num, den >> v_den
        rn = _int_nth_root(num_odd, q)
        rd = _int_nth_root(den_odd, q)
        if rn is None or rd is None:
            raise NonRepresentablePower(f"rational part of {self} is not a {q}-th power")
        t = thirds // q
        root = ExactCoefficient(Fraction(sign * rn, rd)) * _two_thirds_power(t)
        return root

    def to_float(self) -> float:
        return float(self.c0) + float(self.c1) * _CBRT2 + float(self.c2) * _CBRT2 * _CBRT2

    def __str__(self) -> str:
        return format_coefficient(self)


ZERO = ExactCoefficient()
ONE = ExactCoefficient(Fraction(1))
ALPHA = ExactCoefficient(Fraction(0), Fraction(1))  # 2^(1/3)


def _int_nth_root(n: int, q: int) -> int | None:
    if n == 0:
        return 0
    r = round(n ** (1.0 / q))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**q == n:
            return cand
    return None


def _two_thirds_power(t: int) -> ExactCoefficient:
    """2^(t/3) as a ring element (t any integer)."""
    j = t % 3
    k = (t - j) // 3
    base = [ONE, ALPHA, ALPHA * ALPHA][j]
    return base * Fraction(2) ** k


def format_coefficient(c: ExactCoefficient) -> str:
    """Exact display form 'p/q * 2^(e/3)', folding cube powers into the rational."""
    mono = c.as_monomial()
    if mono is None:
        parts = []
        for r, tag in ((c.c0, ""), (c.c1, "*2^(1/3)"), (c.c2, "*2^(2/3)")):
            if r != 0:
                parts.append(f"{r}{tag}")
        return " + ".join(parts).replace("+ -", "- ")
    rat, j = mono
    if rat == 0:
        return "0"
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


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------


def _as_coeff(v) -> ExactCoefficient:
    if isinstance(v, ExactCoefficient):
        return v
    return ExactCoefficient(Fraction(v))


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial truncation sum coeffs[k] * var^k, exact coefficients."""

    coeffs: tuple[ExactCoefficient, ...]
    var_name: str = "u"
    radius_note: float | None = None

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a truncated series needs at least one coefficient")

    @classmethod
    def from_list(cls, vals: Iterable, var_name: str = "u", radius_note=None) -> "TruncatedSeries":
        return cls(tuple(_as_coeff(v) for v in vals), var_name, radius_note)

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> ExactCoefficient:
        return self.coeffs[k]

    def _wrap(self, coeffs: Sequence[ExactCoefficient]) -> "TruncatedSeries":
        return TruncatedSeries(tuple(coeffs), self.var_name, self.radius_note)

    def truncate(self, m: int) -> "TruncatedSeries":
        return self._wrap(self.coeffs[:m])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(len(self), len(other))
        return self._wrap([self.coeffs[k] + other.coeffs[k] for k in range(m)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(len(self), len(other))
        return self._wrap([self.coeffs[k] - other.coeffs[k] for k in range(m)])

    def __neg__(self) -> "TruncatedSeries":
        return self._wrap([-c for c in self.coeffs])

    def scale(self, factor) -> "TruncatedSeries":
        return self._wrap(_mul_lists(self.coeffs, [_as_coeff(factor)], len(self)))

    def add_const(self, v) -> "TruncatedSeries":
        c = list(self.coeffs)
        c[0] = c[0] + _as_coeff(v)
        return self._wrap(c)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(len(self), len(other))
        return self._wrap(_mul_lists(self.coeffs, other.coeffs, m))

    def div(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(len(self), len(other))
        return self._wrap(_mul_lists(self.coeffs, _inv_list(other.coeffs[:m]), m))

    def inverse(self) -> "TruncatedSeries":
        return self._wrap(_inv_list(self.coeffs))

    def pow_rational(self, num: int, den: int = 1) -> "TruncatedSeries":
        r = Fraction(num, den)
        if r.denominator == 1:
            return self._pow_int(r.numerator)
        c = self.coeffs[0]
        if c.is_zero:
            raise ZeroLeadingTerm("rational power needs a nonzero constant term")
        root = c.nth_root(r.denominator)
        c_pow = root.pow_int(r.numerator)
        t = self.scale(c.inverse())
        return self._wrap(_binomial_list(t.coeffs, r)).scale(c_pow)

    def _pow_int(self, k: int) -> "TruncatedSeries":
        if k < 0:
            return self.inverse()._pow_int(-k)
        out = self._wrap([ONE] + [ZERO] * (len(self) - 1))
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out

    def shift_up(self, k: int) -> "TruncatedSeries":
        """Multiply by var^k, keeping length (high coefficients fall off)."""
        return self._wrap(([ZERO] * k + list(self.coeffs))[: len(self) + k])

    def shift_down(self, k: int, *, error=PoleCancellationFailure) -> "TruncatedSeries":
        """Divide by var^k; the k lowest coefficients must vanish exactly."""
        for j in range(k):
            if not self.coeffs[j].is_zero:
                raise error(
                    f"coefficient of {self.var_name}^{j} is {self.coeffs[j]}, expected 0"
                )
        return self._wrap(self.coeffs[k:])

    def derivative(self) -> "TruncatedSeries":
        if len(self) == 1:
            return self._wrap([ZERO])
        return self._wrap([self.coeffs[k] * k for k in range(1, len(self))])

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        if not inner.coeffs[0].is_zero:
            raise ValueError("composition needs a zero constant term in the inner series")
        m = min(len(self), len(inner))
        return inner._wrap(_compose_lists(self.coeffs[:m], inner.coeffs[:m], m))

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse: self(revert(self)) = identity."""
        if not self.coeffs[0].is_zero:
            raise NotInvertible("reversion needs a zero constant term")
        if len(self) < 2 or self.coeffs[1].is_zero:
            raise NotInvertible("reversion needs an invertible linear term")
        m = len(self)
        s = list(self.coeffs)
        r = [ZERO, self.coeffs[1].inverse()]
        while len(r) < m:
            L = min(2 * len(r), m)
            rp = r + [ZERO] * (L - len(r))
            sc = (s + [ZERO] * L)[:L]
            comp = _compose_lists(sc, rp, L)
            comp[1] = comp[1] - ONE  # subtract the identity series
            ds = [sc[k] * k for k in range(1, L)] + [ZERO]
            den = _compose_lists(ds, rp, L)
            corr = _mul_lists(comp, _inv_list(den), L)
            r = [rp[k] - corr[k] for k in range(L)]
        return self._wrap(r[:m])

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
# Kernels on the integer lattice
# ---------------------------------------------------------------------------


def _to_lattice(coeffs) -> tuple[int, list[tuple[int, int, int]]]:
    """(d, triples): coeffs[k] = (n0 + n1*alpha + n2*alpha^2) / d, one d > 0."""
    d = math.lcm(*(x.denominator for c in coeffs for x in (c.c0, c.c1, c.c2)))
    return d, [
        (
            c.c0.numerator * (d // c.c0.denominator),
            c.c1.numerator * (d // c.c1.denominator),
            c.c2.numerator * (d // c.c2.denominator),
        )
        for c in coeffs
    ]


def _from_lattice(d: int, triples) -> list[ExactCoefficient]:
    return [
        ExactCoefficient(Fraction(n0, d), Fraction(n1, d), Fraction(n2, d))
        for n0, n1, n2 in triples
    ]


def _reduce(d: int, triples) -> tuple[int, list[tuple[int, int, int]]]:
    """Divide the denominator and every numerator by their common gcd."""
    g = math.gcd(d, *(n for t in triples for n in t))
    if g == 1:
        return d, triples
    return d // g, [(n0 // g, n1 // g, n2 // g) for n0, n1, n2 in triples]


def _lattice_mul(a, b, m: int) -> list[tuple[int, int, int]]:
    """Numerators of a*b mod var^m; the denominator is the product of both."""
    # alpha^3 = 2, alpha^4 = 2*alpha: the doubled parts of b are formed once
    bb = [(y0, y1, y2, 2 * y1, 2 * y2) for y0, y1, y2 in b[:m]]
    o0 = [0] * m
    o1 = [0] * m
    o2 = [0] * m
    for i, (x0, x1, x2) in enumerate(a[:m]):
        if not (x0 or x1 or x2):
            continue
        k = i
        for y0, y1, y2, d1, d2 in bb[: m - i]:
            o0[k] += x0 * y0 + x1 * d2 + x2 * d1
            o1[k] += x0 * y1 + x1 * y0 + x2 * d2
            o2[k] += x0 * y2 + x1 * y1 + x2 * y0
            k += 1
    return list(zip(o0, o1, o2))


def _mul_lists(a, b, m):
    da, la = _to_lattice(a[:m])
    db, lb = _to_lattice(b[:m])
    return _from_lattice(da * db, _lattice_mul(la, lb, m))


def _inv_list(a):
    """1/a by Newton doubling g <- g(2 - a*g), which doubles the correct terms."""
    if a[0].is_zero:
        raise ZeroLeadingTerm("series inverse needs a nonzero constant term")
    m = len(a)
    da, la = _to_lattice(a)
    dg, g = _to_lattice([a[0].inverse()])
    n = 1
    while n < m:
        n = min(2 * n, m)
        # 2 - a*g over da*dg
        e = [(-e0, -e1, -e2) for e0, e1, e2 in _lattice_mul(la, g, n)]
        e[0] = (e[0][0] + 2 * da * dg, e[0][1], e[0][2])
        dg, g = _reduce(dg * da * dg, _lattice_mul(g, e, n))
    return _from_lattice(dg, g)


def _binomial_list(t, r: Fraction):
    """(1 + w)^r for t = 1 + w (t[0] must be ONE), rational exponent r.

    With y = t^r, k y_k = sum_{i=1..k} (r i - (k - i)) t_i y_{k-i}.  If
    t = T/dt and r = p/q, then y_k has a denominator dividing
    q^k dt^k k!, so y is carried over the common denominator
    E = q^(m-1) dt^(m-1) (m-1)! and every division below is exact.
    """
    m = len(t)
    p, q = r.numerator, r.denominator
    dt, lt = _to_lattice(t)
    e = (q * dt) ** (m - 1) * math.factorial(m - 1)
    y = [(e, 0, 0)]
    for k in range(1, m):
        s0 = s1 = s2 = 0
        for i in range(1, k + 1):
            x0, x1, x2 = lt[i]
            y0, y1, y2 = y[k - i]
            w = p * i - q * (k - i)
            s0 += w * (x0 * y0 + 2 * (x1 * y2 + x2 * y1))
            s1 += w * (x0 * y1 + x1 * y0 + 2 * x2 * y2)
            s2 += w * (x0 * y2 + x1 * y1 + x2 * y0)
        div = k * q * dt
        y.append((s0 // div, s1 // div, s2 // div))
    return _from_lattice(e, y)


def _compose_lists(f, g, m):
    """f(g) mod var^m by Horner's rule; g[0] must be zero.

    Each later Horner step multiplies by g and so raises the valuation by
    one; with k steps still to come only the first m - k terms matter.
    """
    df, lf = _to_lattice(f[:m])
    dg, lg = _to_lattice(g[:m])
    d, out = df, [lf[m - 1]]
    for k in range(m - 2, -1, -1):
        prod = _lattice_mul(out, lg, m - k)
        # prod / (d*dg) + f_k / df over their least common denominator
        dp = d * dg
        d = math.lcm(dp, df)
        sp, sf = d // dp, d // df
        if sp != 1:
            prod = [(n0 * sp, n1 * sp, n2 * sp) for n0, n1, n2 in prod]
        n0, n1, n2 = prod[0]
        prod[0] = (n0 + lf[k][0] * sf, n1 + lf[k][1] * sf, n2 + lf[k][2] * sf)
        d, out = _reduce(d, prod)
    return _from_lattice(d, out)


# ---------------------------------------------------------------------------
# Derivations of the turning-point expansions
# ---------------------------------------------------------------------------


_MAX_ORDER = 30


def _check_order(M: int) -> None:
    # the cap is on the order asked for; the work lengths inside run past it
    if M > _MAX_ORDER:
        raise ValueError(f"orders beyond {_MAX_ORDER} are not supported")


def derive_zeta_series(M: int) -> TruncatedSeries:
    """zeta as a series in u = x - 1, with M coefficients (degrees 0..M-1).

    Built by integrating d(zeta^{3/2})/dx = (3/2) sqrt(x^2-1): the factor
    sqrt(u(u+2)) splits into u^{1/2} * sqrt(2) * (1+u/2)^{1/2}, the
    half-integer power is absorbed into zeta^{3/2} = u^{3/2} sqrt(2) T(u),
    and zeta = 2^{1/3} u T(u)^{2/3} stays inside the ring.
    """
    _check_order(M)
    return _zeta_series(M)


def _zeta_series(M: int) -> TruncatedSeries:
    work = M + 2
    h = TruncatedSeries.from_list([1, Fraction(1, 2)] + [0] * (work - 2))
    c = h.pow_rational(1, 2)
    # T(u) = (3/2) * sum c_k u^k / (k + 3/2)
    T = TruncatedSeries(
        tuple(c.coeffs[k] * Fraction(3, 2 * k + 3) for k in range(len(c))), "u", 2.0
    )
    zeta = T.pow_rational(2, 3).shift_up(1).scale(ALPHA)
    return TruncatedSeries(zeta.coeffs[:M], "u", 2.0)


def derive_inversion_series(M: int) -> TruncatedSeries:
    """x as a series in zeta (constant term 1), M coefficients."""
    _check_order(M)
    # a one-term zeta series has no linear term to revert
    u = _u_of_zeta(max(M, 2)).truncate(M)
    return u.add_const(1)


def _u_of_zeta(work: int) -> TruncatedSeries:
    """u = x - 1 as a series in zeta: the one reversion of each derivation."""
    return TruncatedSeries(_zeta_series(work).revert().coeffs, "zeta", ZETA0)


# Each piece below takes u(zeta) with at least M + (its offset) coefficients
# and cuts it to that length, so one reversion can serve two pieces.
_PHI_WORK, _B0_WORK, _A1_WORK = 3, 4, 5


def _phi(u: TruncatedSeries, M: int) -> TruncatedSeries:
    u = u.truncate(M + _PHI_WORK)
    den = u.mul(u.add_const(2))  # u(u+2) = x^2 - 1, vanishes at zeta = 0
    q = den.shift_down(1)
    return q.inverse().truncate(M)


def derive_phi_series(M: int) -> TruncatedSeries:
    """phi(zeta) = zeta/(x^2-1) as a series in zeta, M coefficients."""
    _check_order(M)
    return _phi(_u_of_zeta(M + _PHI_WORK), M)


def _b_series(u: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(x, B) with B = u(u+2)/zeta; B(0) = 2^{2/3} so B^{3/2} is in the ring."""
    x = u.add_const(1)
    B = u.shift_down(1).mul(u.add_const(2))
    return x, B


def _b0(u: TruncatedSeries, M: int) -> TruncatedSeries:
    x, B = _b_series(u.truncate(M + _B0_WORK))
    b32 = B.pow_rational(3, 2)
    x2 = x.mul(x)
    p1 = x.mul(x2.add_const(-6)).div(b32).scale(Fraction(1, 12))
    bracket = p1.add_const(Fraction(5, 24))
    return bracket.shift_down(2).scale(Fraction(-1, 2)).truncate(M)


def derive_b0_series(M: int) -> TruncatedSeries:
    """b0(zeta) as a series in zeta (regular: the 1/zeta^2 pole cancels exactly)."""
    _check_order(M)
    return _b0(_u_of_zeta(M + _B0_WORK), M)


def derive_beta_series(M: int) -> TruncatedSeries:
    """Coefficients beta_m with phi(zeta) b0(zeta) = -sum beta_m zeta^m."""
    _check_order(M)
    work = M + 4
    u = _u_of_zeta(work + max(_PHI_WORK, _B0_WORK))
    return (-_phi(u, work).mul(_b0(u, work))).truncate(M)


def _a1(u: TruncatedSeries, M: int) -> TruncatedSeries:
    x, B = _b_series(u.truncate(M + _A1_WORK))
    x2 = x.mul(x)
    x4 = x2.mul(x2)
    num1 = x2.scale(249) + x4.scale(-9)
    num1 = num1.add_const(145)
    piece1 = num1.div(B._pow_int(3))
    piece2 = x.mul(x2.add_const(-6)).div(B.pow_rational(3, 2)).scale(-7)
    total = piece1 + piece2
    total = total.add_const(Fraction(-455, 4))
    return total.shift_down(3).scale(Fraction(1, 1152)).truncate(M)


def derive_a1_series(M: int) -> TruncatedSeries:
    """a1(zeta) as a series in zeta.

    The three singular pieces carry a zeta^{-3} prefactor after the
    half-integer bookkeeping; their sum must vanish to third order,
    otherwise PoleCancellationFailure signals an implementation bug.
    """
    _check_order(M)
    return _a1(_u_of_zeta(M + _A1_WORK), M)


def derive_nu4_weight_series(M: int) -> TruncatedSeries:
    """Series of -(1/576) phi (1 + 1152 f2), the order-nu^-4 density weight."""
    _check_order(M)
    work = M + 2
    u = _u_of_zeta(work + max(_PHI_WORK, _A1_WORK))
    a1 = _a1(u, work)
    return _phi(u, work).mul(a1.scale(1152).add_const(3)).scale(Fraction(-1, 576)).truncate(M)
