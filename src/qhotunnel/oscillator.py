"""Normalised harmonic-oscillator eigenfunctions, stable for any n and x.

The eigenfunction psi_n(x) = pi^{-1/4} (2^n n!)^{-1/2} e^{-x^2/2} H_n(x)
is evaluated through the orthonormal three-term recurrence so that all
intermediate quantities stay of moderate size; values are carried as
(mantissa, base-2 exponent) pairs because deep in the classically
forbidden region psi_n underflows the IEEE double range by thousands of
binary orders.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from ._kernels import psi_scaled_grid

# Beyond this |x| the seed exponent x^2/2 * log2(e) passes 2^53, so its
# integer part is no longer exact and psi_n loses every digit.
X_MAX = 2.0**26


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

    def log2(self) -> float:
        if self.mantissa == 0.0:
            raise ValueError("log2 of zero")
        return math.log2(abs(self.mantissa)) + self.exponent

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
