"""Adaptive panel quadrature, and the exact tunnelling oracle.

The integrators serve the acceptance gate: its Ai^2 moments, the
phi Ai^2 integrals of criterion 6 and the normalisation checks.  Strategy: 24-point Gauss-Legendre panels laid out
with geometrically growing width in t = x - a; each panel is accepted
only when it agrees with its two half-panels, otherwise it is bisected.
The march stops when a panel's contribution is negligible and its two
halves bound the remaining tail (Prekopa, 1973): rigorously where the
tail is log-concave, heuristically otherwise.

The decaying march takes its panels one at a time from one layout: one
integrand call gives a panel's whole and both halves, a bisected panel's
quarters cost one call per bisection, and nothing past the stopping panel
is evaluated.  Each sum is one dot over its own 24 nodes, so the result
does not depend on which call formed it.

The oracle, tunnel_probability_exact, integrates nothing: the tail mass
beyond the turning point is a finite sum of positive terms that the
kernel's one-point recurrence forms (see oscillator), with no input from
the asymptotic machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oscillator
from .oscillator import OscillatorMode, two_prod

# Unused here, but perfbench/tracer.py wraps qhotunnel.quadrature.density_floats,
# so the name stays bound.
from .oscillator import density_floats  # noqa: F401

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)

_GROWTH = 1.6          # panel width ratio
_MAX_WIDTH = 4.0
_TAIL_FRACTION = 0.1   # panel/tail cutoff at tol/10, per contract
_EST_SAFETY = 15.0     # accepted-panel error is well below |whole - halves|
_PANEL_BUDGET = 100_000


class NonConvergence(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    panels_used: int
    tail_cut: float


def _check_tol(tol: float) -> None:
    # below the floor a smooth integrand can march until the budget runs out (the density
    # at n = 7 at 1e-15: 25 s); with no roundoff stop yet, some do so even at 1e-14
    if not (1e-14 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-14, 1e-3], got {tol}")


def _check_bounds(*bounds: float) -> None:
    if not np.isfinite(np.array(bounds, dtype=float)).all():
        raise ValueError(f"integration bounds must be finite, got {bounds}")


def _grid_fn(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Accept both vectorised and scalar integrands; the first batch decides which."""

    def vector(xs):
        return np.asarray(f(xs), dtype=np.float64)

    def scalar(xs):
        return np.array([f(float(v)) for v in xs], dtype=np.float64)

    def first(xs):
        nonlocal call
        try:
            out = vector(xs)
            if out.shape == xs.shape:
                call = vector
                return out
        except Exception:
            pass
        call = scalar
        return scalar(xs)

    call = first
    return lambda xs: call(xs)


def _evaluate(fg, segments) -> list[float]:
    """Gauss-Legendre sums over each (lo, hi) segment, from one call."""
    lo = np.array([s[0] for s in segments], dtype=np.float64)
    half = 0.5 * (np.array([s[1] for s in segments], dtype=np.float64) - lo)
    rows = fg((lo[:, None] + half[:, None] * (_NODES + 1.0)).ravel()).reshape(-1, _NODES.size)
    # one dot per segment, so each sum rounds exactly as a 24-point panel on its own
    return [h * float(_WEIGHTS @ row) for h, row in zip(half.tolist(), rows)]


def _halves(lo: float, hi: float) -> list[tuple[float, float]]:
    mid = 0.5 * (lo + hi)
    return [(lo, mid), (mid, hi)]


def _panel_segments(panels) -> list[tuple[float, float]]:
    """Whole, left half and right half of each panel, in that order."""
    return [s for lo, hi in panels for s in ((lo, hi), *_halves(lo, hi))]


def _layout(lo: float, width: float):
    """The decaying march's panels: from lo, each _GROWTH times wider, up to _MAX_WIDTH."""
    while True:
        hi = lo + width
        yield lo, hi
        lo, width = hi, min(width * _GROWTH, _MAX_WIDTH)


class _Budget:
    def __init__(self) -> None:
        self.limit = _PANEL_BUDGET
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise NonConvergence(
                f"panel budget of {self.limit} exhausted; integrand looks pathological"
            )


def _refined(fg, lo, hi, sums, leaf_tol, budget):
    """Integrate [lo, hi] from its (whole, left, right) sums by bisection; returns (value, err)."""
    whole, left, right = sums
    budget.spend()
    disc = abs(whole - (left + right))
    if disc <= leaf_tol or (hi - lo) < 1e-14 * max(abs(lo), 1.0):
        return left + right, disc / _EST_SAFETY
    mid = 0.5 * (lo + hi)
    quarters = _evaluate(fg, _halves(lo, mid) + _halves(mid, hi))
    vl, el = _refined(fg, lo, mid, [left, *quarters[:2]], 0.5 * leaf_tol, budget)
    vr, er = _refined(fg, mid, hi, [right, *quarters[2:]], 0.5 * leaf_tol, budget)
    return vl + vr, el + er


def integrate_decaying(
    f: Callable,
    a: float,
    tol: float = 1e-13,
    *,
    first_width: float | None = None,
) -> QuadratureResult:
    """Integral of f over [a, inf) for smooth f whose tail is eventually log-concave.

    The tail bound is rigorous there and a heuristic otherwise.  On success
    ``abs_error_estimate <= tol * max(|value|, 1)``.  On a log-convex tail
    the ratio of a panel's halves understates the tail, so abs_error_estimate
    need not bound the error: for (1 + x^2)^-3 from 0 at tol 1e-13 it reads
    9.95e-15 against a true error of 1.19e-14 (the value is 3 pi/16), which
    is still within tol.
    """
    _check_tol(tol)
    _check_bounds(a)
    fg = _grid_fn(f)
    if first_width is None:
        first_width = min(1.0, 10.0 / a) if a > 1.0 else 1.0
    elif not 0.0 < first_width < math.inf:  # also rejects nan
        raise ValueError(f"first_width must be finite and > 0, got {first_width}")

    budget = _Budget()
    total = 0.0
    err = 0.0
    for lo, hi in _layout(a, first_width):
        sums = _evaluate(fg, _panel_segments([(lo, hi)]))
        scale = max(abs(total), 1.0)
        leaf_tol = _TAIL_FRACTION * tol * scale / 20.0
        value, perr = _refined(fg, lo, hi, sums, leaf_tol, budget)
        total += value
        err += perr

        scale = max(abs(total), 1.0)
        if abs(value) < _TAIL_FRACTION * tol * scale:
            # candidate stop: for log-concave f, integrals over equal steps fall off geometrically
            _, left, right = sums
            if left == right == 0.0:
                return QuadratureResult(total, err, budget.used, hi)
            if 0.0 <= right < left:
                ratio = right / left
                tail_bound = right * ratio / (1.0 - ratio)
                if tail_bound < _TAIL_FRACTION * tol * scale:
                    err += tail_bound
                    return QuadratureResult(total, err, budget.used, hi)


def integrate_finite(f: Callable, a: float, b: float, tol: float = 1e-13) -> QuadratureResult:
    """Adaptive integral over a finite interval (used for normalisation checks)."""
    _check_tol(tol)
    _check_bounds(a, b)
    fg = _grid_fn(f)
    budget = _Budget()
    nseg = 8
    edges = np.linspace(a, b, nseg + 1).tolist()
    panels = list(zip(edges[:-1], edges[1:]))
    # one call: a coarse whole-interval sum, so leaf tolerances are meaningful from the start,
    # and the whole and halves of every panel
    sums = _evaluate(fg, [(a, b), *_panel_segments(panels)])
    scale = max(abs(sums[0]), 1.0)
    total = 0.0
    err = 0.0
    leaf_tol = tol * scale / (20.0 * nseg)
    for i, (lo, hi) in enumerate(panels):
        value, perr = _refined(fg, lo, hi, sums[3 * i + 1 : 3 * i + 4], leaf_tol, budget)
        total += value
        err += perr
    return QuadratureResult(total, err, budget.used, b)


def tunnel_probability_exact(mode: OscillatorMode, tol: float = 1e-13) -> float:
    """P_tun for state n: twice the density integral beyond the turning point.

    One kernel call at the float fl(nu) gives psi_n there and the tail
    mass beyond it, as erfc plus n positive terms, in plain floats; the
    sliver between the turning point sqrt(2n+1) and fl(nu) is added to
    first order.  The kernel's rounding, not tol, sets the accuracy: tol
    is checked as for the integrators, and is otherwise unused.
    """
    _check_tol(tol)
    n, nu = mode.n, mode.nu
    m, e, tm, te = oscillator.psi_scaled_grid(n, nu, tail=True)
    p, perr = two_prod(nu, nu)
    r = (p - (2 * n + 1)) + perr  # fl(nu)^2 - (2n+1); p - (2n+1) is exact (Sterbenz)
    # 2 int_nu^fl(nu) psi_n^2 = 2 psi_n^2 (fl(nu) - nu), and fl(nu) - nu = r / (2 fl(nu))
    return 2.0 * math.ldexp(tm, te) + math.ldexp(m * m * r / nu, 2 * e)
