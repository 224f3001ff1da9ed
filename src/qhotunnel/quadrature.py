"""Adaptive panel quadrature for smooth, eventually fast-decaying integrands.

This is the independent oracle of the package: tunnelling probabilities
are obtained here by direct numerical integration of the true density
over [nu, inf), with no input from the asymptotic machinery.

Strategy: 24-point Gauss-Legendre panels laid out with geometrically
growing width in t = x - a; each panel is accepted only when it agrees
with its two half-panels, otherwise it is bisected.  The march stops
when a panel's contribution is negligible and a crude exponential
majorant certifies that the remaining tail is too.

The march is depth-first, one panel at a time, but it does not evaluate
one panel at a time: when it reaches a panel that has not been
evaluated, one integrand call computes the whole, both halves and the
tail-probe pair of that panel and the next ``_LOOKAHEAD - 1`` (a
round).  The march reads those sums and values back; anything else it
needs (the quarters of a bisected panel, say) is evaluated on demand as
before.  Every sum is formed as it would be from a call on its own, so
the result does not depend on the look-ahead.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oscillator import OscillatorMode, density_floats

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)

_GROWTH = 1.6          # panel width ratio
_MAX_WIDTH = 4.0
_TAIL_FRACTION = 0.1   # panel/tail cutoff at tol/10, per contract
_EST_SAFETY = 15.0     # accepted-panel error is well below |whole - halves|
_PROBE_STEP = 0.25     # the tail majorant is fitted to f(hi), f(hi + step)
_LOOKAHEAD = 8         # panels evaluated per round; one round for n <= 1e5

_log = logging.getLogger(__name__)


class NonConvergence(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    panels_used: int
    tail_cut: float


def _check_tol(tol: float) -> None:
    if not (1e-15 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-15, 1e-3], got {tol}")


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


def _evaluate(fg, segments, points=()) -> tuple[list[float], list[float]]:
    """Gauss-Legendre sums over each (lo, hi) segment, and f at each extra point, from one call."""
    lo = np.array([s[0] for s in segments], dtype=np.float64)
    half = 0.5 * (np.array([s[1] for s in segments], dtype=np.float64) - lo)
    xs = (lo[:, None] + half[:, None] * (_NODES + 1.0)).ravel()
    ys = fg(np.concatenate([xs, np.asarray(points, dtype=np.float64)]))
    rows = ys[: xs.size].reshape(-1, _NODES.size)
    # one dot per segment, so each sum rounds exactly as a 24-point panel on its own
    sums = [h * float(_WEIGHTS @ row) for h, row in zip(half.tolist(), rows)]
    return sums, ys[xs.size :].tolist()


class _Rounds:
    """Panel sums and tail-probe values evaluated ahead of the march."""

    def __init__(self, fg) -> None:
        self.fg = fg
        self.index = 0
        self.sums: dict[tuple[float, float], float | None] = {}
        self.values: dict[float, float | None] = {}

    def fill(self, panels, probe: bool) -> None:
        """Evaluate each panel's whole and halves, and its probe pair if asked, in one call."""
        segments = []
        for lo, hi in panels:
            mid = 0.5 * (lo + hi)
            segments += [(lo, hi), (lo, mid), (mid, hi)]
        points = [p for _, hi in panels for p in (hi, hi + _PROBE_STEP)] if probe else []
        try:
            sums, values = _evaluate(self.fg, segments, points)
        except Exception:
            # f fails somewhere ahead, perhaps where the march never goes: evaluate on demand
            sums, values = [None] * len(segments), [None] * len(points)
        self.sums = dict(zip(segments, sums))
        self.values = dict(zip(points, values))
        _log.debug(
            "quadrature round %d: %d panels, %d nodes in one call",
            self.index, len(panels), len(segments) * _NODES.size + len(points),
        )
        self.index += 1

    def panel(self, lo: float, hi: float) -> float:
        whole = self.sums.get((lo, hi))
        if whole is None:
            half = 0.5 * (hi - lo)
            whole = half * float(_WEIGHTS @ self.fg(lo + half * (_NODES + 1.0)))
        return whole

    def probe(self, hi: float) -> list[float]:
        pair = [self.values.get(hi), self.values.get(hi + _PROBE_STEP)]
        if None in pair:
            pair = self.fg(np.array([hi, hi + _PROBE_STEP])).tolist()
        return pair


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise NonConvergence(
                f"panel budget of {self.limit} exhausted; integrand looks pathological"
            )


def _refined(panel, lo, hi, leaf_tol, budget, whole=None):
    """Integrate [lo, hi] by bisection until whole/halves agree; returns (value, err)."""
    if whole is None:
        whole = panel(lo, hi)
    mid = 0.5 * (lo + hi)
    left = panel(lo, mid)
    right = panel(mid, hi)
    budget.spend()
    disc = abs(whole - (left + right))
    if disc <= leaf_tol or (hi - lo) < 1e-14 * max(abs(lo), 1.0):
        return left + right, disc / _EST_SAFETY
    vl, el = _refined(panel, lo, mid, 0.5 * leaf_tol, budget, whole=left)
    vr, er = _refined(panel, mid, hi, 0.5 * leaf_tol, budget, whole=right)
    return vl + vr, el + er


def integrate_decaying(
    f: Callable,
    a: float,
    tol: float = 1e-13,
    *,
    first_width: float | None = None,
    panel_budget: int = 100_000,
) -> QuadratureResult:
    """Integral of f over [a, inf) for smooth f decaying faster than e^{-x}.

    The returned absolute error estimate satisfies
    ``abs_error_estimate <= tol * max(|value|, 1)`` on success.
    """
    _check_tol(tol)
    rounds = _Rounds(_grid_fn(f))
    if first_width is None:
        first_width = min(1.0, 10.0 / a) if a > 1.0 else 1.0

    budget = _Budget(panel_budget)
    total = 0.0
    err = 0.0
    width = first_width
    lo = a
    while True:
        hi = lo + width
        if (lo, hi) not in rounds.sums:
            # the next panels as this loop lays them out, so their keys match
            ahead, l, w = [], lo, width
            for _ in range(_LOOKAHEAD):
                ahead.append((l, l + w))
                l, w = l + w, min(w * _GROWTH, _MAX_WIDTH)
            rounds.fill(ahead, probe=True)
        scale = max(abs(total), 1.0)
        leaf_tol = _TAIL_FRACTION * tol * scale / 20.0
        value, perr = _refined(rounds.panel, lo, hi, leaf_tol, budget)
        total += value
        err += perr

        scale = max(abs(total), 1.0)
        if abs(value) < _TAIL_FRACTION * tol * scale:
            # candidate stop: certify the remainder with an exponential majorant
            fx, fx2 = rounds.probe(hi)
            if fx == 0.0:
                return QuadratureResult(total, err, budget.used, hi)
            if fx > 0.0 and 0.0 <= fx2 < fx:
                # measured local rate; decay may only speed up further out
                rate = 1.0 if fx2 == 0.0 else -math.log(fx2 / fx) / _PROBE_STEP
                tail_bound = 1.5 * fx / rate
                if rate >= 0.9 and tail_bound < _TAIL_FRACTION * tol * scale:
                    err += tail_bound
                    return QuadratureResult(total, err, budget.used, hi)
        lo = hi
        width = min(width * _GROWTH, _MAX_WIDTH)


def integrate_finite(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-13,
    *,
    panel_budget: int = 100_000,
) -> QuadratureResult:
    """Adaptive integral over a finite interval (used for normalisation checks)."""
    _check_tol(tol)
    rounds = _Rounds(_grid_fn(f))
    budget = _Budget(panel_budget)
    # coarse scale estimate so leaf tolerances are meaningful from the start
    coarse = abs(rounds.panel(a, b))
    scale = max(coarse, 1.0)
    nseg = 8
    total = 0.0
    err = 0.0
    edges = np.linspace(a, b, nseg + 1).tolist()
    panels = list(zip(edges[:-1], edges[1:]))
    for i, (lo, hi) in enumerate(panels):
        if (lo, hi) not in rounds.sums:
            rounds.fill(panels[i : i + _LOOKAHEAD], probe=False)
        value, perr = _refined(rounds.panel, lo, hi, tol * scale / (20.0 * nseg), budget)
        total += value
        err += perr
    return QuadratureResult(total, err, budget.used, b)


def tunnel_probability_exact(mode: OscillatorMode, tol: float = 1e-13) -> float:
    """P_tun for state n: twice the density integral beyond the turning point.

    Works directly on the scaled density, so the normalisation constant
    and the Hermite polynomial are never formed separately.
    """
    result = integrate_decaying(lambda xs: density_floats(mode, xs), mode.nu, tol)
    return 2.0 * result.value
