import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import oscillator
from qhotunnel import quadrature as quad
from qhotunnel.oscillator import OscillatorMode, density_floats, two_prod
from qhotunnel.quadrature import (
    NonConvergence,
    integrate_decaying,
    integrate_finite,
    tunnel_probability_exact,
)

from ._oracles import FROZEN
from ._p_reference import P_REFERENCE


class TestIntegrateDecaying:
    def test_gaussian_tail(self):
        r = integrate_decaying(lambda x: np.exp(-x * x), 1.0, 1e-13)
        assert r.value == pytest.approx(FROZEN["half_sqrtpi_erfc1"], rel=1e-13)
        assert r.abs_error_estimate <= 1e-13 * max(abs(r.value), 1.0)
        assert r.tail_cut >= 1.0
        assert r.panels_used > 0

    def test_plain_exponential(self):
        r = integrate_decaying(lambda x: np.exp(-x), 0.0, 1e-13)
        assert r.value == pytest.approx(1.0, rel=1e-13)
        # the extreme log-concave tail: the halves' bound is exact, and the estimate must cover it
        assert r.abs_error_estimate >= math.exp(-r.tail_cut)

    def test_density_integral_matches_published_value(self):
        mode = OscillatorMode(10)
        r = integrate_decaying(lambda xs: density_floats(mode, xs), math.sqrt(21.0), 1e-13)
        assert r.value == pytest.approx(0.0601438 / 2.0, abs=5e-8)

    def test_scalar_integrands_accepted(self):
        r = integrate_decaying(lambda x: math.exp(-x * x), 1.0, 1e-11)
        assert r.value == pytest.approx(FROZEN["half_sqrtpi_erfc1"], rel=1e-11)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            integrate_decaying(lambda x: np.exp(-x), 0.0, 1e-2)
        # below 1e-14 a smooth integrand may march until its panel budget runs out
        for tol in (1e-16, 5e-15, 1e-15):
            with pytest.raises(ValueError):
                integrate_decaying(lambda x: np.exp(-x), 0.0, tol)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_bounds_rejected(self, bad):
        with pytest.raises(ValueError, match="bounds must be finite"):
            integrate_decaying(lambda x: np.exp(-x), bad)
        for a, b in ((bad, 1.0), (0.0, bad)):
            with pytest.raises(ValueError, match="bounds must be finite"):
                integrate_finite(lambda x: np.exp(-x), a, b)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_bad_first_width_rejected_before_any_call(self, width):
        # a zero width once summed nothing and stopped at 0.0, a negative or nan one recursed without end
        calls = []

        def f(x):
            calls.append(x)
            return np.exp(-x)

        with pytest.raises(ValueError, match="first_width"):
            integrate_decaying(f, 0.0, 1e-12, first_width=width)
        assert calls == []
        # an int bound past int64 is still a finite double
        assert integrate_decaying(lambda x: np.exp(-x), 10**300).value == 0.0

    def test_slow_tails_stop(self):
        # the halves' ratio certifies a slow exponential at the tol it needs, not where f underflows
        r = integrate_decaying(lambda x: 5.0 * np.exp(-x / 3.0), 0.0, 1e-11)
        assert r.tail_cut < 100.0
        assert abs(r.value - 15.0) <= 1.5e-10
        r = integrate_decaying(lambda x: (1.0 + x * x) ** -3, 0.0, 1e-11)
        assert abs(r.value - 3.0 * math.pi / 16.0) <= 1e-11

    @pytest.mark.parametrize(
        "f,a,tol,exact",
        [
            (lambda x: 5.0 * np.exp(-x / 3.0), 0.0, 1e-13, 15.0),
            (lambda x: math.exp(-x * x), 1.0, 1e-14, FROZEN["half_sqrtpi_erfc1"]),
            # 10 sqrt(50 pi) (1 + e^-50); e^-50 lies below an ulp of 1
            (lambda x: 40.0 * np.exp(-x * x / 50.0) * np.cos(x) ** 2, 0.0, 1e-14, 10.0 * math.sqrt(50.0 * math.pi)),
        ],
        ids=["5 exp(-x/3)", "scalar exp(-x^2)", "40 exp(-x^2/50) cos^2 x"],
    )
    def test_roundoff_stop(self, f, a, tol, exact):
        # a panel whose halves agree with it to a few ulps is accepted: bisecting it
        # further only reshuffles rounding, until the panel budget runs out
        r = integrate_decaying(f, a, tol)
        assert r.panels_used <= 100
        assert abs(r.value - exact) <= tol * max(abs(exact), 1.0)

    def test_log_convex_tail_stays_within_tol(self):
        # past x = 1 this tail is log-convex: the estimate (9.95e-15) understates
        # the true error (1.19e-14), but the value stays within tol
        tol = 1e-13
        r = integrate_decaying(lambda x: (1.0 + x * x) ** -3, 0.0, tol)
        assert abs(r.value - 3.0 * math.pi / 16.0) <= tol * max(abs(r.value), 1.0)
        assert r.abs_error_estimate <= tol * max(abs(r.value), 1.0)

    def test_zero_tail_stops_at_the_first_zero_panel(self):
        r = integrate_decaying(lambda x: np.maximum(1.0 - x, 0.0) ** 2, 0.0, 1e-13)
        assert r.value == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert (r.panels_used, r.tail_cut) == (2, 2.6)

    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(0.05, 4.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 3.0),
        st.sampled_from([1e-13, 1e-11, 1e-9, 1e-6]),
    )
    def test_log_concave_family(self, a, b, c, tol):
        # the integral of exp(-a x^2 - b x) over [h, inf), from erfc at 40 digits
        def exact(h):
            with mpmath.workdps(40):
                a_, b_, h_ = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(h)
                root = mpmath.sqrt(a_)
                scale = mpmath.exp(b_**2 / (4 * a_)) * mpmath.sqrt(mpmath.pi) / (2 * root)
                return scale * mpmath.erfc(root * h_ + b_ / (2 * root))

        r = integrate_decaying(lambda x: np.exp(-a * x * x - b * x), c, tol)
        value = exact(c)
        assert abs(r.value - value) <= tol * max(abs(value), 1.0)
        assert exact(r.tail_cut) <= r.abs_error_estimate

    def test_nonconvergence_on_budget(self, monkeypatch):
        monkeypatch.setattr(quad, "_PANEL_BUDGET", 40)
        with pytest.raises(NonConvergence):
            integrate_decaying(lambda x: 1.0 / (1.0 + x * x), 0.0, 1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 800), st.floats(0.0, 1.0))
    def test_density_tail_matches_the_identity(self, n, frac):
        # the kernel's tail identity is an exact reference for the integral of psi_n^2 over [a, inf)
        mode = OscillatorMode(n)
        a = frac * (mode.nu + 3.0)
        _, _, tm, te = oscillator.psi_scaled_grid(n, a, tail=True)
        exact = math.ldexp(tm, te)
        r = integrate_decaying(lambda xs: density_floats(mode, xs), a, 1e-12)
        assert abs(r.value - exact) <= 1e-12 * max(abs(exact), 1.0)

    def test_tolerance_consistency(self):
        # halving tol never moves the result by more than the looser tol
        f = lambda xs: density_floats(OscillatorMode(30), xs)
        a = OscillatorMode(30).nu
        vals = {tol: integrate_decaying(f, a, tol).value for tol in (1e-9, 1e-10, 1e-13)}
        assert abs(vals[1e-9] - vals[1e-10]) <= 1e-9 * max(abs(vals[1e-10]), 1.0)
        assert abs(vals[1e-10] - vals[1e-13]) <= 1e-10 * max(abs(vals[1e-13]), 1.0)

    def test_panel_layout_invariance(self):
        f = lambda x: np.exp(-x * x)
        base = integrate_decaying(f, 1.0, 1e-12)
        wide = integrate_decaying(f, 1.0, 1e-12, first_width=2.0)
        assert abs(base.value - wide.value) <= 2e-12 * max(abs(base.value), 1.0)

    def test_tail_threshold_invariance(self, monkeypatch):
        import qhotunnel.quadrature as quad

        f = lambda x: np.exp(-x * x)
        base = integrate_decaying(f, 1.0, 1e-12)
        monkeypatch.setattr(quad, "_TAIL_FRACTION", quad._TAIL_FRACTION / 10.0)
        strict = integrate_decaying(f, 1.0, 1e-12)
        assert strict.tail_cut >= base.tail_cut
        assert abs(base.value - strict.value) <= 2e-12 * max(abs(base.value), 1.0)


class TestTunnelProbabilityExact:
    def test_ground_state_is_erfc_one(self):
        assert tunnel_probability_exact(OscillatorMode(0), 1e-13) == pytest.approx(
            FROZEN["erfc_1"], abs=1e-12
        )

    def test_published_values(self):
        assert tunnel_probability_exact(OscillatorMode(10), 1e-13) == pytest.approx(
            0.0601438, abs=5e-8
        )
        assert tunnel_probability_exact(OscillatorMode(800), 1e-13) == pytest.approx(
            0.0144138, abs=5e-8
        )

    def test_monotone_decreasing_in_n(self):
        values = [tunnel_probability_exact(OscillatorMode(n), 1e-11) for n in range(21)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestNormalisation:
    @pytest.mark.parametrize("n", [0, 1, 10, 100, 800])
    def test_density_normalised(self, n):
        mode = OscillatorMode(n)
        f = lambda xs: density_floats(mode, xs)
        inner = integrate_finite(f, 0.0, mode.nu, 1e-12)
        outer = integrate_decaying(f, mode.nu, 1e-12)
        total = 2.0 * (inner.value + outer.value)
        assert total == pytest.approx(1.0, abs=1e-11)


def _density_case(n):
    mode = OscillatorMode(n)
    return (lambda xs: density_floats(mode, xs), mode.nu, {"first_width": min(1.0, 10.0 / mode.nu)})


_DECAYING_CASES = {
    **{f"density n={n}": _density_case(n) for n in (0, 1, 10, 100, 800, 5200)},
    "exp(-x^2) from 1": (lambda x: np.exp(-x * x), 1.0, {}),
    "exp(-x) from 0": (lambda x: np.exp(-x), 0.0, {}),
    "scalar exp(-x^2)": (lambda x: math.exp(-x * x), 1.0, {}),
    "first_width=2": (lambda x: np.exp(-x * x), 1.0, {"first_width": 2.0}),
    "5 exp(-x/3), total 15": (lambda x: 5.0 * np.exp(-x / 3.0), 0.0, {}),
    "40 exp(-x^2/50) cos^2 x": (lambda x: 40.0 * np.exp(-x * x / 50.0) * np.cos(x) ** 2, 0.0, {}),
    "(1+x^2)^-3, total 3pi/16": (lambda x: (1.0 + x * x) ** -3, 0.0, {}),
}


def _one_call_per_sum(monkeypatch):
    """Each sum from its own integrand call."""

    def one_at_a_time(fg, segments):
        sums = []
        for lo, hi in segments:
            half = 0.5 * (hi - lo)
            sums.append(half * float(quad._WEIGHTS @ fg(lo + half * (quad._NODES + 1.0))))
        return sums

    monkeypatch.setattr(quad, "_evaluate", one_at_a_time)


def _counted(f):
    calls = []
    return calls, lambda xs: (calls.append(np.size(xs)), f(xs))[1]


def _recorded(f):
    nodes = []
    return nodes, lambda xs: (nodes.extend(np.atleast_1d(xs).tolist()), f(xs))[1]


class TestLookAhead:
    """The march evaluates nothing past its stopping panel, and which call forms a sum never changes the result."""

    @pytest.mark.parametrize("n", [0, 1, 10, 100, 800])
    def test_finite_fields_equal(self, n, monkeypatch):
        # integrate_finite forms its coarse sum and all 8 panels' sums in one call
        mode = OscillatorMode(n)
        f = lambda xs: density_floats(mode, xs)
        new = integrate_finite(f, 0.0, mode.nu, 1e-12)
        _one_call_per_sum(monkeypatch)
        assert new == integrate_finite(f, 0.0, mode.nu, 1e-12)

    @pytest.mark.parametrize("n", [0, 1, 10, 100, 800])
    def test_finite_is_one_call_plus_one_per_bisection(self, n):
        mode = OscillatorMode(n)
        calls, f = _counted(lambda xs: density_floats(mode, xs))
        r = integrate_finite(f, 0.0, mode.nu, 1e-12)
        # the coarse panel and the whole and halves of all 8 segments, then 4 quarters per bisection
        bisections = (r.panels_used - 8) // 2
        assert calls == [(1 + 8 * 3) * 24] + [4 * 24] * bisections

    @pytest.mark.parametrize("case", ["density n=10", "density n=800", "exp(-x) from 0", "5 exp(-x/3), total 15"])
    def test_budget_parity(self, case, monkeypatch):
        f, a, kwargs = _DECAYING_CASES[case]
        used = integrate_decaying(f, a, 1e-13, **kwargs).panels_used
        monkeypatch.setattr(quad, "_PANEL_BUDGET", used)
        assert integrate_decaying(f, a, 1e-13, **kwargs).panels_used == used
        monkeypatch.setattr(quad, "_PANEL_BUDGET", used - 1)
        with pytest.raises(NonConvergence):
            integrate_decaying(f, a, 1e-13, **kwargs)

    @pytest.mark.parametrize("case", list(_DECAYING_CASES))
    def test_no_node_past_the_stopping_panel(self, case):
        f, a, kwargs = _DECAYING_CASES[case]
        nodes, g = _recorded(f)
        r = integrate_decaying(g, a, 1e-13, **kwargs)
        assert a < min(nodes) and max(nodes) < r.tail_cut

    def test_nan_past_the_stop_costs_nothing(self):
        f = lambda x: np.exp(-x * x)
        ref = integrate_decaying(f, 1.0, 1e-13)
        nodes, g = _recorded(lambda x: np.where(x < ref.tail_cut, f(x), np.nan))
        assert integrate_decaying(g, 1.0, 1e-13) == ref
        assert max(nodes) < ref.tail_cut

    def test_failure_past_the_stop_is_not_raised(self):
        def f(x):
            if x > 10.5:
                raise ValueError("outside the table")
            return math.exp(-x * x)

        assert integrate_decaying(f, 1.0, 1e-13) == integrate_decaying(lambda x: math.exp(-x * x), 1.0, 1e-13)


class TestOracleRoute:
    """The oracle is one tail=True kernel call at fl(nu), plus the sliver up to the turning point."""

    @pytest.mark.parametrize("n", [0, 10, 800, 999, 1000, 9800])
    def test_one_tail_call_per_oracle_solve(self, n, monkeypatch):
        calls = []
        kernel = oscillator.psi_scaled_grid

        def counted(order, x, **kwargs):
            calls.append((order, x, kwargs))
            return kernel(order, x, **kwargs)

        monkeypatch.setattr(oscillator, "psi_scaled_grid", counted)
        mode = OscillatorMode(n)
        tunnel_probability_exact(mode, 1e-13)
        assert calls == [(n, mode.nu, {"tail": True})]
        assert type(calls[0][1]) is float  # the kernel's float route, with no array built

    @pytest.mark.parametrize(
        "n,bound", [(0, 1e-15), (1, 1e-15), (10, 1e-14), (100, 1e-14), (800, 5e-14), (2000, 1e-13), (5200, 1e-13), (9800, 1e-13)]
    )
    def test_identity_agrees_with_quadrature_of_the_density(self, n, bound):
        # quadrature of the grid kernel's density from fl(nu) is an independent second route
        mode = OscillatorMode(n)
        r = integrate_decaying(lambda xs: density_floats(mode, xs), mode.nu, 1e-13, first_width=min(1.0, 10.0 / mode.nu))
        p, perr = two_prod(mode.nu, mode.nu)
        sliver = density_floats(mode, np.array([mode.nu]))[0] * ((p - (2 * n + 1)) + perr) / mode.nu
        quadrature = 2.0 * r.value + sliver
        assert abs(tunnel_probability_exact(mode, 1e-13) - quadrature) <= bound * quadrature

    @pytest.mark.parametrize("tol", [1e-15, 1e-2, math.nan])
    def test_tol_is_still_checked(self, tol):
        with pytest.raises(ValueError):
            tunnel_probability_exact(OscillatorMode(3), tol)


class TestFrozenReference:
    """The oracle against 40-digit P_n at the exact turning point (tests/_p_reference.py)."""

    @pytest.mark.parametrize(
        "n,bound",
        [(n, 2e-14) for n in P_REFERENCE if n <= 800]
        # about twice the measured errors, -5.2e-15, -1.5e-14, +1.3e-14 and -2.6e-14:
        # from n = 2000 on the steps before the window run two orders a turn
        + [(2000, 1e-14), (5200, 3e-14), (9800, 3e-14), (10**5, 5e-14)],
    )
    def test_oracle_within_its_measured_accuracy(self, n, bound):
        ref = mpmath.mpf(P_REFERENCE[n])
        p = tunnel_probability_exact(OscillatorMode(n), 1e-13)
        assert abs(mpmath.mpf(p) / ref - 1) <= bound
