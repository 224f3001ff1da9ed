import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import oscillator
from qhotunnel import quadrature as quad
from qhotunnel.oscillator import OscillatorMode, density_floats, march_tail
from qhotunnel.quadrature import (
    NonConvergence,
    integrate_decaying,
    integrate_finite,
    tunnel_probability_exact,
)

from ._oracles import FROZEN


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
        # below 1e-14 an oracle solve may march until its panel budget runs out
        for tol in (1e-16, 5e-15, 1e-15):
            with pytest.raises(ValueError):
                integrate_decaying(lambda x: np.exp(-x), 0.0, tol)

    def test_slow_tails_stop(self):
        # the halves' ratio certifies a slow exponential at the tol it needs, not where f underflows
        r = integrate_decaying(lambda x: 5.0 * np.exp(-x / 3.0), 0.0, 1e-11)
        assert r.tail_cut < 100.0
        assert abs(r.value - 15.0) <= 1.5e-10
        r = integrate_decaying(lambda x: (1.0 + x * x) ** -3, 0.0, 1e-11)
        assert abs(r.value - 3.0 * math.pi / 16.0) <= 1e-11

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

    def test_nonconvergence_on_budget(self):
        with pytest.raises(NonConvergence):
            integrate_decaying(lambda x: 1.0 / (1.0 + x * x), 0.0, 1e-13, panel_budget=40)

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


def _oracle_case(n):
    mode = OscillatorMode(n)
    return (lambda xs: density_floats(mode, xs), mode.nu, {"first_width": min(1.0, 10.0 / mode.nu)})


_DECAYING_CASES = {
    **{f"oracle n={n}": _oracle_case(n) for n in (0, 1, 10, 100, 800, 5200)},
    "march n=5200": (march_tail(OscillatorMode(5200)).density, *_oracle_case(5200)[1:]),
    "exp(-x^2) from 1": (lambda x: np.exp(-x * x), 1.0, {}),
    "exp(-x) from 0": (lambda x: np.exp(-x), 0.0, {}),
    "scalar exp(-x^2)": (lambda x: math.exp(-x * x), 1.0, {}),
    "first_width=2": (lambda x: np.exp(-x * x), 1.0, {"first_width": 2.0}),
    "5 exp(-x/3), total 15": (lambda x: 5.0 * np.exp(-x / 3.0), 0.0, {}),
    "40 exp(-x^2/50) cos^2 x": (lambda x: 40.0 * np.exp(-x * x / 50.0) * np.cos(x) ** 2, 0.0, {}),
    "(1+x^2)^-3, total 3pi/16": (lambda x: (1.0 + x * x) ** -3, 0.0, {}),
}


def _depth_first(monkeypatch):
    """A plain march: nothing is evaluated ahead, and each sum costs its own call."""

    def one_at_a_time(fg, segments):
        sums = []
        for lo, hi in segments:
            half = 0.5 * (hi - lo)
            sums.append(half * float(quad._WEIGHTS @ fg(lo + half * (quad._NODES + 1.0))))
        return sums

    monkeypatch.setattr(quad, "_round", lambda fg, panels, index: [None] * len(panels))
    monkeypatch.setattr(quad, "_evaluate", one_at_a_time)


def _counted(f):
    calls = []
    return calls, lambda xs: (calls.append(np.size(xs)), f(xs))[1]


class TestLookAhead:
    """Evaluating panels ahead changes which call computes a sum, never the result."""

    @pytest.mark.parametrize("case", list(_DECAYING_CASES))
    def test_decaying_fields_equal(self, case, monkeypatch):
        f, a, kwargs = _DECAYING_CASES[case]
        new = integrate_decaying(f, a, 1e-13, **kwargs)
        _depth_first(monkeypatch)
        ref = integrate_decaying(f, a, 1e-13, **kwargs)
        assert new.value == ref.value
        assert new.abs_error_estimate == ref.abs_error_estimate
        assert new.panels_used == ref.panels_used
        assert new.tail_cut == ref.tail_cut

    @pytest.mark.parametrize("n", [0, 1, 10, 100, 800])
    def test_finite_fields_equal(self, n, monkeypatch):
        mode = OscillatorMode(n)
        f = lambda xs: density_floats(mode, xs)
        new = integrate_finite(f, 0.0, mode.nu, 1e-12)
        _depth_first(monkeypatch)
        assert new == integrate_finite(f, 0.0, mode.nu, 1e-12)

    @pytest.mark.parametrize("n", [0, 1, 10, 100, 800])
    def test_finite_is_one_call_plus_one_per_bisection(self, n):
        mode = OscillatorMode(n)
        calls, f = _counted(lambda xs: density_floats(mode, xs))
        r = integrate_finite(f, 0.0, mode.nu, 1e-12)
        # the coarse panel and the whole and halves of all 8 segments, then 4 quarters per bisection
        bisections = (r.panels_used - 8) // 2
        assert calls == [(1 + 8 * 3) * 24] + [4 * 24] * bisections

    @pytest.mark.parametrize("case", ["oracle n=10", "oracle n=800", "exp(-x) from 0", "5 exp(-x/3), total 15"])
    def test_budget_parity(self, case, monkeypatch):
        f, a, kwargs = _DECAYING_CASES[case]
        used = integrate_decaying(f, a, 1e-13, **kwargs).panels_used
        assert integrate_decaying(f, a, 1e-13, panel_budget=used, **kwargs).panels_used == used
        with pytest.raises(NonConvergence):
            integrate_decaying(f, a, 1e-13, panel_budget=used - 1, **kwargs)
        _depth_first(monkeypatch)
        assert integrate_decaying(f, a, 1e-13, **kwargs).panels_used == used

    @pytest.mark.parametrize("case", [c for c in _DECAYING_CASES if not c.startswith("scalar")])
    def test_at_most_one_round_of_extra_nodes(self, case, monkeypatch):
        f, a, kwargs = _DECAYING_CASES[case]
        ahead, g = _counted(f)
        integrate_decaying(g, a, 1e-13, **kwargs)
        _depth_first(monkeypatch)
        plain, g = _counted(f)
        integrate_decaying(g, a, 1e-13, **kwargs)
        assert len(ahead) <= len(plain)
        assert sum(ahead) <= sum(plain) + quad._LOOKAHEAD * 3 * 24

    def test_nan_past_the_stop_costs_nothing(self):
        # the march stops at 10.16; the round reaches 26.16
        f = lambda x: np.exp(-x * x)
        calls, g = _counted(lambda x: np.where(x < 10.5, f(x), np.nan))
        assert integrate_decaying(g, 1.0, 1e-13) == integrate_decaying(f, 1.0, 1e-13)
        assert calls == [quad._LOOKAHEAD * 3 * 24]

    def test_failure_past_the_stop_is_not_raised(self):
        def f(x):
            if x > 10.5:
                raise ValueError("outside the table")
            return math.exp(-x * x)

        assert integrate_decaying(f, 1.0, 1e-13) == integrate_decaying(lambda x: math.exp(-x * x), 1.0, 1e-13)


def _count_routes(monkeypatch):
    """Record the (order, size) of each grid-kernel call and the n of each march."""
    kernel_calls, marches = [], []
    kernel, march = oscillator.psi_scaled_grid, quad.march_tail

    def counted_kernel(order, xs, **kwargs):
        kernel_calls.append((order, len(xs)))
        return kernel(order, xs, **kwargs)

    def counted_march(mode):
        marches.append(mode.n)
        return march(mode)

    monkeypatch.setattr(oscillator, "psi_scaled_grid", counted_kernel)
    monkeypatch.setattr(quad, "march_tail", counted_march)
    return kernel_calls, marches


class TestRounds:
    @pytest.mark.parametrize("n", [0, 10, 800, quad._MARCH_MIN_N - 1])
    def test_one_kernel_call_per_oracle_solve(self, n, monkeypatch):
        kernel_calls, marches = _count_routes(monkeypatch)
        tunnel_probability_exact(OscillatorMode(n), 1e-13)
        assert [order for order, _ in kernel_calls] == [n] and marches == []

    @pytest.mark.parametrize("n", [quad._MARCH_MIN_N, 9800])
    def test_one_march_and_one_kernel_call_per_oracle_solve(self, n, monkeypatch):
        # one run gives psi_n and psi_{n-1} at fl(nu), which seed and check the march
        kernel_calls, marches = _count_routes(monkeypatch)
        tunnel_probability_exact(OscillatorMode(n), 1e-13)
        assert kernel_calls == [(n, 1)] and marches == [n]

    def test_one_round_logged_per_oracle_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="qhotunnel.quadrature"):
            tunnel_probability_exact(OscillatorMode(800), 1e-13)
        rounds = [r for r in caplog.records if r.name == "qhotunnel.quadrature"]
        assert [r.getMessage() for r in rounds] == ["quadrature round 0: 8 panels, 576 nodes in one call"]

    def test_march_logs_on_the_oscillator_logger(self, caplog):
        with caplog.at_level(logging.DEBUG):
            tunnel_probability_exact(OscillatorMode(9800), 1e-13)
        lines = [(r.name, r.getMessage().split(":")[0]) for r in caplog.records]
        assert lines == [("qhotunnel.oscillator", "march n=9800"), ("qhotunnel.quadrature", "quadrature round 0")]


class TestMarchOracle:
    """From _MARCH_MIN_N on the oracle integrates the march; it must reproduce the kernel route."""

    @pytest.mark.parametrize(
        "n,bound", [(quad._MARCH_MIN_N, 1e-13), (2000, 1e-13), (5200, 1e-13), (9800, 1e-13), (10**5, 5e-13)]
    )
    def test_agrees_with_the_kernel_route(self, n, bound):
        mode = OscillatorMode(n)
        march = integrate_decaying(march_tail(mode).density, mode.nu, 1e-13)
        kernel = integrate_decaying(lambda xs: density_floats(mode, xs), mode.nu, 1e-13)
        assert abs(march.value - kernel.value) <= bound * kernel.value
        assert (march.panels_used, march.tail_cut) == (kernel.panels_used, kernel.tail_cut)
        assert tunnel_probability_exact(mode, 1e-13) == 2.0 * march.value

    @pytest.mark.parametrize("n", [2000, 9800, 10**5, 10**6])
    def test_log_derivative_meets_the_seed(self, n, caplog):
        with caplog.at_level(logging.DEBUG, logger="qhotunnel.oscillator"):
            march = march_tail(OscillatorMode(n))
        assert march.seed_residual <= 1e-12
        (line,) = [r.getMessage() for r in caplog.records if r.name == "qhotunnel.oscillator"]
        assert line.endswith(f"seed log-derivative residual {march.seed_residual:.2e}")

    @pytest.mark.parametrize("n", [1000, 5200, 10**5])
    def test_table_ends_where_the_bound_drops_the_density(self, n):
        mode = OscillatorMode(n)
        march = march_tail(mode)
        edge = np.array([mode.nu, mode.nu + march.end])
        # the kernel at the march's end: below 1e-40 of the density at the turning point
        peak, tail = density_floats(mode, edge)
        assert 0.0 < tail <= 1e-40 * peak
        assert march.density(np.array([mode.nu + march.end, mode.nu + 2 * march.end, 1e3 * mode.nu])).tolist() == [0.0] * 3
        assert march.density(edge[:1])[0] == pytest.approx(peak, rel=1e-13)

    @pytest.mark.parametrize("offset", [math.nan, -1e-9, -1.0])
    def test_density_rejects_x_before_the_table(self, offset):
        march = march_tail(OscillatorMode(1000))
        with pytest.raises(ValueError):
            march.density(np.array([march.nu, march.nu + offset]))
