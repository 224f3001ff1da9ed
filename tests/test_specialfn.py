import math

import pytest

from qhotunnel.quadrature import integrate_decaying
from qhotunnel.specialfn import (
    AIRY_SWITCH,
    DomainError,
    _airy_asymptotic_scaled,
    _airy_series,
    ai_squared_moment,
    airy,
    airy_scaled,
    erfc,
    gamma,
    log_gamma,
)

from ._oracles import AIRY_FAR_SCALED, AIRY_GRID, ERFC_GRID, FROZEN, GAMMA_GRID, LOG_GAMMA_GRID


class TestAiry:
    def test_value_at_zero(self):
        p = airy(0.0)
        assert p.ai == pytest.approx(FROZEN["ai_0"], rel=1e-15)
        assert p.ai_prime == pytest.approx(FROZEN["aip_0"], rel=1e-15)

    def test_grid_accuracy(self):
        for t, ai_ref, aip_ref in AIRY_GRID:
            p = airy(t)
            assert p.ai == pytest.approx(ai_ref, rel=1e-12)
            assert p.ai_prime == pytest.approx(aip_ref, rel=1e-12)

    def test_scaled_beyond_double_range(self):
        for t, m_ref, e_ref in AIRY_FAR_SCALED:
            a, _ = airy_scaled(t)
            got = a.mantissa * 2.0 ** (a.exponent - e_ref)
            assert got == pytest.approx(m_ref, rel=1e-12)

    def test_leading_asymptotic_form(self):
        t = 100.0
        lead = 0.5 * math.pi**-0.5 * t**-0.25 * math.exp(-2.0 / 3.0 * t**1.5)
        assert airy(t).ai == pytest.approx(lead, rel=1e-3)

    def test_positive_and_decreasing(self):
        ts = [0.0, 0.5, 1.0, 3.0, 7.0, 9.0, 15.0, 40.0, 90.0]
        pairs = [airy(t) for t in ts]
        assert all(p.ai > 0.0 for p in pairs)
        assert all(p.ai_prime < 0.0 for p in pairs)
        assert all(a.ai > b.ai for a, b in zip(pairs, pairs[1:]))

    def test_branch_agreement_in_overlap(self):
        for t in (8.5, 8.75, 9.0, 9.25, 9.5):
            a_s, ap_s = _airy_series(t)
            a_a, ap_a = _airy_asymptotic_scaled(t)
            assert a_s == pytest.approx(a_a.to_float(), rel=1e-12)
            assert ap_s == pytest.approx(ap_a.to_float(), rel=1e-12)

    def test_series_is_correctly_rounded(self):
        import mpmath

        with mpmath.workdps(50):
            for k in range(901):
                t = k / 100
                ref = (float(mpmath.airyai(t)), float(mpmath.airyai(t, derivative=1)))
                assert _airy_series(t) == ref, t

    @pytest.mark.parametrize("exp2", [True, False], ids=["math.exp2", "no math.exp2"])
    def test_asymptotic_route_on_a_log_sweep(self, exp2, monkeypatch):
        # one route on every Python: it must not need math.exp2, which Python 3.10 lacks
        import mpmath

        if not exp2:
            monkeypatch.delattr(math, "exp2")
        with mpmath.workdps(50):
            for k in range(801):
                t = 9.0 * 10 ** (k / 160)
                for got, ref in zip(airy_scaled(t), (mpmath.airyai(t), mpmath.airyai(t, derivative=1))):
                    assert abs(mpmath.ldexp(got.mantissa, got.exponent) / ref - 1) <= 1e-15, t

    def test_ode_residual(self):
        h = 1e-4
        t = 0.5
        while t <= 20.0:
            d2 = (airy(t + h).ai - 2.0 * airy(t).ai + airy(t - h).ai) / (h * h)
            rhs = t * airy(t).ai
            assert abs(d2 - rhs) <= 1e-6 * max(1.0, abs(rhs))
            t += 1.3

    def test_derivative_consistency(self):
        h = 1e-6
        for t in (0.5, 1.0, 4.0, 9.0, 15.0, 20.0):
            fd = (airy(t + h).ai - airy(t - h).ai) / (2.0 * h)
            assert fd == pytest.approx(airy(t).ai_prime, rel=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            airy(-0.5)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_rejected(self, t):
        for fn in (airy, airy_scaled):
            with pytest.raises(DomainError, match="finite t >= 0"):
                fn(t)

    def test_switch_point(self):
        assert AIRY_SWITCH == 9.0


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(7.0 / 6.0) == pytest.approx(FROZEN["gamma_7_6"], rel=1e-13)

    def test_grid_accuracy(self):
        for x, ref in GAMMA_GRID:
            assert gamma(x) == pytest.approx(ref, rel=1e-13)

    def test_recurrence(self):
        x = 0.17
        while x < 49.0:
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-13)
            x += 0.618

    def test_log_gamma_grid(self):
        for x, ref in LOG_GAMMA_GRID:
            assert log_gamma(x) == pytest.approx(ref, rel=1e-13)

    def test_log_gamma_matches_gamma(self):
        for x in (0.3, 1.9, 7.5, 19.5, 25.0):
            assert log_gamma(x) == pytest.approx(math.log(gamma(x)), abs=1e-12, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestErfc:
    def test_anchors(self):
        assert erfc(0.0) == 1.0
        assert erfc(1.0) == pytest.approx(FROZEN["erfc_1"], rel=1e-13)

    def test_reflection(self):
        for x in (0.3, 1.0, 2.2):
            assert erfc(-x) == pytest.approx(2.0 - erfc(x), rel=1e-14)

    def test_grid_accuracy(self):
        for x, ref in ERFC_GRID:
            assert erfc(x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "fn, x, expected",
    [
        (gamma, 171.0, 7.257415615307998e306),
        (gamma, 171.7, DomainError),  # Gamma overflows a double
        (gamma, 1e-320, DomainError),  # ~1/x overflows
        (gamma, math.inf, DomainError),
        (gamma, math.nan, DomainError),
        (log_gamma, 1e-320, -math.log(1e-320)),
        (log_gamma, math.inf, DomainError),
        (log_gamma, math.nan, DomainError),
        (log_gamma, 1.7e308, DomainError),  # ln Gamma itself overflows
        (erfc, math.inf, 0.0),
        (erfc, -math.inf, 2.0),
        (erfc, math.nan, math.nan),
    ],
)
def test_special_function_edges(fn, x, expected):
    if expected is DomainError:
        with pytest.raises(DomainError):
            fn(x)
    elif math.isnan(expected):
        assert math.isnan(fn(x))
    else:
        assert fn(x) == pytest.approx(expected, rel=1e-15)


class TestAiSquaredMoments:
    def test_closed_forms(self):
        g = gamma
        sqrt_pi = math.sqrt(math.pi)
        assert ai_squared_moment(0) == pytest.approx(
            2.0 * 12.0 ** (-7.0 / 6.0) / (sqrt_pi * g(7.0 / 6.0)), rel=1e-14
        )
        assert ai_squared_moment(1) == pytest.approx(
            2.0 * 12.0**-1.5 / (sqrt_pi * g(1.5)), rel=1e-14
        )
        assert ai_squared_moment(3) == pytest.approx(
            12.0 * 12.0 ** (-13.0 / 6.0) / (sqrt_pi * g(13.0 / 6.0)), rel=1e-14
        )

    @pytest.mark.parametrize("m", range(9))
    def test_against_quadrature(self, m):
        f = lambda t: t**m * airy(t).ai ** 2
        r = integrate_decaying(f, 0.0, 1e-12)
        assert ai_squared_moment(m) == pytest.approx(r.value, rel=1e-10)

    def test_largest_order_is_finite(self):
        assert math.isfinite(ai_squared_moment(170))

    @pytest.mark.parametrize("m", [171, 600])
    def test_order_past_factorial_range_raises_domain_error(self, m):
        with pytest.raises(DomainError):
            ai_squared_moment(m)
