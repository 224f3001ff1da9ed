import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel.asymptotics import (
    DomainError,
    integral_phi_ai2_asym,
    integral_phib0_dai2_asym,
    a1,
    b0,
    phi,
    relative_error_table,
    tunnel_probability_asym,
    uniform_psi_approx,
    x_of_zeta,
    zeta_of_x,
)
from qhotunnel.oscillator import OscillatorMode, ScaledValue, eval_psi, rel_diff
from qhotunnel.quadrature import integrate_decaying
from qhotunnel.specialfn import airy, gamma

from ._oracles import FROZEN
from ._p_reference import P_REFERENCE
from .conftest import REFERENCE_TABLE


class TestZetaMap:
    def test_turning_point(self):
        p = zeta_of_x(1.0)
        assert p.zeta == 0.0 and p.x == 1.0

    def test_near_turning_point(self):
        got = zeta_of_x(1.0 + 1e-6).zeta
        assert got == pytest.approx(FROZEN["zeta_at_1p1e6"], rel=1e-12)
        assert got == pytest.approx(2.0 ** (1.0 / 3.0) * 1e-6, rel=1e-5)

    def test_closed_form_point(self):
        assert zeta_of_x(2.0).zeta == pytest.approx(FROZEN["zeta_at_2"], rel=1e-12)

    def test_series_branch_accuracy(self):
        assert zeta_of_x(1.02).zeta == pytest.approx(FROZEN["zeta_at_1p02"], rel=1e-12)
        assert zeta_of_x(1.05).zeta == pytest.approx(FROZEN["zeta_at_1p05"], rel=1e-12)

    def test_branch_overlap(self):
        for x in (1.04, 1.0499, 1.0501, 1.06):
            # closed form vs exact series should agree regardless of branch
            w = math.sqrt(x * x - 1.0)
            closed = (0.75 * (x * w - math.acosh(x))) ** (2.0 / 3.0)
            assert zeta_of_x(x).zeta == pytest.approx(closed, rel=1e-11)

    @pytest.mark.parametrize("x", [1.2, 3.0, 100.0, 1e8, 1e60, 1e150])
    def test_closed_map_against_mpmath(self, x):
        # raising to the double 2/3 alone rounds zeta low by 2.6e-14 at 1e150
        with mpmath.workdps(50):
            ref = _closed_forms_mp(x)[0]
            assert abs(zeta_of_x(x).zeta / ref - 1) <= 4e-16

    def test_monotone(self):
        xs = np.linspace(1.0, 4.0, 200)
        zs = [zeta_of_x(float(x)).zeta for x in xs]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_of_x(0.999)

    @pytest.mark.parametrize("x", [math.inf, 1e300, 1.4e154])
    def test_overflowing_map_raises_domain_error(self, x):
        # (x - 1)(x + 1) overflows a double from x of about 1.3e154
        with pytest.raises(DomainError, match="map overflows"):
            zeta_of_x(x)

    def test_jacobian_identity(self):
        # d(zeta)/dx equals phi(zeta)^{-1/2}
        h = 1e-6
        for x in np.linspace(1.01, 3.0, 25):
            dz = (zeta_of_x(x + h).zeta - zeta_of_x(x - h).zeta) / (2.0 * h)
            z = zeta_of_x(float(x)).zeta
            assert dz * math.sqrt(phi(z)) == pytest.approx(1.0, abs=1e-6)


class TestInverseMap:
    def test_zero(self):
        assert x_of_zeta(0.0).x == 1.0

    def test_small_zeta_series(self):
        got = x_of_zeta(0.01).x
        assert got == pytest.approx(FROZEN["x_at_zeta_0.01"], rel=1e-13)
        two_term = 1.0 + 2.0 ** (-1.0 / 3.0) * 0.01 - 2.0 ** (-2.0 / 3.0) * 1e-4 / 10.0
        assert got == pytest.approx(two_term, abs=2e-8)

    def test_newton_points(self):
        assert x_of_zeta(1.0).x == pytest.approx(FROZEN["x_at_zeta_1.0"], rel=1e-12)
        assert x_of_zeta(4.0).x == pytest.approx(FROZEN["x_at_zeta_4.0"], rel=1e-12)

    def test_round_trip(self):
        for zeta in (0.0, 1e-4, 0.03, 0.061, 0.3, 1.0, 2.5, 10.0, 40.0):
            x = x_of_zeta(zeta).x
            back = zeta_of_x(x).zeta
            assert abs(back - zeta) <= 1e-12 * max(zeta, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True))
    def test_round_trip_from_x(self, x):
        # near x = 1 this runs through the float coefficients of both series
        back = x_of_zeta(zeta_of_x(x).zeta).x
        assert abs(back - x) <= 1e-13 * (x - 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            x_of_zeta(-0.1)

    def test_newton_converges_over_sweep(self):
        # log scale, so the series-start range [0.06, 1.5] is dense; plus the edges of each start
        edges = [np.nextafter(z, 2.0) * (1.0 + k * 1e-15) for z in (0.06, 0.1, 1.5) for k in range(5)]
        for zeta in [0.0, *np.geomspace(0.06, 1e6, 4001), *edges]:
            x = x_of_zeta(float(zeta)).x
            assert math.isfinite(x) and x >= 1.0
            assert zeta_of_x(x).zeta == pytest.approx(zeta, rel=1e-13)

    def test_unconverged_newton_raises(self, monkeypatch):
        with pytest.raises(DomainError):
            x_of_zeta(math.inf)
        import qhotunnel.asymptotics as asymptotics

        monkeypatch.setattr(asymptotics, "_zeta32_closed", lambda x: math.nan)
        with pytest.raises(DomainError):
            x_of_zeta(1.0)

    @pytest.mark.parametrize("zeta", [1e250, 1e300, 1.7976931348623157e308])
    def test_overflowing_zeta_raises_domain_error(self, zeta):
        # zeta**1.5 overflows a double from zeta of about 3.2e205
        with pytest.raises(DomainError):
            x_of_zeta(zeta)


def _closed_forms_mp(x):
    """zeta, phi, b0 and a1 at x > 1 by their closed forms in x, in mpmath's working precision."""
    xm = mpmath.mpf(x)
    w2 = xm * xm - 1
    z32 = mpmath.mpf(3) / 4 * (xm * mpmath.sqrt(w2) - mpmath.acosh(xm))
    zeta = z32 ** (mpmath.mpf(2) / 3)
    return (
        zeta,
        zeta / w2,
        -(xm * (xm * xm - 6) / (12 * w2**1.5) + 5 / (24 * z32)) / (2 * mpmath.sqrt(zeta)),
        ((145 + 249 * xm**2 - 9 * xm**4) / w2**3 - 7 * xm * (xm * xm - 6) / (w2**1.5 * z32)
         - 455 / (4 * z32**2)) / 1152,
    )


class TestCoefficientFunctions:
    def test_values_at_zero(self):
        assert phi(0.0) == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-14)
        assert b0(0.0) == pytest.approx(-(9.0 / 140.0) * 2.0 ** (-2.0 / 3.0), rel=1e-13)
        assert a1(0.0) == pytest.approx(-249.0 / 28800.0, rel=1e-13)

    def test_switch_continuity(self):
        # series branch vs closed forms, evaluated at the same points
        for zeta in (0.08, 0.1, 0.12):
            x = x_of_zeta(zeta).x
            w2 = x * x - 1.0
            phi_closed = zeta / w2
            b0_closed = -0.5 / math.sqrt(zeta) * (
                x * (x * x - 6.0) / (12.0 * w2**1.5) + 5.0 / (24.0 * zeta**1.5)
            )
            a1_closed = (
                (145.0 + 249.0 * x * x - 9.0 * x**4) / w2**3
                - 7.0 * x * (x * x - 6.0) / (w2**1.5 * zeta**1.5)
                - 455.0 / (4.0 * zeta**3)
            ) / 1152.0
            from qhotunnel.asymptotics import _coeffs, _horner

            assert _horner(_coeffs("phi"), zeta) == pytest.approx(phi_closed, rel=1e-10)
            assert _horner(_coeffs("b0"), zeta) == pytest.approx(b0_closed, rel=1e-10)
            assert _horner(_coeffs("a1"), zeta) == pytest.approx(a1_closed, rel=1e-9)

    # 1.084 is where the a1 closed form, just above the switch, is worst
    @pytest.mark.parametrize(
        "x", [1.0 + 1e-6, 1.001, 1.01, 1.05, 1.084, *np.linspace(1.1, 8.0, 35).tolist()]
    )
    def test_evaluator_against_mpmath(self, x):
        # phi, b0, a1 at zeta_of_x(x) against their closed forms in x at 50 digits
        from qhotunnel.asymptotics import _coefficient_functions

        got = _coefficient_functions(zeta_of_x(x))
        with mpmath.workdps(50):
            _, *ref = _closed_forms_mp(x)
            errors = [float(abs(g / r - 1)) for g, r in zip(got, ref)]
        assert all(e <= bound for e, bound in zip(errors, (1e-14, 1e-12, 1e-10))), errors

    @pytest.mark.parametrize("x", [1e60, 1e150])
    def test_closed_forms_hold_past_the_cube_overflow(self, x):
        # (x^2 - 1)^3 overflows from x ~ 1.3e51; the forms divided through by x^6
        # are finite up to the map's limit.  At the double nearest zeta(x): the
        # map's own rounding of zeta grows with ln x (1e-14 at 1e60)
        with mpmath.workdps(50):
            zeta, *ref = _closed_forms_mp(x)
            got = phi(float(zeta)), b0(float(zeta)), a1(float(zeta))
            errors = [float(abs(g / r - 1)) for g, r in zip(got, ref)]
        assert max(errors) <= 1e-15, errors

    def test_phi_bounded(self):
        bound = 2.0 ** (-2.0 / 3.0)
        for zeta in np.linspace(0.0, 10.0, 101):
            v = phi(float(zeta))
            assert 0.0 < v <= bound * (1.0 + 1e-14)

    def test_monotone_decay(self):
        zs = np.linspace(0.0, 10.0, 101)
        neg_b0 = [-b0(float(z)) for z in zs]
        neg_a1 = [-a1(float(z)) for z in zs]
        assert all(a > b for a, b in zip(neg_b0, neg_b0[1:]))
        assert all(a > b for a, b in zip(neg_a1, neg_a1[1:]))
        assert all(v > 0.0 for v in neg_b0)


class TestUniformApprox:
    def test_pointwise_against_oscillator(self):
        mode = OscillatorMode(100)
        got = uniform_psi_approx(mode, 1.5)
        ref = eval_psi(mode, 1.5 * mode.nu)
        assert rel_diff(got, ref) <= 1e-6

    def test_regular_at_turning_point(self):
        v = uniform_psi_approx(OscillatorMode(10), 1.0)
        assert v.mantissa != 0.0
        assert math.isfinite(v.to_float())

    def test_order_improvement_with_n(self):
        def worst(n):
            mode = OscillatorMode(n)
            return max(
                rel_diff(uniform_psi_approx(mode, xs), eval_psi(mode, xs * mode.nu))
                for xs in (1.0, 1.1, 1.5, 2.0, 3.0)
            )

        w100, w400 = worst(100), worst(400)
        assert w400 < w100
        # error should fall at least as fast as nu^-2 per retained order
        assert w400 < w100 * (801.0 / 201.0) ** -1.0

    def test_no_newton_inversion(self, monkeypatch):
        # the approximation knows x, so it never inverts zeta(x)
        import qhotunnel.asymptotics as asymptotics

        xs = (1.0, 1.05, 1.1, 1.5, 2.0, 3.0, 10.0)
        args = [(OscillatorMode(n), x) for n in (10, 400) for x in xs]
        before = [uniform_psi_approx(*a) for a in args]

        def no_inversion(zeta):
            raise AssertionError(f"x_of_zeta({zeta}) called")

        monkeypatch.setattr(asymptotics, "x_of_zeta", no_inversion)
        assert [uniform_psi_approx(*a) for a in args] == before

    def test_domain(self):
        with pytest.raises(DomainError):
            uniform_psi_approx(OscillatorMode(10), 0.99)

    @pytest.mark.parametrize("x_scaled", [1e300, math.inf])
    def test_overflowing_point_raises_domain_error(self, x_scaled):
        # x^2 overflows from x of about 1.3e154
        with pytest.raises(DomainError, match="overflow"):
            uniform_psi_approx(OscillatorMode(10), x_scaled)

    @pytest.mark.parametrize("x_scaled", [1e60, 1e150])
    def test_point_past_the_cube_overflow_is_normalized(self, x_scaled):
        # (x^2 - 1)^3 overflows from x of about 1.3e51, inside the map's range
        v = uniform_psi_approx(OscillatorMode(10), x_scaled)
        assert isinstance(v, ScaledValue) and v.is_normalized and 0.0 < v.mantissa < 1.0
        assert v.exponent < -10**100  # psi_10 at 10^60 nu: e^(-x^2/2) is far past any double

    # ln[2^((n+1)/2) sqrt(n!) e^(n/2+1/4) / (pi^(1/4) nu^(n+2/3))], nu^2 = 2n + 1,
    # from mpmath at 200 digits, rounded to 50
    LOG_NORM_PREFACTOR = {
        21: "0.032171377255242785511472912492814998187686163829542",
        400: "-0.2106335069339182425175046608058839972507787634166",
        10**4: "-0.47872328888971214748493205600104673138887351012506",
        10**6: "-0.8624812837636914630926142857623866959711632879628",
        10**20: "-3.5488304964234322611067640405330334426370420083978",
    }

    @pytest.mark.parametrize("n", sorted(LOG_NORM_PREFACTOR))
    def test_log_norm_prefactor_against_frozen(self, n):
        from qhotunnel.asymptotics import _log_norm_prefactor

        got = _log_norm_prefactor(n, OscillatorMode(n).nu)
        assert abs(got - float(self.LOG_NORM_PREFACTOR[n])) <= 1e-15


class TestIntegralExpansions:
    def test_leading_terms(self):
        nu = 10.0
        lead = integral_phi_ai2_asym(nu, 1)
        expect = (
            2.0
            / math.sqrt(math.pi)
            * 2.0 ** (-2.0 / 3.0)
            * nu ** (-4.0 / 3.0)
            / (12.0 ** (7.0 / 6.0) * gamma(7.0 / 6.0))
        )
        assert lead.value == pytest.approx(expect, rel=1e-13)

        lead2 = integral_phib0_dai2_asym(nu, 1)
        beta0 = (9.0 / 280.0) * 2.0 ** (-1.0 / 3.0)
        expect2 = beta0 * (3.0 * nu) ** (-4.0 / 3.0) / gamma(2.0 / 3.0) ** 2
        assert lead2.value == pytest.approx(expect2, rel=1e-12)

    def test_power_scaling(self):
        t1 = integral_phi_ai2_asym(10.0, 2).terms[-1][1]
        t2 = integral_phi_ai2_asym(20.0, 2).terms[-1][1]
        assert t1 / t2 == pytest.approx(2.0 ** (8.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_phi_ai2_vs_quadrature(self, M):
        nu = 20.0
        s = nu ** (4.0 / 3.0)
        quad = integrate_decaying(
            lambda z: phi(z) * airy(s * z).ai ** 2, 0.0, 1e-13, first_width=10.0 / s
        ).value
        approx = integral_phi_ai2_asym(nu, M).value
        first_omitted = abs(integral_phi_ai2_asym(nu, M + 1).terms[-1][1])
        assert abs(approx - quad) < first_omitted

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_phib0_dai2_vs_quadrature(self, M):
        nu = 20.0
        s = nu ** (4.0 / 3.0)

        def f(z):
            p = airy(s * z)
            return phi(z) * b0(z) * 2.0 * p.ai * p.ai_prime

        quad = integrate_decaying(f, 0.0, 1e-13, first_width=10.0 / s).value
        approx = integral_phib0_dai2_asym(nu, M).value
        first_omitted = abs(integral_phib0_dai2_asym(nu, M + 1).terms[-1][1])
        assert abs(approx - quad) < first_omitted

    @pytest.mark.parametrize("nu", [0.0, 0.5, -3.0, math.inf, math.nan])
    def test_nu_outside_the_states_raises_domain_error(self, nu):
        for expansion in (integral_phi_ai2_asym, integral_phib0_dai2_asym):
            with pytest.raises(DomainError, match="finite nu >= 1"):
                expansion(nu, 3)

    @pytest.mark.parametrize("M", [2.0, 2.5, "2", None])
    def test_order_must_be_an_integer(self, M):
        # refused before any work, by an error that names M
        for expansion in (integral_phi_ai2_asym, integral_phib0_dai2_asym):
            with pytest.raises(TypeError, match="M must be an integer"):
                expansion(10.0, M)

    def test_sign_is_positive(self):
        # phi*b0 < 0 and [Ai^2]' < 0, so the integrand and hence the whole
        # expansion are positive for every nu
        for nu in (5.0, 10.0, 20.0):
            assert integral_phib0_dai2_asym(nu, 3).value > 0.0
            s = nu ** (4.0 / 3.0)
            p = airy(s * 0.3)
            assert phi(0.3) * b0(0.3) < 0.0
            assert 2.0 * p.ai * p.ai_prime < 0.0


class TestTunnelProbabilityAsym:
    def test_leading_coefficient(self):
        c = 2.0 ** (5.0 / 3.0) * 6.0 ** (-2.0 / 3.0) / gamma(1.0 / 3.0) ** 2
        assert c == pytest.approx(0.1339750, abs=5e-8)
        big = tunnel_probability_asym(OscillatorMode(10**9), "eq42")
        assert big.value * (10.0**9) ** (1.0 / 3.0) == pytest.approx(c, rel=1e-5)

    def test_terms_sum_to_value(self):
        for form in ("eq41", "eq42", "numeric42", "jadczyk13"):
            r = tunnel_probability_asym(OscillatorMode(37), form)
            assert r.value == pytest.approx(math.fsum(v for _, v in r.terms), abs=1e-18)

    def test_labels_strictly_decreasing(self):
        from fractions import Fraction

        def power_of(label):
            inner = label.split("^")[1].strip("()")
            return Fraction(inner)

        for form in ("eq41", "eq42"):
            r = tunnel_probability_asym(OscillatorMode(25), form)
            powers = [power_of(lbl) for lbl, _ in r.terms]
            assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_numeric42_close_to_eq42(self):
        for n in (10, 100):
            a = tunnel_probability_asym(OscillatorMode(n), "eq42").value
            b = tunnel_probability_asym(OscillatorMode(n), "numeric42").value
            assert b == pytest.approx(a, rel=1e-6)

    def test_forms_against_published_values(self):
        # references carry 6 significant digits (granularity ~2e-6 relative)
        assert tunnel_probability_asym(OscillatorMode(10), "eq42").value == pytest.approx(
            0.0601438, rel=2e-5
        )
        assert tunnel_probability_asym(OscillatorMode(200), "eq42").value == pytest.approx(
            0.0228302, rel=3e-6
        )

    def test_eq41_agrees_with_eq42(self):
        e41 = tunnel_probability_asym(OscillatorMode(100), "eq41").value
        e42 = tunnel_probability_asym(OscillatorMode(100), "eq42").value
        assert abs(e41 - e42) / e42 < 10.0 * REFERENCE_TABLE[100][1]

    # ln[2^(n+2) n! e^(n+1/2) / (sqrt(pi) nu^(2n+5/3))], nu^2 = 2n + 1, from
    # mpmath at 200 digits, rounded to 50
    EQ41_LOG_PREFACTOR = {
        21: "0.13062324912150380986137086088616539185768309787241",
        800: "-1.0732189273425250009419284694321661233249197735974",
        10**4: "-1.9148889891005072706515365079202910614922748418659",
        10**5: "-2.6823986040505839795428645138913632657871660526088",
        10**6: "-3.4499250933881200190291377001676026122578550361068",
    }

    @pytest.mark.parametrize("n", sorted(EQ41_LOG_PREFACTOR))
    def test_eq41_log_prefactor_against_frozen(self, n):
        from qhotunnel.asymptotics import _eq41_log_prefactor

        assert abs(_eq41_log_prefactor(n) - float(self.EQ41_LOG_PREFACTOR[n])) <= 1e-15

    @pytest.mark.parametrize("n", [10**20, 10**100])
    def test_eq41_at_huge_n(self, capsys, n):
        from qhotunnel import cli

        assert cli.main(["asym", str(n), "--form", "eq41"]) == 0
        assert "total" in capsys.readouterr().out
        mode = OscillatorMode(n)
        e41 = tunnel_probability_asym(mode, "eq41").value
        e42 = tunnel_probability_asym(mode, "eq42").value
        assert e41 == pytest.approx(e42, rel=1e-12)

    @pytest.mark.parametrize("n", [100, 800, 10**5])
    def test_eq41_remainder_is_beyond_the_last_power(self, n):
        # the remainder is O(nu^(-16/3)), so at most nu^(-4/3) times the nu^-4 term
        r = dict(tunnel_probability_asym(OscillatorMode(n), "eq41").terms)
        nu = math.sqrt(2 * n + 1)
        assert abs(r["nu^(-16/3)"]) <= nu ** (-4.0 / 3.0) * abs(r["nu^(-4)"])

    def test_rejects_n_zero_and_bad_form(self):
        with pytest.raises(DomainError):
            tunnel_probability_asym(OscillatorMode(0), "eq42")
        with pytest.raises(ValueError):
            tunnel_probability_asym(OscillatorMode(5), "eq43")


class TestClosedFormConstants:
    """The coefficients eq41 types from the paper, and eq42's taken from them."""

    def test_eq41_constants_are_the_watson_terms(self):
        from qhotunnel.asymptotics import _A2, _A3, _B0C, _B1C, _C0, _C1

        watson = [v for _, v in integral_phi_ai2_asym(1.0, 4).terms]
        watson += [v for _, v in integral_phib0_dai2_asym(1.0, 2).terms]
        for typed, derived in zip((_B0C, _B1C, _A2, _A3, _C0, _C1), watson, strict=True):
            assert abs(typed / derived - 1) <= 1e-15

    def test_eq42_rationals_follow_from_eq41(self):
        # nu^(-8/3): a2 + c0; nu^-4: a3 + c1 - 19/150 b0c, where
        # -19/150 = -29/2400 - (5/12)(1/12) - 23/288 comes from the prefactor
        F = Fraction
        assert F(-29, 2400) - F(5, 12) * F(1, 12) - F(23, 288) == F(-19, 150)
        assert F(4, 525) + F(3, 280) == F(11, 600)
        assert F(-16, 525) - F(179, 6300) - F(19, 150) == F(-167, 900)

    def test_eq42_coefficients_are_the_papers(self):
        from qhotunnel.asymptotics import _EQ42_POWER

        g13sq, g23sq = gamma(1.0 / 3.0) ** 2, gamma(2.0 / 3.0) ** 2
        paper = (11.0 / 600.0 * 6.0 ** (-1.0 / 3.0) / g23sq, -167.0 / 900.0 * 6.0 ** (-2.0 / 3.0) / g13sq)
        for got, ref in zip(_EQ42_POWER[2:], paper):
            assert got == pytest.approx(ref, rel=1e-15)

    def test_prefactor_expansion(self):
        # exp(_eq41_log_prefactor(n)) n^(1/3) / 2^(5/3) = 1 - 5/(12 nu^2) - 23/(288 nu^4)
        # + c nu^-6, c = -0.0343; past n ~ 10^4 the double's rounding is larger
        from qhotunnel.asymptotics import _eq41_log_prefactor

        for n in (10**2, 10**3, 10**4, 10**5):
            nu2 = 2.0 * n + 1.0
            ratio = math.exp(_eq41_log_prefactor(n)) * n ** (1.0 / 3.0) / 2.0 ** (5.0 / 3.0)
            rest = ratio - (1.0 - 5.0 / (12.0 * nu2) - 23.0 / (288.0 * nu2 * nu2))
            assert abs(rest + 0.0343 / nu2**3) <= 0.001 / nu2**3 + 2.0**-51


class TestEq42AgainstFrozenReference:
    """eq42 against 40-digit P_n (tests/_p_reference.py): its truncation error, pinned to 1%."""

    # (eq42 - P_n) / P_n, measured against the frozen file
    TRUNCATION = {
        1: -5.151e-5, 2: -2.670e-4, 7: -2.952e-5, 10: -1.323e-5, 20: -2.528e-6, 50: -2.534e-7,
        100: -4.250e-8, 200: -6.975e-9, 400: -1.130e-9, 500: -6.276e-10, 800: -1.815e-10,
        2000: -1.605e-11, 5200: -1.271e-12, 9800: -2.355e-13,
    }

    @pytest.mark.parametrize("n", sorted(TRUNCATION))
    def test_truncation_error(self, n):
        got = tunnel_probability_asym(OscillatorMode(n), "eq42").value
        with mpmath.workdps(40):
            err = float(mpmath.mpf(got) / mpmath.mpf(P_REFERENCE[n]) - 1)
        assert abs(err - self.TRUNCATION[n]) <= 0.01 * abs(self.TRUNCATION[n])

    def test_within_a_few_ulps_at_large_n(self):
        # measured -8e-18 at n = 10^5, below the rounding of a double
        got = tunnel_probability_asym(OscillatorMode(10**5), "eq42").value
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(got) / mpmath.mpf(P_REFERENCE[10**5]) - 1) <= 2.0**-51

    def test_every_frozen_n_is_pinned(self):
        assert set(self.TRUNCATION) | {0, 10**5} == set(P_REFERENCE)


class TestRelativeErrorTable:
    def test_small_n_row_is_produced(self):
        rows = relative_error_table([1], tol=1e-11)
        assert rows[0].n == 1
        assert rows[0].p_exact > 0 and rows[0].p_asym > 0

    def test_errors_match_published(self, error_table):
        rows, _ = error_table
        for row in rows:
            assert row.rel_error == pytest.approx(REFERENCE_TABLE[row.n][1], rel=0.02)

    def test_comparison_form_is_less_accurate(self, error_table):
        rows, _ = error_table
        for row in rows:
            p13 = tunnel_probability_asym(OscillatorMode(row.n), "jadczyk13").value
            err13 = abs(row.p_exact - p13) / row.p_exact
            assert err13 > row.rel_error
