import json
import random
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import series
from qhotunnel.series import (
    ExactCoefficient as EC,
    NonRepresentablePower,
    NotInvertible,
    PoleCancellationFailure,
    TruncatedSeries,
    ZeroLeadingTerm,
    derive_a1_series,
    derive_b0_series,
    derive_beta_series,
    derive_inversion_series,
    derive_nu4_weight_series,
    derive_phi_series,
    derive_zeta_series,
    format_coefficient,
)

from . import _fraction_series

# Golden coefficient values, as ring elements (alpha = 2^(1/3)):
#   2^(-1/3) = alpha^2/2, 2^(-2/3) = alpha/2.
GOLD_INVERSION = [
    EC(F(1)),
    EC(0, 0, F(1, 2)),
    EC(0, F(-1, 20), 0),
    EC(F(11, 700)),
    # printed source value has a dropped zero in the denominator (12600 for
    # 126000); the value below is forced by the map's defining equation and
    # was confirmed against a 50-digit closed-form inversion.
    EC(0, 0, F(-823, 252000)),
]
GOLD_ALPHA = [
    EC(0, F(1, 2), 0),
    EC(F(-1, 5)),
    EC(0, 0, F(2, 35)),
    EC(0, F(-8, 225), 0),
    EC(F(1548, 67375)),
]
GOLD_BETA = [
    EC(0, 0, F(9, 560)),
    EC(0, F(-179, 12600), 0),
    EC(F(28687, 2425500)),
    EC(0, 0, F(-750979, 157657500)),
]
GOLD_NEG_A1 = [
    EC(F(249, 28800)),
    EC(0, 0, F(-6849, 1232000)),
    EC(0, F(737, 130000), 0),
]
GOLD_WEIGHT = [
    EC(0, F(29, 4800), 0),
    EC(F(-25013, 1848000)),
]


class TestRing:
    def test_equality_is_exact(self):
        assert EC(F(1, 3)) != EC(F(33333333, 100000000))


class TestFormat:
    def test_reference_display_forms(self):
        assert format_coefficient(EC(0, F(1, 2), 0)) == "2^(-2/3)"
        assert format_coefficient(EC(F(-1, 5))) == "-1/5"
        assert format_coefficient(EC(0, 0, F(2, 35))) == "2^(5/3)/35"
        assert format_coefficient(EC(0, F(-8, 225), 0)) == "-2^(10/3)/225"
        assert format_coefficient(EC(F(1548, 67375))) == "1548/67375"
        assert format_coefficient(EC()) == "0"


class TestSeriesOps:
    def test_mul(self):
        one_plus = TruncatedSeries.from_list([1, 1, 0])
        one_minus = TruncatedSeries.from_list([1, -1, 0])
        assert one_plus.mul(one_minus).coeffs == (1, 0, -1)

    def test_binomial_sqrt(self):
        s = TruncatedSeries.from_list([1, 1, 0, 0, 0])
        r = s.power(F(1, 2))
        assert r.coeffs == (F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128))

    def test_binomial_sqrt_half_slope(self):
        s = TruncatedSeries.from_list([1, F(1, 2), 0, 0])
        r = s.power(F(1, 2))
        assert r.coeffs == (F(1), F(1, 4), F(-1, 32), F(1, 128))

    def test_div_and_errors(self):
        num = TruncatedSeries.from_list([1, 2, 3])
        den = TruncatedSeries.from_list([2, 1, 0])
        q = num.div(den)
        assert q.mul(den).coeffs == num.coeffs
        with pytest.raises(ZeroLeadingTerm):
            num.div(TruncatedSeries.from_list([0, 1, 0]))
        # power() takes series with constant term 1 only
        with pytest.raises(NonRepresentablePower):
            TruncatedSeries.from_list([4, 1, 0]).power(F(1, 2))

    def test_shift_down_guards_pole(self):
        with pytest.raises(PoleCancellationFailure):
            TruncatedSeries.from_list([1, 2]).shift_down(1)


def _composed(f, g):
    """f(g) by the reference Fraction kernel; g's constant term must be zero."""
    m = min(len(f), len(g))
    return TruncatedSeries(*_fraction_series._compose((f.den, f.nums), (g.den, g.nums), m))


class TestRevert:
    def test_identity(self):
        s = TruncatedSeries.from_list([0, 1, 0, 0])
        assert s.revert().coeffs == s.coeffs

    def test_against_back_substitution(self):
        # independent oracle: substitute candidate r into s naively (explicit
        # powers, plain Fractions) and solve s(r(z)) = z degree by degree
        def poly_mul(a, b, m):
            out = [F(0)] * m
            for i, ai in enumerate(a[:m]):
                if ai:
                    for j, bj in enumerate(b[: m - i]):
                        if bj:
                            out[i + j] += ai * bj
            return out

        def substitute(s, r, m):
            acc = [F(0)] * m
            power = [F(1)] + [F(0)] * (m - 1)
            for k, sk in enumerate(s):
                if k > 0:
                    power = poly_mul(power, r, m)
                if sk:
                    acc = [a + sk * p for a, p in zip(acc, power)]
            return acc

        def brute_revert(s, order):
            r = [F(0), F(1) / s[1]]
            for k in range(2, order + 1):
                comp = substitute(s, r + [F(0)], k + 1)
                r.append(-comp[k] / s[1])
            return r

        s_fracs = [F(0), F(2), F(1), F(0), F(0)]
        expected = brute_revert(s_fracs, 4)
        got = TruncatedSeries.from_list(s_fracs).revert()
        assert list(got.coeffs) == expected
        assert expected[1] == F(1, 2) and expected[2] == F(-1, 8)

    def test_two_sided_inverse_random(self):
        rng = random.Random(11)
        for _ in range(12):
            coeffs = [0, rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(6)]
            s = TruncatedSeries.from_list(coeffs)
            r = s.revert()
            for ident in (_composed(s, r), _composed(r, s)):
                assert ident.coeffs == (0, 1) + (0,) * (len(s) - 2)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            TruncatedSeries.from_list([0, 0, 1]).revert()
        with pytest.raises(NotInvertible):
            TruncatedSeries.from_list([1, 1]).revert()
        with pytest.raises(NotInvertible):
            TruncatedSeries.from_list([0]).revert()


class TestDerivations:
    def test_zeta_linear_coefficient(self):
        z = derive_zeta_series(6)
        assert z.coefficient(0) == EC()
        assert z.coefficient(1) == EC(0, F(1))  # 2^(1/3)

    def test_zeta_numeric_near_turning_point(self):
        import math

        u = 1e-3
        x = 1.0 + u
        closed = (0.75 * (x * math.sqrt(x * x - 1) - math.acosh(x))) ** (2.0 / 3.0)
        assert derive_zeta_series(12).evaluate(u) == pytest.approx(closed, rel=1e-10)

    def test_inversion_matches_printed_series(self):
        inv = derive_inversion_series(5)
        for k, gold in enumerate(GOLD_INVERSION):
            assert inv.coefficient(k) == gold

    def test_alpha_coefficients(self):
        phi = derive_phi_series(5)
        for k, gold in enumerate(GOLD_ALPHA):
            assert phi.coefficient(k) == gold

    def test_beta_coefficients(self):
        beta = derive_beta_series(4)
        for k, gold in enumerate(GOLD_BETA):
            assert beta.coefficient(k) == gold

    def test_b0_constant(self):
        b0s = derive_b0_series(3)
        assert b0s.coefficient(0) == EC(0, F(-9, 280), 0)
        # beta_0 = -alpha_0 b0(0): (1/2) 2^(1/3) times (-9/280) 2^(1/3) is a 2^(2/3) term
        assert GOLD_BETA[0].c2 == -GOLD_ALPHA[0].c1 * b0s.coefficient(0).c1

    def test_neg_a1_coefficients(self):
        na1 = -derive_a1_series(3)
        for k, gold in enumerate(GOLD_NEG_A1):
            assert na1.coefficient(k) == gold

    def test_nu4_weight_coefficients(self):
        w = derive_nu4_weight_series(2)
        for k, gold in enumerate(GOLD_WEIGHT):
            assert w.coefficient(k) == gold

    @pytest.mark.parametrize("zeta", [0.05, 0.1, 0.2])
    def test_series_match_closed_forms(self, zeta):
        from qhotunnel.asymptotics import x_of_zeta

        import math

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
        assert derive_phi_series(14).evaluate(zeta) == pytest.approx(phi_closed, rel=1e-9)
        assert derive_b0_series(14).evaluate(zeta) == pytest.approx(b0_closed, rel=1e-9)
        assert derive_a1_series(14).evaluate(zeta) == pytest.approx(a1_closed, rel=1e-9)


# ---------------------------------------------------------------------------
# Integer kernels against the Fraction reference kernels
# ---------------------------------------------------------------------------

_FAMILIES = {
    "zeta": derive_zeta_series,
    "inversion": derive_inversion_series,
    "phi": derive_phi_series,
    "b0": derive_b0_series,
    "beta": derive_beta_series,
    "a1": derive_a1_series,
    "nu4_weight": derive_nu4_weight_series,
}


def _reference_kernels():
    """Swap the Fraction kernels into the series module for a `with` block."""
    return mock.patch.multiple(series, **_fraction_series.KERNELS)


@pytest.fixture(scope="module")
def reference_at_13():
    # a series' first M coefficients do not depend on how many follow, so one
    # reference derivation per family covers every order up to 13
    with _reference_kernels():
        return {name: derive(13).coeffs for name, derive in _FAMILIES.items()}


@pytest.mark.parametrize("order", range(1, 14))
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_derivation_equals_fraction_reference(reference_at_13, family, order):
    assert _FAMILIES[family](order).coeffs == reference_at_13[family][:order]


@pytest.mark.parametrize("family", sorted(set(_FAMILIES) - {"zeta"}))
def test_one_reversion_per_derivation(monkeypatch, family):
    calls = []
    revert = TruncatedSeries.revert

    def counted(self):
        calls.append(self)
        return revert(self)

    monkeypatch.setattr(TruncatedSeries, "revert", counted)
    _FAMILIES[family](5)
    assert len(calls) == 1


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_order_cap_applies_to_the_requested_order(family):
    # the work lengths inside run up to 8 terms past the order asked for
    assert _FAMILIES[family](30).coeffs[:13] == _FAMILIES[family](13).coeffs
    for order in (0, 31):
        with pytest.raises(ValueError, match=r"order must lie in 1\.\.30"):
            _FAMILIES[family](order)


_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_nonzero = _rational.filter(bool)
_tail = st.lists(_rational, max_size=6)


def _series_from(*head):
    """Series of the drawn leading coefficients followed by a short tail."""
    return st.tuples(*head, _tail).map(lambda p: TruncatedSeries.from_list([*p[:-1], *p[-1]]))


_series = _series_from(_rational)
_units = _series_from(_nonzero)
_rooted = _series_from(st.just(F(1)))  # power() needs the constant term 1
_revertible = _series_from(st.just(F(0)), _nonzero)
_PROPERTY = settings(max_examples=60, deadline=None)


class TestLatticeProperties:
    @_PROPERTY
    @given(_series, _series)
    def test_mul(self, a, b):
        with _reference_kernels():
            expected = a.mul(b).coeffs
        assert a.mul(b).coeffs == expected

    @_PROPERTY
    @given(_units)
    def test_inverse(self, s):
        inv = s.inverse()
        with _reference_kernels():
            assert inv.coeffs == s.inverse().coeffs
        assert s.mul(inv).coeffs == (1,) + (0,) * (len(s) - 1)

    @_PROPERTY
    @given(_rooted, st.sampled_from([F(1, 2), F(2, 3), F(3, 2), F(-1, 2), 3]))
    def test_pow_rational(self, s, power):
        got = s.power(power)
        with _reference_kernels():
            assert got.coeffs == s.power(power).coeffs

    @_PROPERTY
    @given(_revertible)
    def test_revert(self, s):
        r = s.revert()
        with _reference_kernels():
            assert r.coeffs == s.revert().coeffs
        assert _composed(s, r).coeffs == (0, 1) + (0,) * (len(s) - 2)


# ---------------------------------------------------------------------------
# Frozen order-30 coefficients
# ---------------------------------------------------------------------------

# derive_*(30).coeffs as [c0, c1, c2] strings, written by the Q(2^(1/3))
# ring engine that preceded the derivations over Q; never regenerate it
# from the code it checks.
_FROZEN_30 = json.loads((Path(__file__).with_name("_coeffs_order30.json")).read_text())


@pytest.fixture(scope="module")
def frozen_30():
    return {
        name: tuple(EC(F(c0), F(c1), F(c2)) for c0, c1, c2 in triples)
        for name, triples in _FROZEN_30.items()
    }


def test_frozen_file_covers_every_family():
    assert set(_FROZEN_30) == set(_FAMILIES)
    assert all(len(triples) == 30 for triples in _FROZEN_30.values())


@pytest.mark.parametrize("order", range(1, 31))
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_derivation_equals_frozen_order30(frozen_30, family, order):
    assert _FAMILIES[family](order).coeffs == frozen_30[family][:order]
