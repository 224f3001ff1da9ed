import enum
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qhotunnel import oscillator
from qhotunnel.oscillator import (
    OscillatorMode,
    ScaledValue,
    density_floats,
    eval_density,
    eval_psi,
    eval_psi_grid,
    rel_diff,
)

from ._oracles import FROZEN


def hermite_coefficients(n):
    """Integer coefficient lists of H_0..H_n from the raw recurrence."""
    hs = [[1], [0, 2]]
    for k in range(1, n):
        prev, cur = hs[-2], hs[-1]
        nxt = [0] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        hs.append(nxt)
    return hs


def psi_reference(n, x, coeffs):
    H = sum(c * x**i for i, c in enumerate(coeffs[n]))
    norm = math.pi**-0.25 / math.sqrt(2.0**n * math.factorial(n))
    return norm * math.exp(-0.5 * x * x) * H


class _Level(enum.IntEnum):
    FIFTH = 5


class _NoNumbers:
    """Stands in for the numbers module and fails on any use of it."""

    def __getattr__(self, name):
        raise AssertionError(f"numbers.{name} reached")


class TestMode:
    def test_nu_squared(self):
        for n in (0, 1, 5, 100, 2000):
            mode = OscillatorMode(n)
            assert abs(mode.nu**2 - (2 * n + 1)) <= 2**-50 * (2 * n + 1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            OscillatorMode(-1)

    def test_n_past_the_double_range_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            OscillatorMode(10**400)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, False, "3", 5.0, "5", Fraction(5), Decimal(5)])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(TypeError):
            OscillatorMode(n)

    @pytest.mark.parametrize("n", [5, np.int64(5), np.uint8(5), _Level.FIFTH], ids=repr)
    def test_integer_n_is_stored_as_a_python_int(self, n):
        mode = OscillatorMode(n)
        assert type(mode.n) is int and mode.n == 5 and mode.nu == math.sqrt(11.0)

    def test_python_int_skips_the_abc_check(self, monkeypatch):
        monkeypatch.setattr(oscillator, "numbers", _NoNumbers())
        assert OscillatorMode(5).nu == math.sqrt(11.0)
        # the stub is reached by every other integer type
        with pytest.raises(AssertionError, match="numbers.Integral"):
            OscillatorMode(np.int64(5))

    def test_numpy_integer_n_accepted(self):
        assert OscillatorMode(np.int64(5)).nu == math.sqrt(11.0)

    def test_numpy_integer_n_does_not_wrap(self, recwarn):
        # 2n + 1 would wrap in int64 arithmetic
        mode = OscillatorMode(np.int64(2**62))
        assert mode.nu == OscillatorMode(2**62).nu
        assert len(recwarn) == 0


class TestScaledValue:
    def test_zero_canonical(self):
        assert ScaledValue.from_float(0.0) == ScaledValue(0.0, 0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            ScaledValue.from_float(x)

    def test_round_trip(self):
        for v in (1.0, -0.75, 3.14159e-200, -2.5e250):
            sv = ScaledValue.from_float(v)
            assert sv.is_normalized
            assert sv.to_float() == v

    def test_square_normalized(self):
        for v in (0.9, -1.7e-160, 5.0e-300):
            sq = ScaledValue.from_float(v).square()
            assert sq.is_normalized
            assert sq.to_float() == pytest.approx(v * v, rel=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_to_float_overflows_to_signed_infinity(self, sign):
        # 0.75 * 2**1024 is the last finite exponent; from 1025 on the value is past the largest double
        assert ScaledValue(sign * 0.75, 1024).to_float() == sign * math.ldexp(0.75, 1024)
        for exponent in (1025, 1050, 1100):
            assert ScaledValue(sign * 0.75, exponent).to_float() == sign * math.inf

    @pytest.mark.parametrize("gap", [-100, -61, -60, -59, 59, 60, 61, 100, 1100])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rel_diff_across_exponent_gaps(self, gap, sign):
        # |a - b| / |b| in exact rationals, rounded once; inf only where it overflows a double
        for ma, mb in ((0.5, 0.5), (0.75, 0.5), (0.5, -0.875)):
            a, b = ScaledValue(sign * ma, gap), ScaledValue(mb, 0)
            exact = abs(Fraction(a.mantissa) * 2**gap - Fraction(b.mantissa)) / abs(Fraction(b.mantissa))
            try:
                expected = float(exact)
            except OverflowError:
                expected = math.inf
            assert rel_diff(a, b) == pytest.approx(expected, rel=1e-15), (ma, mb)

    def test_square_survives_double_underflow(self):
        sq = ScaledValue.from_float(1e-300).square()
        assert sq.mantissa != 0.0
        assert math.log2(sq.mantissa) + sq.exponent == pytest.approx(2 * math.log2(1e-300), rel=1e-12)


class TestEvalPsi:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e154, -1e154, 1.12e8])
    def test_rejects_x_outside_supported_range(self, x):
        with pytest.raises(ValueError):
            eval_psi(OscillatorMode(3), x)

    @pytest.mark.parametrize("fn", [eval_psi_grid, density_floats])
    @pytest.mark.parametrize("x", [math.nan, math.inf, 1.12e8, 1e9])
    def test_grid_rejects_x_outside_supported_range(self, fn, x):
        with pytest.raises(ValueError):
            fn(OscillatorMode(3), np.array([0.5, -x, 2.0]))

    def test_grid_accepts_supported_range(self):
        xs = np.array([-(2.0**26), 0.0, 2.0**26])
        assert np.array_equal(density_floats(OscillatorMode(3), xs), [0.0, 0.0, 0.0])
        assert eval_psi_grid(OscillatorMode(3), np.array([]))[0].size == 0

    def test_largest_supported_x(self):
        import mpmath

        x = 2.0**26
        got = eval_psi(OscillatorMode(3), -x)
        assert got.is_normalized
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            log2_ref = mpmath.log(
                mpmath.pi ** -0.25 / mpmath.sqrt(48) * mpmath.exp(-xm * xm / 2) * mpmath.hermite(3, xm), 2
            )
            assert got.exponent == int(mpmath.floor(log2_ref)) + 1
            assert float(mpmath.log(-got.mantissa, 2) + got.exponent - log2_ref) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_point_equals_one_point_grid_bit_for_bit(self, seed):
        # eval_psi runs the kernel at x itself, with no parity fold; the grid folds x < 0
        rng = random.Random(seed)
        for n in [rng.randrange(2001) for _ in range(6)]:
            mode = OscillatorMode(n)
            x = rng.uniform(0.0, mode.nu + 10.0)
            for v in (x, -x, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, mode.nu, -mode.nu, 2.0**26, -(2.0**26)):
                m, e = eval_psi_grid(mode, np.array([v]))
                got = eval_psi(mode, v)
                assert (got.mantissa.hex(), got.exponent) == (m[0].item().hex(), e[0].item())
                want = ScaledValue(m[0].item(), e[0].item()).square()
                got = eval_density(mode, v)
                assert (got.mantissa.hex(), got.exponent) == (want.mantissa.hex(), want.exponent)

    @pytest.mark.parametrize(
        "x,error",
        [(10**400, OverflowError), (-(10**400), OverflowError), (10**20, ValueError),
         (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError)],
    )
    def test_point_rejects_huge_ints_and_non_finite_x(self, x, error):
        for fn in (eval_psi, eval_density):
            with pytest.raises(error):
                fn(OscillatorMode(4), x)

    def test_ground_state_at_origin(self):
        v = eval_psi(OscillatorMode(0), 0.0)
        assert float(v) == pytest.approx(FROZEN["pi_quarter_inv"], rel=1e-15)

    def test_first_state_odd(self):
        assert eval_psi(OscillatorMode(1), 0.0) == ScaledValue(0.0, 0)

    def test_against_explicit_hermite(self):
        coeffs = hermite_coefficients(12)
        for n in range(13):
            for x in (-5.0, -2.3, -0.7, 0.0, 0.31, 1.9, 4.2, 5.0):
                ref = psi_reference(n, x, coeffs)
                got = float(eval_psi(OscillatorMode(n), x))
                if ref == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(ref, rel=1e-12)

    def test_parity(self):
        rng = random.Random(7)
        for n in (0, 1, 13, 137, 1000):
            mode = OscillatorMode(n)
            sign = (-1) ** n
            for _ in range(25):
                x = rng.uniform(0.0, mode.nu + 10.0)
                plus = eval_psi(mode, x)
                minus = eval_psi(mode, -x)
                if plus.mantissa == 0.0:
                    assert minus.mantissa == 0.0
                    continue
                flipped = ScaledValue(sign * minus.mantissa, minus.exponent)
                assert rel_diff(flipped, plus) <= 1e-13

    def test_no_zeros_beyond_turning_point(self):
        for n in (3, 40, 400):
            mode = OscillatorMode(n)
            xs = np.linspace(mode.nu * (1 + 1e-9), mode.nu + 12.0, 300)
            m, e = eval_psi_grid(mode, xs)
            assert np.all(m != 0.0)
            assert np.all(np.sign(m) == np.sign(m[0]))
            logs = np.log2(np.abs(m)) + e
            assert np.all(np.diff(logs) < 0.0)


class TestEvalDensity:
    def test_ground_state(self):
        v = eval_density(OscillatorMode(0), 0.0)
        assert float(v) == pytest.approx(FROZEN["pi_half_inv"], rel=1e-14)

    def test_odd_state_zero(self):
        assert eval_density(OscillatorMode(1), 0.0) == ScaledValue(0.0, 0)

    def test_deep_tail_against_highprecision(self):
        v = eval_density(OscillatorMode(50), 15.0)
        assert 0.0 < float(v) < 1e-32
        assert float(v) == pytest.approx(FROZEN["density_50_15"], rel=1e-13)

    def test_density_floats_underflow_to_zero(self):
        mode = OscillatorMode(100)
        vals = density_floats(mode, np.array([mode.nu, mode.nu + 60.0]))
        assert vals[0] > 0.0
        assert vals[1] == 0.0  # far beyond double range, by design
