import math
import random

import numpy as np
import pytest

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


class TestMode:
    def test_nu_squared(self):
        for n in (0, 1, 5, 100, 2000):
            mode = OscillatorMode(n)
            assert abs(mode.nu**2 - (2 * n + 1)) <= 2**-50 * (2 * n + 1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            OscillatorMode(-1)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, False, "3"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(TypeError):
            OscillatorMode(n)

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

    def test_square_survives_double_underflow(self):
        sq = ScaledValue.from_float(1e-300).square()
        assert sq.mantissa != 0.0
        assert sq.log2() == pytest.approx(2 * math.log2(1e-300), rel=1e-12)


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
