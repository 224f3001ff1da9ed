import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import oscillator
from qhotunnel._kernels import BACKEND
from qhotunnel._kernels._hermite_py import psi_scaled_grid as psi_py
from qhotunnel.oscillator import OscillatorMode, eval_psi, eval_psi_grid

from ._per_step_kernel import psi_scaled_grid as psi_ref


def test_backend_reported():
    assert BACKEND == "python"


def _assert_normalized(m, e):
    nz = m != 0.0
    assert np.all((np.abs(m[nz]) >= 0.5) & (np.abs(m[nz]) < 1.0))
    assert np.all(e[~nz] == 0)
    assert e.dtype == np.int64


def test_mantissas_normalized():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-30.0, 30.0, 500)
    _assert_normalized(*psi_py(40, xs))


def test_exact_zero_at_origin_for_odd_n():
    m, e = psi_py(11, np.array([0.0]))
    assert m[0] == 0.0 and e[0] == 0


def _twin_grids():
    rng = np.random.default_rng(42)
    for n in (0, 1, 7, 63, 64, 65, 100, 800, 5000, 20000):
        nu = (2 * n + 1) ** 0.5
        xs = np.concatenate([rng.uniform(-nu - 15, nu + 15, 300), [0.0, nu, -nu]])
        yield n, xs
        yield n, np.concatenate([xs, [1e3, -1e3, 1e5]])
        yield n, np.array([nu])
        yield n, np.array([])


@pytest.mark.parametrize("n,xs", list(_twin_grids()))
def test_block_kernel_matches_per_step_reference(n, xs):
    # block rescaling is by exact powers of two, so the values are identical
    mb, eb = psi_py(n, xs)
    mr, er = psi_ref(n, xs)
    assert np.array_equal(mb, mr)
    assert eb.dtype == np.int64 and np.array_equal(eb, er)


@pytest.mark.parametrize("n", [2, 3, 100])
@pytest.mark.parametrize("x", [5e-324, 1e-310])
def test_subnormal_x_is_finite_and_normalized(n, x):
    mode = OscillatorMode(n)
    v = eval_psi(mode, x)
    assert np.isfinite(v.mantissa)
    assert v.is_normalized
    if n % 2 == 0:
        assert v == eval_psi(mode, 0.0)


@st.composite
def _signed_grids(draw):
    """n and a grid of mixed signs with duplicates, +-0.0, +-nu and +-1e3."""
    n = draw(st.integers(0, 3000))
    size = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nu = math.sqrt(2 * n + 1)
    pool = np.concatenate([rng.uniform(-nu - 15.0, nu + 15.0, size), [0.0, -0.0, nu, -nu, 1e3, -1e3]])
    x = rng.choice(pool, size)  # drawn with replacement, so values repeat
    x[rng.random(size) < 0.5] *= -1.0  # and appear as mirror pairs
    return n, x


@settings(max_examples=40, deadline=None)
@given(_signed_grids())
def test_grid_matches_per_step_reference_and_parity(case):
    n, x = case
    mode = OscillatorMode(n)
    m, e = eval_psi_grid(mode, x)
    mr, er = psi_ref(n, x)
    assert np.array_equal(m, mr) and np.array_equal(e, er)
    _assert_normalized(m, e)
    mm, em = eval_psi_grid(mode, -x)
    assert np.array_equal(mm, (-1) ** n * m) and np.array_equal(em, e)


@pytest.mark.parametrize("n", [800, 801])
def test_symmetric_wide_grid_matches_per_step_reference(n):
    x = np.linspace(-2.0 * math.sqrt(2 * n + 1), 2.0 * math.sqrt(2 * n + 1), 20000)
    m, e = eval_psi_grid(OscillatorMode(n), x)
    mr, er = psi_ref(n, x)
    assert np.array_equal(m, mr) and np.array_equal(e, er)


def test_two_dimensional_grid_keeps_its_shape():
    x = np.random.default_rng(5).uniform(-20.0, 20.0, (40, 50))
    x[0, :25] = -x[1, :25]
    for n in (0, 7, 64):
        m, e = eval_psi_grid(OscillatorMode(n), x)
        mr, er = psi_ref(n, x)
        assert m.shape == e.shape == x.shape
        assert np.array_equal(m, mr) and np.array_equal(e, er)


@pytest.mark.parametrize("signs", ["mixed", "nonnegative"])
def test_kernel_runs_each_distinct_abs_x_once(monkeypatch, signs):
    seen = []

    def counting(n, x):
        seen.append(np.size(x))
        return psi_py(n, x)

    monkeypatch.setattr(oscillator, "psi_scaled_grid", counting)
    half = np.linspace(0.5, 30.0, 100)
    x = np.concatenate([-half, half, half]) if signs == "mixed" else np.concatenate([half, half])
    eval_psi_grid(OscillatorMode(9), x)
    assert seen == [100 if signs == "mixed" else 200]
