import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import oscillator
from qhotunnel import BACKEND
from qhotunnel.oscillator import psi_scaled_grid as psi_py
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


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("xs", [[1.0], [1.0, 2.0]])
def test_negative_order_rejected(xs, tail):
    with pytest.raises(ValueError):
        psi_py(-3, np.array(xs), tail=tail)


@pytest.mark.parametrize("xs", [[1.0, 2.0], [[1.0], [2.0]]])
def test_tail_needs_a_one_point_grid(xs):
    with pytest.raises(ValueError, match="one-point grid"):
        psi_py(5, np.array(xs), tail=True)


def _scaled_mp(m, e):
    return mpmath.ldexp(mpmath.mpf(m), int(e))


def _tail(n, x):
    """(psi_n, tail mass) at x as mpmath numbers, from one tail=True call."""
    m, e, tm, te = (v.item() for v in psi_py(n, np.array([x]), tail=True))
    return _scaled_mp(m, e), _scaled_mp(tm, te)


@pytest.mark.parametrize("x", [-30.0, -3.0, -0.0, 0.0, 5e-324, 0.7, 1.0, 5.0, 26.4, 26.6, 27.0, 40.0, 1e3])
def test_tail_at_order_zero_is_half_erfc(x):
    # from x ~ 26.5 erfc(x) leaves the normal range, and the tail is still returned scaled
    with mpmath.workdps(40):
        _, t = _tail(0, x)
        assert abs(t / (mpmath.erfc(x) / 2) - 1) <= 4e-16


@pytest.mark.parametrize("n,xs", list(_twin_grids()))
def test_tail_comes_with_the_same_bits(n, xs):
    # one run gives psi_n and its tail mass, on one-point grids only, and psi_n keeps its bits
    if xs.size != 1:
        with pytest.raises(ValueError, match="one-point grid"):
            psi_py(n, xs, tail=True)
        return
    for x in (xs[0], -xs[0], 0.3, 1e3, 5e-324):
        m, e, tm, te = psi_py(n, np.array([x]), tail=True)
        assert (m[0], e[0]) == _point_bits(n, x)
        _assert_normalized(tm, te)


def _tail_mp(n, x):
    """int_x^inf psi_n^2 by mp.quad, with psi_n from mpmath.hermite, on unit panels up to nu + 1."""
    cuts = [x + k for k in range(int(max(math.sqrt(2 * n + 1) - x, 0.0)) + 2)] + [mpmath.inf]
    return mpmath.quad(lambda t: _psi_mp(n, t) ** 2, cuts)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
@pytest.mark.parametrize("where", ["-nu-3", "-2", "0", "0.3", "nu", "nu+3"])
def test_tail_matches_quadrature_of_the_density(n, where):
    nu = math.sqrt(2 * n + 1)
    x = {"-nu-3": -nu - 3.0, "-2": -2.0, "0": 0.0, "0.3": 0.3, "nu": nu, "nu+3": nu + 3.0}[where]
    with mpmath.workdps(30):
        _, t = _tail(n, x)
        assert abs(t / _tail_mp(n, mpmath.mpf(x)) - 1) <= 1e-14


def _point_bits(n, x):
    (m,), (e,) = psi_py(n, np.array([x]))
    return m, e


@pytest.mark.parametrize("n,xs", list(_twin_grids()))
def test_one_point_loop_matches_per_step_reference(n, xs):
    # the first 30 random points and every fixed one (0, +-nu, +-1e3, 1e5), then -0.0 and +-X_MAX
    xs = np.concatenate([xs[:30], xs[300:], [-0.0, oscillator.X_MAX, -oscillator.X_MAX]])
    mr, er = psi_ref(n, xs)
    assert [_point_bits(n, x) for x in xs.tolist()] == list(zip(mr.tolist(), er.tolist()))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 65, 100])
@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-310, -1e-310])
def test_one_point_loop_matches_ufunc_loop_at_subnormal_x(n, x):
    # the per-step reference overflows here; a two-point grid of the same x runs the ufunc steps
    m, e = psi_py(n, np.array([x, x]))
    assert _point_bits(n, x) == (m[0], e[0])


def test_one_point_loop_keeps_the_grid_shape():
    m, e = psi_py(40, np.array([[3.0]]))
    assert m.shape == e.shape == (1, 1) and e.dtype == np.int64
    assert [v.shape for v in psi_py(40, np.array([[3.0]]), tail=True)] == [(1, 1)] * 4
    assert (m[0, 0], e[0, 0]) == _point_bits(40, 3.0)


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


def _psi_mp(n, t):
    """psi_n(t) in mpmath: pi^(-1/4) (2^n n!)^(-1/2) e^(-t^2/2) H_n(t)."""
    return mpmath.pi ** -0.25 / mpmath.sqrt(2**n * mpmath.factorial(n)) * mpmath.exp(-t * t / 2) * mpmath.hermite(n, t)


@st.composite
def _orders_and_points(draw):
    """n <= 300 and x with |x| <= nu + 5."""
    n = draw(st.integers(0, 300))
    reach = math.sqrt(2 * n + 1) + 5.0
    return n, draw(st.floats(-reach, reach))


@settings(max_examples=30, deadline=None)
@given(_orders_and_points())
def test_recurrence_identity_gives_the_derivative(case):
    # psi_n' = sqrt(2n) psi_{n-1} - x psi_n, with the kernel's psi_n and psi_{n-1}, against mpmath's derivative
    n, x = case
    m, e = (v.item() for v in psi_py(n, np.array([x])))
    pm, pe = (v.item() for v in psi_py(n - 1, np.array([x]))) if n else (0.0, 0)
    with mpmath.workdps(40):
        lead, back = mpmath.sqrt(2 * n) * mpmath.ldexp(pm, pe), x * mpmath.ldexp(m, e)
        exact = mpmath.diff(lambda t: _psi_mp(n, t), mpmath.mpf(x))
        scale = abs(lead) + (abs(x) + 1.0) * abs(mpmath.ldexp(m, e))
        assert abs((lead - back) - exact) <= 5e-14 * scale
