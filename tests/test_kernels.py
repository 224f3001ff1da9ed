import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhotunnel import BACKEND, cli, oscillator
from qhotunnel.oscillator import psi_scaled_grid as psi_py
from qhotunnel.oscillator import OscillatorMode, eval_psi, eval_psi_grid

from ._per_step_kernel import psi_scaled_grid as psi_ref
from ._per_step_kernel import tail_point, reduced_point


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
    # a column holding +-0.0, +-nu and +-X_MAX, and an empty 2-D grid: the ufunc loop keeps their shapes
    for n in (0, 1, 64, 65, 800, 5000):
        nu = (2 * n + 1) ** 0.5
        fixed = [-0.0, nu, -nu, oscillator.X_MAX, -oscillator.X_MAX]
        yield n, np.concatenate([fixed, rng.uniform(-nu - 15, nu + 15, 12)]).reshape(-1, 1)
        yield n, np.zeros((0, 3))


@pytest.mark.parametrize("n,xs", list(_twin_grids()))
def test_block_kernel_matches_per_step_reference(n, xs):
    # block rescaling is by exact powers of two, so the values are identical
    mb, eb = psi_py(n, xs)
    mr, er = psi_ref(n, xs)
    assert mb.shape == eb.shape == xs.shape
    assert np.array_equal(mb, mr)
    assert eb.dtype == np.int64 and np.array_equal(eb, er)


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("xs", [[1.0], [1.0, 2.0]])
def test_negative_order_rejected(xs, tail):
    with pytest.raises(ValueError):
        psi_py(-3, np.array(xs), tail=tail)


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("x", [1e200, math.inf, -math.inf, math.nan])
def test_x_outside_supported_range_rejected(x, tail):
    # past X_MAX the seed exponent is no longer exact, and at inf or nan it is no
    # integer at all; the tail takes a float x, and is refused there for its x
    with pytest.raises(ValueError, match=r"psi_n\(x\) needs"):
        psi_py(3, x if tail else np.array([x]), tail=tail)
    if not tail:
        with pytest.raises(ValueError, match=r"psi_n\(x\) needs"):
            psi_py(3, np.array([0.5, x]))


@pytest.mark.parametrize("xs", [[1.0, 2.0], [[1.0], [2.0]], [1.0], []])
def test_tail_needs_a_float_x(xs):
    # every array is refused, the one-point grid too, before its range is checked
    for grid in (np.array(xs), np.array(xs) + math.inf):
        with pytest.raises(ValueError, match="tail=True needs a float x"):
            psi_py(5, grid, tail=True)


def _scaled_mp(m, e):
    return mpmath.ldexp(mpmath.mpf(m), int(e))


def _tail(n, x):
    """(psi_n, tail mass) at x as mpmath numbers, from one tail=True call."""
    m, e, tm, te = psi_py(n, x, tail=True)
    return _scaled_mp(m, e), _scaled_mp(tm, te)


@pytest.mark.parametrize("x", [-30.0, -3.0, -0.0, 0.0, 5e-324, 0.7, 1.0, 5.0, 26.4, 26.6, 27.0, 40.0, 1e3])
def test_tail_at_order_zero_is_half_erfc(x):
    # from x ~ 26.5 erfc(x) leaves the normal range, and the tail is still returned scaled
    with mpmath.workdps(40):
        _, t = _tail(0, x)
        assert abs(t / (mpmath.erfc(x) / 2) - 1) <= 4e-16


def _reduced_start(n, x):
    """The tail route's window start at a float x where the steps before it run by cyclic reduction, else None."""
    start = oscillator._window_start(n, x, oscillator._block_length(abs(x)))
    return start if start >= oscillator._TWO_STEP_MIN else None


def _tail_bits(n, x):
    """The tail route's (m, e, tm, te) at a float x, unless the window's check reruns it from step 0."""
    start = _reduced_start(n, x)
    return tail_point(n, x) if start is None else reduced_point(n, x, start)


@pytest.mark.parametrize("n,xs", list(_twin_grids()))
def test_tail_comes_with_the_same_bits(n, xs):
    # one run at a float x gives psi_n and its tail mass, and psi_n keeps the bits
    # of the grid (at the grid's first and last three points) and of the float x;
    # where the steps before the window run by cyclic reduction, psi_n has the
    # bits of the per-level reference instead
    m, e = psi_py(n, xs)
    points = list(zip(xs.ravel().tolist(), m.ravel().tolist(), e.ravel().tolist()))
    for x, mk, ek in points[:3] + points[-3:] + [(x, *_point_bits(n, x)) for x in (0.3, 1e3, 5e-324)]:
        got = psi_py(n, x, tail=True)
        start = _reduced_start(n, x)
        if start is None:
            assert _hex(got[:2]) == _hex([mk, ek]), x
        else:
            assert _hex(got) == _hex(reduced_point(n, x, start)), x
        assert 0.5 <= got[2] < 1.0, x  # the tail mass is positive and normalised


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
    """(m, e) from the float loop at x."""
    return psi_py(n, float(x))


@pytest.mark.parametrize("n,xs", list(_twin_grids()))
def test_one_point_loop_matches_per_step_reference(n, xs):
    # the first 30 points and every fixed one past 300 (0, +-nu, +-1e3, 1e5), then -0.0 and +-X_MAX
    xs = np.concatenate([xs.ravel()[:30], xs.ravel()[300:], [-0.0, oscillator.X_MAX, -oscillator.X_MAX]])
    mr, er = psi_ref(n, xs)
    assert [_point_bits(n, x) for x in xs.tolist()] == list(zip(mr.tolist(), er.tolist()))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 65, 100])
@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-310, -1e-310])
def test_one_point_loop_matches_ufunc_loop_at_subnormal_x(n, x):
    # the per-step reference overflows here; the one-point grid [x] runs the ufunc steps
    m, e = psi_py(n, np.array([x]))
    assert _point_bits(n, x) == (m[0], e[0])


@pytest.mark.parametrize("n", [63, 65])
def test_float_loop_takes_the_grid_block_length_at_subnormal_x(n):
    # a rescaling rounds at subnormal x, so there the bits depend on the block
    # length, which the grid's largest |x| sets; given that length, the float
    # loop gives the grid's bits
    m, e = psi_py(n, np.array([1e-310, oscillator.X_MAX]))
    block = oscillator._block_length(oscillator.X_MAX)
    point = oscillator._psi_scaled_point(n, 1e-310, block, *oscillator._coefficients(n), False)
    assert point == (m[0], e[0]) != _point_bits(n, 1e-310)


def _route_grids():
    """Grids of 5 and 20 points holding -0.0 and +-nu or +-X_MAX, flat and as a column, and an empty 2-D grid."""
    rng = np.random.default_rng(18)
    for n in (0, 1, 64, 65, 800, 5000):
        nu = math.sqrt(2 * n + 1)
        for size in (5, 20):
            for fixed in ([-0.0, nu, -nu], [-0.0, oscillator.X_MAX, -oscillator.X_MAX]):
                xs = np.concatenate([fixed, rng.uniform(-nu - 15, nu + 15, size - len(fixed))])
                yield n, xs
                yield n, xs.reshape(-1, 1)
        yield n, np.zeros((0, 3))


@pytest.mark.parametrize("n,xs", list(_route_grids()))
def test_grids_on_either_side_of_the_route_match_per_step_reference(n, xs):
    # the same points on either side of the route, as one grid through the ufunc
    # loop and one float x at a time through the float loop, give the per-step
    # reference's bits, and the grid's values keep its shape
    m, e = psi_py(n, xs)
    mr, er = psi_ref(n, xs)
    assert m.shape == e.shape == xs.shape and e.dtype == np.int64
    assert np.array_equal(m, mr) and np.array_equal(e, er)
    ref = zip(mr.ravel().tolist(), er.ravel().tolist())
    assert [_hex(_point_bits(n, x)) for x in xs.ravel().tolist()] == [_hex(p) for p in ref]


@pytest.mark.parametrize("size", [0, 1, 5, 16, 17, 100])
def test_only_grids_past_the_float_route_call_the_array_seed(monkeypatch, size):
    # every grid, of any size, calls _seed once, and a float x never does
    sizes = []
    seed = oscillator._seed

    def counting(x):
        sizes.append(x.size)
        return seed(x)

    monkeypatch.setattr(oscillator, "_seed", counting)
    psi_py(7, np.linspace(0.5, 3.0, size))
    assert sizes == [size]
    psi_py(7, 0.5)
    psi_py(7, np.float64(0.5), tail=True)
    assert sizes == [size]


def test_float_seed_matches_array_seed():
    # on x86-64 numpy builds with SVML about 5% of these x reach a fraction f where
    # math.exp2(f) and 2.0**f round differently from np.exp2(f), so either in place
    # of np.exp2 in the float seed fails here
    rng = np.random.default_rng(11)
    xs = np.concatenate([
        rng.uniform(-40.0, 40.0, 6000),
        rng.uniform(-oscillator.X_MAX, oscillator.X_MAX, 2000),
        10.0 ** rng.uniform(-323.0, 7.8, 2000),
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, oscillator.X_MAX, -oscillator.X_MAX],
    ])
    m, e = oscillator._seed(xs)
    assert [oscillator._seed_point(x) for x in xs.tolist()] == list(zip(m.tolist(), e.tolist()))


def test_one_point_grid_keeps_its_shape():
    m, e = psi_py(40, np.array([[3.0]]))
    assert m.shape == e.shape == (1, 1) and e.dtype == np.int64
    assert (m[0, 0], e[0, 0]) == _point_bits(40, 3.0)
    # a 0-d grid, and through eval_psi_grid at either sign, where it gathers and negates
    for n, x in [(40, 3.0), (41, 3.0), (41, -3.0)]:
        for got in (psi_py(n, np.array(x)), eval_psi_grid(OscillatorMode(n), np.array(x))):
            assert got[0].shape == got[1].shape == () and got[1].dtype == np.int64
            assert (got[0].item(), got[1].item()) == _point_bits(n, x)


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_empty_grid_returns_before_any_step(monkeypatch, shape):
    # no coefficient is read and no step runs, however large n is
    def refuse(n):
        raise AssertionError(f"coefficients read for an empty grid at n = {n}")

    monkeypatch.setattr(oscillator, "_coefficients", refuse)
    for m, e in (psi_py(10**6, np.zeros(shape)), eval_psi_grid(OscillatorMode(10**6), np.zeros(shape))):
        assert m.shape == e.shape == shape and e.dtype == np.int64


def _hex(values):
    """Floats as float.hex, so that -0.0 and 0.0 differ; ints as they are."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def _float_route_orders():
    """82 distinct orders up to 20000, drawn log-uniform, with 0, 1, 64, 65 and 20000."""
    rng = np.random.default_rng(19)
    drawn = np.unique(np.floor(10.0 ** rng.uniform(0.0, math.log10(20000.0), 95)).astype(int))
    return sorted({0, 1, 64, 65, 20000, *drawn.tolist()})


@pytest.mark.parametrize("n", _float_route_orders())
def test_float_x_gives_the_bits_of_the_one_point_grid(n):
    # 13 points at each of 82 orders, 1066 cases; the float route returns Python values
    nu = math.sqrt(2 * n + 1)
    xs = [0.0, -0.0, 5e-324, -1e-310, nu, -nu, 1.3 * nu, -1.3 * nu, oscillator.X_MAX, -oscillator.X_MAX]
    xs += [np.float64(np.random.default_rng(n).uniform(-nu - 5.0, nu + 5.0)), 2.5, -2.5]
    for x in xs:
        grid = _hex(v.item() for v in psi_py(n, np.array([x])))
        got = psi_py(n, x)
        assert [type(v) for v in got] == [float, int]
        assert _hex(got) == grid
        got = psi_py(n, x, tail=True)
        assert [type(v) for v in got] == [float, int, float, int]
        start = _reduced_start(n, float(x))
        if start is None:
            assert _hex(got[:2]) == grid
        else:  # the steps before the window run 2^j a turn, with their own roundings
            assert _hex(got) == _hex(reduced_point(n, float(x), start))


@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("x", [1e200, -1e200, math.inf, -math.inf, math.nan, np.float64(math.nan)])
def test_float_x_outside_supported_range_rejected(x, tail):
    with pytest.raises(ValueError, match="needs"):
        psi_py(3, x, tail=tail)


def test_float_x_with_negative_order_rejected():
    with pytest.raises(ValueError, match="quantum number"):
        psi_py(-1, 1.0, tail=True)


def _fresh_coefficients(n):
    k = np.arange(n, dtype=np.float64)
    return np.sqrt(2 / (k + 1)), np.sqrt(k / (k + 1))


def _fresh_two_step_coefficients(n):
    k = np.arange(n, dtype=np.float64)
    return 2 / np.sqrt((k + 1) * (k + 2)), np.sqrt(k * (k - 1) / ((k + 1) * (k + 2)))


_TABLE_ORDERS = sorted({0, 1, 2, *(2**k for k in range(1, 17)), *(2**k + 1 for k in range(1, 17))})


@pytest.mark.parametrize("orders", [_TABLE_ORDERS, _TABLE_ORDERS[::-1]], ids=["ascending", "descending"])
def test_coefficient_table_holds_fresh_values_across_growth(monkeypatch, orders):
    monkeypatch.setattr(oscillator, "_TABLE", (np.empty(0),) * 4)
    for n in orders:
        size = oscillator._TABLE[0].size
        c1, c2 = oscillator._coefficients(n)
        f1, f2 = _fresh_coefficients(n)
        assert c1.view(np.int64).tolist() == f1.view(np.int64).tolist()
        assert c2.view(np.int64).tolist() == f2.view(np.int64).tolist()
        # the table grows only when a call needs more entries, to max(n, twice its size),
        # all four arrays together
        grown = max(n, 2 * size) if n > size else size
        assert [t.size for t in oscillator._TABLE] == [grown] * 4
        # and a, c hold the doubles of a fresh build over the whole table
        _, _, a, c = oscillator._TABLE
        fa, fc = _fresh_two_step_coefficients(grown)
        assert np.array_equal(a.view(np.int64), fa.view(np.int64))
        assert np.array_equal(c.view(np.int64), fc.view(np.int64))


def test_smaller_request_shares_the_table(monkeypatch):
    monkeypatch.setattr(oscillator, "_TABLE", (np.empty(0),) * 4)
    oscillator._coefficients(1000)
    table = oscillator._TABLE
    c1, c2 = oscillator._coefficients(10)
    assert oscillator._TABLE is table
    assert np.shares_memory(c1, table[0]) and np.shares_memory(c2, table[1])
    assert c1.size == c2.size == 10


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 177, 178, 1000])
def test_table_far_past_n_gives_the_bits_of_n_steps(monkeypatch, n):
    # every loop stops at step n however long the table has grown
    monkeypatch.setattr(oscillator, "_TABLE", (np.empty(0),) * 4)
    oscillator._coefficients(2**16)
    nu = math.sqrt(2 * n + 1)
    xs = [nu, -nu, 0.5 * nu]
    for x in xs:
        (mr,), (er,) = psi_ref(n, np.array([x]))
        assert _hex(psi_py(n, x)) == _hex([mr.item(), er.item()]), x
        assert _hex(psi_py(n, x, tail=True)) == _hex(tail_point(n, x)), x
    # and on grids
    for size in (1, len(xs)):
        grid = np.resize(xs, size)
        m, e = psi_py(n, grid)
        mr, er = psi_ref(n, grid)
        assert _hex(m.tolist()) == _hex(mr.tolist()) and e.tolist() == er.tolist()


def test_coefficient_table_is_read_only():
    c1, c2 = oscillator._coefficients(50)
    _, _, a, c = oscillator._TABLE
    for t in (c1, c2, *oscillator._TABLE):
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 1.0
    assert c1[0] == math.sqrt(2.0) and c2[0] == 0.0
    assert a[0] == 2.0 / math.sqrt(2.0) and c[0] == 0.0


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


def _around_sqrt_2n(n):
    """The largest float x with x*x < 2n and the smallest x > 0 with x*x >= 2n, as the kernel rounds x*x.

    At n = 0 there is no such largest x, and the smallest is the least subnormal.
    """
    if n == 0:
        return None, 5e-324
    x = math.sqrt(2 * n)
    while x * x >= 2 * n:
        x = math.nextafter(x, 0.0)
    while x * x < 2 * n:
        below, x = x, math.nextafter(x, math.inf)
    return below, x


def _window_points(n):
    nu = math.sqrt(2 * n + 1)
    return nu, 1.3 * nu, _around_sqrt_2n(n)[1]


def _counting_reruns(monkeypatch):
    """Record the first step of every _window call: one window per call, then one from step 0 for a rerun."""
    calls = []
    window = oscillator._window

    def counting(*args):
        calls.append(args[5])
        return window(*args)

    monkeypatch.setattr(oscillator, "_window", counting)
    return calls


def _window_cases():
    """(n, x) in chunks of about equal cost: the three window points at 0..1199,
    200 random n up to 30000 and 10^5, then (2 10^5, 2^20) and (10^6, fl nu)."""
    rng = np.random.default_rng(20)
    drawn = sorted(rng.integers(1200, 30001, 200).tolist())
    chunks = [range(lo, lo + 200) for lo in range(0, 1200, 200)]
    chunks += [drawn[i : i + 25] for i in range(0, 200, 25)] + [[10**5]]
    for orders in chunks:
        yield pytest.param([(n, x) for n in orders for x in _window_points(n)], id=f"{orders[0]}-{orders[-1]}")
    yield pytest.param([(2 * 10**5, 2.0**20), (10**6, math.sqrt(2 * 10**6 + 1))], id="200000-1000000")


@pytest.mark.parametrize("points", list(_window_cases()))
def test_tail_window_gives_the_bits_of_the_full_sum(monkeypatch, points):
    # at x >= sqrt(2n) the loop sums the tail from the turning-point layer on,
    # and psi_n and the tail mass keep the bits of the sum over every term,
    # where the steps before the window run one a turn, and those of the
    # per-level reference's window where they run 2^j; from n = 10^5 on, where
    # the steps before the window run longest between rescalings, with no
    # rerun from step 0 (an overflow before the window would fail the
    # window's check, and the rerun would give the full sum's bits)
    calls = _counting_reruns(monkeypatch)
    for n, x in points:
        calls.clear()
        assert _hex(psi_py(n, x, tail=True)) == _hex(_tail_bits(n, x)), (n, x)
        if n >= 10**5:
            assert len(calls) == 1 and calls[0] > 0, (n, x, calls)


@pytest.mark.parametrize("n", [1500, 5200, 30000])
def test_steps_run_two_a_turn_from_the_set_pre_window_length(monkeypatch, n):
    # these n at fl(nu) run 2^j steps a turn; the same window start one step
    # short of _TWO_STEP_MIN runs one, with the full sum's bits, and at
    # _TWO_STEP_MIN four (one level of reduction), with the per-level
    # reference's bits, which after the window's steps can equal the full
    # sum's (they do at 1500), so the reduced route's calls are counted
    x = math.sqrt(2 * n + 1)
    start = oscillator._window_start(n, x, oscillator._block_length(x))
    assert _reduced_start(n, x) == start
    starts = []
    turns = oscillator._reduced_turns
    monkeypatch.setattr(oscillator, "_reduced_turns", lambda *args: starts.append(args[1]) or turns(*args))
    monkeypatch.setattr(oscillator, "_TWO_STEP_MIN", start + 1)
    assert _hex(psi_py(n, x, tail=True)) == _hex(tail_point(n, x)) and starts == []
    monkeypatch.setattr(oscillator, "_TWO_STEP_MIN", start)
    assert _hex(psi_py(n, x, tail=True)) == _hex(reduced_point(n, x, start)) and starts == [start]


_NU_MAX = math.sqrt(2 * cli._MAX_N + 1)


@pytest.mark.parametrize("x", [_NU_MAX, 1.5 * _NU_MAX, 3.0 * _NU_MAX, 10.0 * _NU_MAX, 2.0**23])
def test_reduction_stops_on_the_growth_bound_at_the_largest_n(monkeypatch, x):
    # at the CLI's largest n the levels stop on the growth bound, not on the
    # turn count: the last level still holds _TWO_STEP_MIN / 2 turns or more,
    # of 16 or 32 orders, each growing the pair by at most 2^450, so every run
    # between rescalings takes two turns or more; the values are finite and
    # normalised, and the one-step route gives them to 1e-12
    n = cli._MAX_N
    levels, runs = [], []
    grown, run_length = oscillator._grown, oscillator._run_length
    monkeypatch.setattr(oscillator, "_grown", lambda *args: levels.append((len(args[3]), *args[6:])) or grown(*args))
    monkeypatch.setattr(oscillator, "_run_length", lambda *args: runs.append(run_length(*args)) or runs[-1])
    m, e, tm, te = psi_py(n, x, tail=True)
    [(turns, orders)] = levels
    assert turns >= oscillator._TWO_STEP_MIN // 2 and orders in (16, 32)
    assert 2 * orders * math.log2(x * math.sqrt(2.0)) > oscillator._BLOCK_LOG2_RANGE
    assert min(runs) >= 2
    assert 0.5 <= m < 1.0 and 0.5 <= tm < 1.0 and type(e) is type(te) is int
    levels.clear()
    monkeypatch.setattr(oscillator, "_TWO_STEP_MIN", n)
    one = psi_py(n, x, tail=True)
    assert [level[1:] for level in levels] == [()]  # one step a turn
    assert oscillator.rel_diff(oscillator.ScaledValue(m, e), oscillator.ScaledValue(*one[:2])) <= 1e-12
    assert oscillator.rel_diff(oscillator.ScaledValue(tm, te), oscillator.ScaledValue(*one[2:])) <= 1e-12


@pytest.mark.parametrize("n", [150, 800, 5200])
def test_tail_falls_back_to_the_full_sum_when_the_window_is_too_narrow(monkeypatch, n):
    # at the turning point a window of 0.02 x^(2/3) steps, the last block or
    # less, leaves out terms that reach the sum; the check sees it and the
    # loop reruns from step 0
    monkeypatch.setattr(oscillator, "_WINDOW", 0.02)
    calls = _counting_reruns(monkeypatch)
    nu, _, above = _window_points(n)
    for x in (nu, above):
        calls.clear()
        assert _hex(psi_py(n, x, tail=True)) == _hex(tail_point(n, x)), x
        assert calls[0] > 0 and calls[1:] == [0], x


@pytest.mark.parametrize("n", [0, 1, 2, 63, 800, 5200, 30000])
def test_tail_window_is_predicted_only_at_x_from_sqrt_2n(monkeypatch, n):
    # with a window too narrow to hold the sum, every predicted start past
    # step 0 reruns; the points below sqrt(2n) and those at or below 0 sum
    # from step 0 and have nothing to check
    monkeypatch.setattr(oscillator, "_WINDOW", 0.02)
    calls = _counting_reruns(monkeypatch)
    below, above = _around_sqrt_2n(n)
    xs = [below, 0.0, -0.0, -math.sqrt(2 * n + 1), -30.0, 5e-324, 1e-310, -5e-324]
    for x in [x for x in xs if x is not None]:
        calls.clear()
        assert _hex(psi_py(n, x, tail=True)) == _hex(tail_point(n, x)), x
        assert calls == [0], x
    calls.clear()
    assert _hex(psi_py(n, above, tail=True)) == _hex(tail_point(n, above))
    # below the first full block the window holds step 0
    assert (calls[0] > 0 and calls[1:] == [0]) if n >= 64 else calls == [0]
