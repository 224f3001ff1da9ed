import numpy as np
import pytest

from qhotunnel._kernels import BACKEND
from qhotunnel._kernels._hermite_py import psi_scaled_grid as psi_py
from qhotunnel.oscillator import OscillatorMode, eval_psi

from ._per_step_kernel import psi_scaled_grid as psi_ref

try:
    from qhotunnel._kernels._hermite_cy import psi_scaled_grid as psi_cy
except ImportError:
    psi_cy = None


def test_backend_reported():
    assert BACKEND in ("cython", "python")


def test_mantissas_normalized():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-30.0, 30.0, 500)
    m, e = psi_py(40, xs)
    nz = m != 0.0
    assert np.all((np.abs(m[nz]) >= 0.5) & (np.abs(m[nz]) < 1.0))
    assert np.all(e[~nz] == 0)
    assert e.dtype == np.int64


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


@pytest.mark.skipif(psi_cy is None, reason="compiled kernel not built")
class TestBackendTwins:
    @pytest.mark.parametrize("n", [0, 1, 7, 100, 800])
    def test_agreement(self, n):
        rng = np.random.default_rng(42)
        nu = (2 * n + 1) ** 0.5
        xs = np.concatenate([rng.uniform(-nu - 15, nu + 15, 300), [0.0, nu, -nu]])
        mc, ec = psi_cy(n, xs)
        mp_, ep = psi_py(n, xs)
        assert np.array_equal(mc == 0.0, mp_ == 0.0)
        nz = mc != 0.0
        rel = np.abs(np.ldexp(mc[nz], (ec[nz] - ep[nz]).astype(np.int64)) / mp_[nz] - 1.0)
        assert rel.max() <= 1e-13

    def test_zero_conventions_match(self):
        xs = np.array([0.0])
        for n in (1, 3, 9):
            assert psi_cy(n, xs) == pytest.approx(psi_py(n, xs))
            assert psi_cy(n, xs)[0][0] == 0.0 and psi_cy(n, xs)[1][0] == 0
