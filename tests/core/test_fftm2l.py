"""FFT M2L must agree with the dense M2L operator to machine precision.

One box pair at a time, through the per-box transforms of the oracle
(``tests/core/perbox.py``) over the DFT operators and kernel tensors the
planned stages hold.
"""

import numpy as np
import pytest

from repro.core.fftm2l import FFTM2L
from repro.core.precompute import OperatorCache
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel

from tests.core.perbox import accumulate, check_potential, density_hat

OFFSETS = [(2, 0, 0), (0, -2, 1), (3, 3, 3), (-3, 2, -1), (0, 0, 2)]


@pytest.mark.parametrize(
    "kernel",
    [LaplaceKernel(), ModifiedLaplaceKernel(lam=1.0), StokesKernel()],
    ids=["laplace", "modified_laplace", "stokes"],
)
@pytest.mark.parametrize("offset", OFFSETS)
def test_fft_matches_dense(kernel, offset, rng):
    p = 4
    cache = OperatorCache(kernel, p, root_side=2.0)
    fft = FFTM2L(cache)
    level = 2
    ue = rng.standard_normal(cache.n_surf * kernel.source_dof)
    dense = cache.m2l_check(level, offset) @ ue
    nfreq = fft.m * fft.m * (fft.m // 2 + 1)
    acc = np.zeros((kernel.target_dof, nfreq), dtype=np.complex128)
    accumulate(acc, fft.kernel_tensor_hat(level, offset), density_hat(fft, ue))
    via_fft = check_potential(fft, acc)
    assert np.allclose(via_fft, dense, atol=1e-10 * max(1.0, np.abs(dense).max()))


def test_accumulation_is_additive(rng):
    """Hadamard accumulation over two sources equals sum of singles."""
    kernel = LaplaceKernel()
    cache = OperatorCache(kernel, 4, root_side=1.0)
    fft = FFTM2L(cache)
    level = 3
    ue1 = rng.standard_normal(cache.n_surf)
    ue2 = rng.standard_normal(cache.n_surf)
    o1, o2 = (2, 0, 0), (0, 3, -1)
    acc = np.zeros((1, fft.m * fft.m * (fft.m // 2 + 1)), dtype=np.complex128)
    accumulate(acc, fft.kernel_tensor_hat(level, o1), density_hat(fft, ue1))
    accumulate(acc, fft.kernel_tensor_hat(level, o2), density_hat(fft, ue2))
    combined = check_potential(fft, acc)
    expected = (
        cache.m2l_check(level, o1) @ ue1 + cache.m2l_check(level, o2) @ ue2
    )
    assert np.allclose(combined, expected)


def test_homogeneous_level_scaling(rng):
    kernel = LaplaceKernel()
    cache = OperatorCache(kernel, 3, root_side=2.0)
    fft = FFTM2L(cache)
    t2 = fft.kernel_tensor_hat(2, (2, 1, 0))
    t5 = fft.kernel_tensor_hat(5, (2, 1, 0))
    # degree -1 homogeneity: level 5 boxes are 8x smaller -> kernel 8x larger
    assert np.allclose(t5, t2 * 8.0)


def test_inhomogeneous_tensors_cached_per_level():
    kernel = ModifiedLaplaceKernel(lam=1.0)
    cache = OperatorCache(kernel, 3, root_side=2.0)
    fft = FFTM2L(cache)
    fft.kernel_tensor_hat(2, (2, 0, 0))
    fft.kernel_tensor_hat(3, (2, 0, 0))
    assert len(fft._tensors) == 2


def test_rejects_adjacent_offset():
    fft = FFTM2L(OperatorCache(LaplaceKernel(), 3, 1.0))
    with pytest.raises(ValueError):
        fft.kernel_tensor_hat(2, (1, 1, 0))


def test_flop_estimates_positive():
    fft = FFTM2L(OperatorCache(StokesKernel(), 4, 1.0))
    assert fft.flops_per_pair() > 0
    assert fft.flops_per_fft() > 0
