"""The identity the performance model prices for the paper's FFT M2L: a
V-list translation, a convolution with ``T[d] = G(2 r offset + h d)``
through a ``(2p)^3`` circulant and ``numpy.fft``, is the dense operator."""

import numpy as np
import pytest

from repro.core.precompute import OperatorCache
from repro.core.surfaces import surface_lattice_indices
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel

KERNELS = {"laplace": LaplaceKernel(), "stokes": StokesKernel(),
           "modified_laplace": ModifiedLaplaceKernel(lam=1.0)}
OFFSETS = [(2, 0, 0), (0, -2, 1), (3, 3, 3), (-3, 2, -1), (0, 0, 2)]
AXES = (0, 1, 2)


def tensor_hat(cache, level, offset):
    k, p, m, r = cache.kernel, cache.p, 2 * cache.p, cache.half_width(level)
    d = np.fft.fftfreq(m, 1.0 / m) * (2.0 * cache.inner * r / (p - 1))
    pts = np.stack(np.meshgrid(d, d, d, indexing="ij"), -1).reshape(-1, 3)
    T = k.matrix(pts + np.multiply(offset, 2.0 * r), np.zeros((1, 3)))
    return np.fft.rfftn(T.reshape(m, m, m, k.target_dof, -1), axes=AXES)


def fft_m2l(cache, level, pairs):
    """Check potential of the ``(offset, ue)`` sources, by FFT."""
    m, at = 2 * cache.p, tuple(surface_lattice_indices(cache.p, 3).T)
    acc = 0.0
    for offset, ue in pairs:
        grid = np.zeros((m, m, m, cache.kernel.source_dof))
        grid[at] = ue.reshape(-1, grid.shape[-1])
        acc = acc + np.einsum("xyzqs,xyzs->xyzq", tensor_hat(
            cache, level, offset), np.fft.rfftn(grid, axes=AXES))
    return np.fft.irfftn(acc, s=(m, m, m), axes=AXES)[at].reshape(-1)


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
@pytest.mark.parametrize("offset", OFFSETS)
def test_fft_matches_dense(kernel, offset, rng):
    cache = OperatorCache(kernel, 4, root_side=2.0)
    ue = rng.standard_normal(cache.n_surf * kernel.source_dof)
    dense = cache.m2l_check(2, offset) @ ue
    np.testing.assert_allclose(fft_m2l(cache, 2, [(offset, ue)]), dense,
                               rtol=0, atol=1e-10 * max(1.0, abs(dense).max()))


def test_accumulation_is_additive(rng):
    """Two sources' spectra summed, then one inverse transform."""
    cache = OperatorCache(LaplaceKernel(), 4, root_side=1.0)
    pairs = [(o, rng.standard_normal(cache.n_surf)) for o in OFFSETS[:2]]
    expected = sum(cache.m2l_check(3, o) @ ue for o, ue in pairs)
    np.testing.assert_allclose(fft_m2l(cache, 3, pairs), expected, atol=1e-10)


def test_homogeneous_level_scaling():
    """Degree -1: level-5 boxes are 8x smaller, their tensor 8x larger."""
    cache = OperatorCache(LaplaceKernel(), 3, root_side=2.0)
    np.testing.assert_allclose(tensor_hat(cache, 5, (2, 1, 0)),
                               8.0 * tensor_hat(cache, 2, (2, 1, 0)))
