"""Variable source/target kernels through the parallel algorithm."""

import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel
from repro.kernels.derived import LaplaceDipoleKernel, LaplaceGradientKernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.parallel import ParallelFMM

from tests.conftest import clustered_cloud
from tests.parallel.transports import apply_on_both


def test_parallel_gradient_targets(rng):
    pts = clustered_cloud(rng, 400)
    phi = rng.standard_normal((400, 1))
    grad_k = LaplaceGradientKernel()
    opts = FMMOptions(p=4, max_points=25)
    seq = KIFMM(
        LaplaceKernel(), opts, target_kernel=grad_k
    ).setup(pts).apply(phi)
    with ParallelFMM(3, LaplaceKernel(), opts, target_kernel=grad_k) as op:
        par = apply_on_both(op.setup(pts), phi)
    assert par.shape == (400, 3)
    assert relative_error(par, seq) < 1e-12


def test_parallel_dipole_sources(rng):
    pts = clustered_cloud(rng, 400)
    dipoles = rng.standard_normal((400, 3))
    dip_k = LaplaceDipoleKernel()
    opts = FMMOptions(p=4, max_points=25)
    with ParallelFMM(4, LaplaceKernel(), opts, source_kernel=dip_k) as op:
        par = apply_on_both(op.setup(pts), dipoles)
    exact = direct_evaluate(dip_k, pts, pts, dipoles)
    assert relative_error(par, exact) < 1e-2
    seq = KIFMM(
        LaplaceKernel(), opts, source_kernel=dip_k
    ).setup(pts).apply(dipoles)
    assert relative_error(par, seq) < 1e-12


def test_parallel_both_custom_requires_direct():
    with pytest.raises(ValueError, match="direct_kernel"):
        ParallelFMM(
            2,
            LaplaceKernel(),
            FMMOptions(p=3, max_points=30),
            source_kernel=LaplaceDipoleKernel(),
            target_kernel=LaplaceGradientKernel(),
        )
