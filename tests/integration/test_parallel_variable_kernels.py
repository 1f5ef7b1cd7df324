"""Variable source/target kernels through the parallel algorithm."""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel
from repro.kernels.derived import LaplaceDipoleKernel, LaplaceGradientKernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.parallel import ParallelFMM, run_parallel_fmm

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
    par = run_parallel_fmm(
        3, LaplaceKernel(), pts, phi, opts, target_kernel=grad_k
    )
    assert par.potential.shape == (400, 3)
    assert relative_error(par.potential, seq) < 1e-12
    with ParallelFMM(3, LaplaceKernel(), opts, target_kernel=grad_k) as op:
        assert np.array_equal(apply_on_both(op.setup(pts), phi), par.potential)


def test_parallel_dipole_sources(rng):
    pts = clustered_cloud(rng, 400)
    dipoles = rng.standard_normal((400, 3))
    dip_k = LaplaceDipoleKernel()
    opts = FMMOptions(p=4, max_points=25)
    par = run_parallel_fmm(
        4, LaplaceKernel(), pts, dipoles, opts, source_kernel=dip_k
    )
    exact = direct_evaluate(dip_k, pts, pts, dipoles)
    assert relative_error(par.potential, exact) < 1e-2
    seq = KIFMM(
        LaplaceKernel(), opts, source_kernel=dip_k
    ).setup(pts).apply(dipoles)
    assert relative_error(par.potential, seq) < 1e-12
    with ParallelFMM(4, LaplaceKernel(), opts, source_kernel=dip_k) as op:
        assert np.array_equal(
            apply_on_both(op.setup(pts), dipoles), par.potential
        )


def test_parallel_both_custom_requires_direct(rng):
    pts = clustered_cloud(rng, 100)
    with pytest.raises(ValueError, match="direct_kernel"):
        run_parallel_fmm(
            2,
            LaplaceKernel(),
            pts,
            np.zeros((100, 3)),
            FMMOptions(p=3, max_points=30),
            source_kernel=LaplaceDipoleKernel(),
            target_kernel=LaplaceGradientKernel(),
        )
