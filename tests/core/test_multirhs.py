"""Multi-RHS batched applies: column parity with single-RHS applies.

The tentpole claim of the batched-density path: stacking ``nrhs``
densities into one apply changes the schedule (nrhs-fold wider GEMMs)
but not the mathematics — every column of the
stacked result matches the corresponding single-RHS apply to strict
round-off (≤1e-12), on the planned path and on the per-box reference
path, and the flat-block matvec interface is a pure reshape of the
stacked one.
"""

import numpy as np
import pytest

from repro.core.evaluator import coerce_density
from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import relative_error

from tests.conftest import clustered_cloud, uniform_cloud
from tests.core.perbox import PerBoxFMM

KERNELS = {
    "laplace": LaplaceKernel(),
    "stokes": StokesKernel(mu=0.7),
}


def _column_parity(op, rng, n, dof, nrhs):
    block = rng.standard_normal((n, dof, nrhs))
    out = op.apply(block)
    assert out.shape[2] == nrhs
    for r in range(nrhs):
        single = op.apply(np.ascontiguousarray(block[:, :, r]))
        assert single.ndim == 2
        assert relative_error(out[:, :, r], single) < 1e-12


@pytest.mark.parametrize("kname", ["laplace", "stokes"])
@pytest.mark.parametrize("m2l", ["dense"])
def test_planned_columns_match_single_rhs(rng, kname, m2l):
    kern = KERNELS[kname]
    pts = clustered_cloud(rng, 700)
    op = KIFMM(kern, FMMOptions(p=4, max_points=30, m2l=m2l)).setup(pts)
    _column_parity(op, rng, 700, kern.source_dof, 5)


@pytest.mark.parametrize("kname", ["laplace", "stokes"])
def test_naive_path_loops_columns(rng, kname):
    kern = KERNELS[kname]
    pts = uniform_cloud(rng, 400)
    op = PerBoxFMM(kern, FMMOptions(p=4, max_points=30)).setup(pts)
    _column_parity(op, rng, 400, kern.source_dof, 3)


def test_block_matvec_is_reshape_of_stacked_apply(rng):
    kern = KERNELS["stokes"]
    pts = uniform_cloud(rng, 500)
    op = KIFMM(kern, FMMOptions(p=4, max_points=35)).setup(pts)
    block = rng.standard_normal((500, 3, 4))
    out = op.apply(block)
    mv = op.matvec(block.reshape(1500, 4))
    assert mv.shape == (1500, 4)
    assert np.array_equal(mv, out.reshape(1500, 4))
    flat_single = op.matvec(block[:, :, 0].ravel())
    assert flat_single.shape == (1500,)
    assert relative_error(flat_single, mv[:, 0]) < 1e-12


def test_single_rhs_result_shapes_unchanged(rng):
    pts = uniform_cloud(rng, 300)
    op = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=30)).setup(pts)
    assert op.apply(rng.standard_normal((300, 1))).shape == (300, 1)
    assert op.matvec(rng.standard_normal(300)).shape == (300,)


def test_sanitized_multirhs_apply(rng):
    pts = uniform_cloud(rng, 400)
    op = KIFMM(
        LaplaceKernel(), FMMOptions(p=4, max_points=30, sanitize=True)
    ).setup(pts)
    block = rng.standard_normal((400, 1, 4))
    out = op.apply(block)
    assert np.isfinite(out).all()


def test_repeated_block_applies_bitwise_identical(rng):
    pts = clustered_cloud(rng, 500)
    op = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=30)).setup(pts)
    block = rng.standard_normal((500, 1, 3))
    assert np.array_equal(op.apply(block), op.apply(block))


def test_varying_nrhs_across_applies_reuses_pool(rng):
    """The grow-only BufferPool serves different block widths in turn."""
    pts = uniform_cloud(rng, 400)
    op = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=30)).setup(pts)
    wide = op.apply(rng.standard_normal((400, 1, 8)))
    narrow_block = rng.standard_normal((400, 1, 2))
    narrow = op.apply(narrow_block)
    assert wide.shape == (400, 1, 8) and narrow.shape == (400, 1, 2)
    single = op.apply(np.ascontiguousarray(narrow_block[:, :, 1]))
    assert relative_error(narrow[:, :, 1], single) < 1e-12


def test_coerce_density_forms():
    n, dof = 10, 3
    flat = np.arange(n * dof, dtype=float)
    phi, nrhs, single = coerce_density(flat, n, dof)
    assert phi.shape == (n, dof, 1) and nrhs == 1 and single
    phi, nrhs, single = coerce_density(flat.reshape(n, dof), n, dof)
    assert phi.shape == (n, dof, 1) and nrhs == 1 and single
    block = np.zeros((n * dof, 4))
    phi, nrhs, single = coerce_density(block, n, dof)
    assert phi.shape == (n, dof, 4) and nrhs == 4 and not single
    assert phi.base is block  # reshaped view, no copy
    stacked = np.zeros((n, dof, 2))
    phi, nrhs, single = coerce_density(stacked, n, dof)
    assert phi is stacked and nrhs == 2 and not single
    with pytest.raises(ValueError, match="density shape"):
        coerce_density(np.zeros((n + 1, dof)), n, dof)


def test_stacked_laplace_2d_block_form(rng):
    """(N, nrhs) with dof=1 reads as a flat block of nrhs densities."""
    pts = uniform_cloud(rng, 300)
    op = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=30)).setup(pts)
    block = rng.standard_normal((300, 6))
    out = op.matvec(block)
    assert out.shape == (300, 6)
    for r in range(6):
        assert relative_error(out[:, r], op.matvec(block[:, r])) < 1e-12
