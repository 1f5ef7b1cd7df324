"""The FMM in the plane: ``KIFMM`` over a 2D kernel is the 3D driver —
quadtree, square surfaces, plan, ``RankFMM.apply`` — at ``dim = 2``.

Its oracles are direct summation, the one-rank parallel operator (bit
for bit) and the two-rank one.
"""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import (
    Laplace2DKernel,
    ModifiedLaplace2DKernel,
    Stokes2DKernel,
)
from repro.kernels.direct import direct_evaluate
from repro.parallel import ParallelFMM

from tests.conftest import cloud

KERNELS = [Laplace2DKernel(), ModifiedLaplace2DKernel(1.5), Stokes2DKernel(0.8)]
IDS = ["laplace2d", "modified_laplace2d", "stokes2d"]


def _rel(a, b):
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / np.linalg.norm(np.ravel(b))


@pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
@pytest.mark.parametrize("clustered", [False, True], ids=["uniform", "clustered"])
def test_accuracy_vs_direct(rng, kernel, clustered):
    pts = cloud(rng, 800, 2, clustered)
    phi = rng.standard_normal((pts.shape[0], kernel.source_dof))
    fmm = KIFMM(kernel, FMMOptions(p=8, max_points=30)).setup(pts)
    assert fmm.tree.dim == 2
    u = fmm.apply(phi)
    exact = direct_evaluate(kernel, pts, pts, phi)
    assert _rel(u, exact) < 1e-5


def test_p_refinement(rng):
    kernel = Laplace2DKernel()
    pts = cloud(rng, 600, 2)
    phi = rng.standard_normal((600, 1))
    exact = direct_evaluate(kernel, pts, pts, phi)
    # dense M2L: the rsvd tolerance of ``auto`` would flatten p = 10 -> 12
    errs = [
        _rel(
            KIFMM(kernel, FMMOptions(p=p, max_points=30, m2l="dense"))
            .setup(pts).apply(phi),
            exact,
        )
        for p in (4, 6, 8, 10, 12)
    ]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-10


def test_disjoint_targets(rng):
    kernel = Laplace2DKernel()
    src = cloud(rng, 500, 2)
    trg = rng.uniform(-0.4, 0.4, size=(200, 2))
    phi = rng.standard_normal((500, 1))
    fmm = KIFMM(kernel, FMMOptions(p=8, max_points=25)).setup(src, trg)
    u = fmm.apply(phi)
    exact = direct_evaluate(kernel, trg, src, phi)
    assert _rel(u, exact) < 1e-5


def test_linearity(rng):
    kernel = Stokes2DKernel()
    pts = cloud(rng, 300, 2)
    fmm = KIFMM(kernel, FMMOptions(p=6, max_points=25)).setup(pts)
    a = rng.standard_normal((300, 2))
    b = rng.standard_normal((300, 2))
    assert np.allclose(
        fmm.apply(a + 2 * b), fmm.apply(a) + 2 * fmm.apply(b), atol=1e-11
    )


def test_single_box(rng):
    kernel = Laplace2DKernel()
    pts = cloud(rng, 20, 2)
    phi = rng.standard_normal((20, 1))
    fmm = KIFMM(kernel, FMMOptions(p=4, max_points=40)).setup(pts)
    exact = direct_evaluate(kernel, pts, pts, phi)
    assert _rel(fmm.apply(phi), exact) < 1e-12


def test_apply_before_setup_raises():
    with pytest.raises(RuntimeError):
        KIFMM(Laplace2DKernel()).apply(np.zeros((5, 1)))


def test_options_validation():
    with pytest.raises(ValueError):
        FMMOptions(p=1)
    with pytest.raises(ValueError):
        FMMOptions(inner=0.9)


@pytest.mark.parametrize("kernel", KERNELS[::2], ids=IDS[::2])
@pytest.mark.parametrize("clustered", [False, True], ids=["uniform", "clustered"])
def test_parallel_operators(rng, kernel, clustered):
    """``ParallelFMM(1)`` is ``KIFMM`` bit for bit, and two ranks agree
    with it to round-off (their V passes sum in another order), in the
    plane as in space (``tests/integration``: the same bound at p = 4)."""
    pts = cloud(rng, 1500, 2, clustered)
    phi = rng.standard_normal((pts.shape[0], kernel.source_dof))
    opts = FMMOptions(p=4, max_points=30)
    seq = KIFMM(kernel, opts).setup(pts).apply(phi)
    with ParallelFMM(1, kernel, opts) as p1, ParallelFMM(2, kernel, opts) as p2:
        assert np.array_equal(p1.setup(pts).apply(phi), seq)
        two = p2.setup(pts).apply(phi)
    assert _rel(two, seq) <= 1e-12
