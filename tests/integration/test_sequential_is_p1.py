"""The sequential operator is the rank operator with no ghosts.

``KIFMM`` builds its tree, wraps it as the one-rank parallel tree and
runs the setup and the apply every rank runs; nothing circulates, so
its exchange programs are empty.  Same code over the same tree means
the same bits as ``ParallelFMM(1)`` — for every backend, point set,
right-hand-side width, for separate targets and for the gradient apply.
The parent-pair-blocked rsvd V stage is the one the ranks run too: it
must agree with the per-box reference at every rank count, the coarse
split included, whatever the overlap flag or the block width.
"""

import numpy as np
import pytest

from repro.core import m2lschedule
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.precompute import OperatorCache
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.derived import gradient_kernel_for
from repro.kernels.direct import relative_error
from repro.octree.tree import _root_cube
from repro.parallel import ParallelFMM
from repro.parallel.pfmm import setup_on_tree
from repro.parallel.ptree import parallel_build_tree
from repro.parallel.simmpi import run_spmd

from tests.conftest import clustered_cloud, uniform_cloud
from tests.core.perbox import PerBoxFMM
from tests.parallel.transports import apply_on_both

BACKENDS = [("dense", "float64"), ("rsvd", "float64"), ("rsvd", "float32")]
N = 900


@pytest.fixture(scope="module", params=["uniform", "corner"])
def cloud(request):
    rng = np.random.default_rng(41)
    make = uniform_cloud if request.param == "uniform" else clustered_cloud
    return make(rng, N), rng


@pytest.fixture(
    scope="module", params=[LaplaceKernel(), StokesKernel()],
    ids=["laplace", "stokes"],
)
def operators(request, cloud):
    """One operator cache per (kernel, point set): the two operators
    then differ in nothing but the path under test."""
    kernel, (pts, _) = request.param, cloud
    return kernel, OperatorCache(kernel, 4, _root_cube(pts)[1])


@pytest.mark.parametrize("m2l,dtype", BACKENDS)
def test_kifmm_equals_one_rank_bitwise(cloud, operators, m2l, dtype):
    (pts, rng), (kernel, cache) = cloud, operators
    opts = FMMOptions(p=4, max_points=25, m2l=m2l, dtype=dtype)
    seq = KIFMM(kernel, opts).setup(pts, cache=cache)
    one = ParallelFMM(1, kernel, opts).setup(pts, cache=cache)
    for nrhs in (1, 8):
        phi = rng.standard_normal((N, kernel.source_dof, nrhs))
        if nrhs == 1:
            phi = phi[:, :, 0]
        assert np.array_equal(seq.apply(phi), one.apply(phi))
    assert seq.statistics()["flops"] == one.states[0].flops.by_phase()


def test_separate_targets_equal_the_rank_path_bitwise():
    """KIFMM's own targets ride the shared driver: the rank code on a
    real rank thread, fed from ``parallel_build_tree``, gives the bits."""
    rng = np.random.default_rng(42)
    src, trg = clustered_cloud(rng, 600), uniform_cloud(rng, 400)
    phi = rng.standard_normal((600, 1))
    kernel, opts = LaplaceKernel(), FMMOptions(p=4, max_points=25)
    seq = KIFMM(kernel, opts).setup(src, trg)

    def rank_main(comm):
        ptree = parallel_build_tree(
            comm, src, trg, max_points=opts.max_points,
            root=(seq.tree.root_corner, seq.tree.root_side),
        )
        state = setup_on_tree(comm, kernel, ptree, opts, cache=seq.cache)
        return state.apply(comm, phi)

    (one,) = run_spmd(1, rank_main)
    assert one.shape == (400, 1)
    assert np.array_equal(seq.apply(phi), one)


@pytest.mark.parametrize("m2l", ["rsvd"])
def test_gradient_apply_equals_one_rank_bitwise(m2l):
    """``apply_gradient`` shares the plan and names its own kernels."""
    rng = np.random.default_rng(43)
    pts = clustered_cloud(rng, 600)
    phi = rng.standard_normal((600, 1))
    kernel, opts = LaplaceKernel(), FMMOptions(p=4, max_points=25, m2l=m2l)
    seq = KIFMM(kernel, opts).setup(pts)
    one = ParallelFMM(
        1, kernel, opts, target_kernel=gradient_kernel_for(kernel)
    ).setup(pts, cache=seq.cache)
    assert np.array_equal(seq.apply_gradient(phi), one.apply(phi))
    # ... and leaves the potential apply of the same operator alone.
    plain = ParallelFMM(1, kernel, opts).setup(pts, cache=seq.cache)
    assert np.array_equal(seq.apply(phi), plain.apply(phi))


def two_clusters(rng, n):
    """Two boxes per coarse level: at 8 ranks V level 2 is split."""
    return np.vstack([
        rng.uniform(0.0, 0.12, (n // 2, 3)),
        rng.uniform(0.88, 1.0, (n - n // 2, 3)),
    ])


@pytest.mark.parametrize(
    "nranks,make",
    [(2, clustered_cloud), (4, uniform_cloud), (8, two_clusters)],
    ids=["p2-corner", "p4-uniform", "p8-two-clusters"],
)
def test_blocked_rsvd_on_ranks(fast_kernel, nranks, make, monkeypatch):
    """The blocked rsvd stage under the owned/ghost split and the coarse
    split: the per-box reference to 1e-9, overlap on ≡ off and rank
    processes ≡ rank threads bit for bit, and column ``r`` of a block
    against the single apply of column ``r``.  The V stage is
    bit-identical per column; U and W fold the block into one GEMM
    (5e-16 measured), while a V stage that was merely equivalent would
    show ~1e-10 after the ``dc2de`` inversion."""
    monkeypatch.setattr(  # the layout of the dense uniform trees
        m2lschedule, "rsvd_layout_seconds", lambda *a: (1.0, 0.0)
    )
    rng = np.random.default_rng(44)
    kernel, n = fast_kernel, 640
    pts = make(rng, n)
    block = rng.standard_normal((n, kernel.source_dof, 8))
    opts = FMMOptions(p=4, max_points=20, m2l="rsvd")
    ref = PerBoxFMM(kernel, opts).setup(pts)
    on = ParallelFMM(nranks, kernel, opts, overlap=True).setup(pts)
    assert all(st.m2l_schedule.blocked for st in on.states)
    if nranks == 8:
        assert any(sp.bcast for st in on.states for sp in st.v_splits)
    u8 = on.apply(block)
    on.overlap = False  # read by each apply
    assert np.array_equal(u8, on.apply(block))
    on.overlap = True
    for r, apply in ((0, apply_on_both), (5, ParallelFMM.apply)):
        u = apply(on, block[:, :, r])
        assert relative_error(u8[:, :, r], u) < 1e-13
        assert relative_error(u, ref.apply(block[:, :, r])) < 1e-9
