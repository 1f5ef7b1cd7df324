"""The persistent planned parallel operator: parity, repeats, overlap.

The tentpole claims of the setup/apply split: the LET-local execution
plan computes the same potentials as the sequential batched evaluator
and the sequential per-box reference, repeated applies of one operator are
bitwise identical (the pooled buffers are re-zeroed, the exchange is
deterministic), and the overlap flag changes scheduling but not a
single bit of the result.  Beyond one rank the operator applies on rank
processes; ``apply_on_both`` pins them to the rank threads bit for bit.
"""

import numpy as np
import pytest

from repro.analysis import CommTrace
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.precompute import OperatorCache
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel, StokesKernel
from repro.kernels.direct import relative_error
from repro.parallel import ParallelFMM
from repro.octree.tree import _root_cube

from tests.conftest import (
    clustered_cloud,
    count_factorisations,
    uniform_cloud,
)
from tests.core.perbox import PerBoxFMM
from tests.parallel.transports import apply_on_both


def _cloud(rng, dist, n):
    return uniform_cloud(rng, n) if dist == "uniform" else clustered_cloud(rng, n)


@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("dist", ["uniform", "clustered"])
def test_laplace_parity(rng, nranks, dist):
    pts = _cloud(rng, dist, 700)
    phi = rng.standard_normal((700, 1))
    opts = FMMOptions(p=4, max_points=30)
    seq_batched = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    seq_naive = PerBoxFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    par = ParallelFMM(nranks, LaplaceKernel(), opts).setup(pts).apply(phi)
    assert relative_error(par, seq_batched) < 1e-9
    assert relative_error(par, seq_naive) < 1e-9


@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("dist", ["uniform", "clustered"])
def test_stokes_parity(rng, nranks, dist):
    pts = _cloud(rng, dist, 500)
    phi = rng.standard_normal((500, 3))
    opts = FMMOptions(p=4, max_points=35)
    seq_batched = KIFMM(StokesKernel(), opts).setup(pts).apply(phi)
    seq_naive = PerBoxFMM(StokesKernel(), opts).setup(pts).apply(phi)
    par = ParallelFMM(nranks, StokesKernel(), opts).setup(pts).apply(phi)
    assert relative_error(par, seq_batched) < 1e-9
    assert relative_error(par, seq_naive) < 1e-9


def test_repeated_applies_bitwise_identical(rng):
    pts = clustered_cloud(rng, 600)
    phi = rng.standard_normal((600, 1))
    op = ParallelFMM(4, LaplaceKernel(), FMMOptions(p=4, max_points=30))
    op.setup(pts)
    p1, p2, p3 = apply_on_both(op, phi), op.apply(phi), op.apply(phi)
    assert np.array_equal(p1, p2)
    assert np.array_equal(p2, p3)
    assert op.napplies == 4  # one of them on threads


def test_overlap_on_off_bitwise_identical(rng):
    pts = uniform_cloud(rng, 600)
    phi = rng.standard_normal((600, 3))
    opts = FMMOptions(p=4, max_points=30)
    on = ParallelFMM(3, StokesKernel(), opts, overlap=True).setup(pts)
    off = ParallelFMM(3, StokesKernel(), opts, overlap=False).setup(pts)
    assert np.array_equal(apply_on_both(on, phi), apply_on_both(off, phi))


_BACKENDS = [("rsvd", "float64"), ("rsvd", "float32"), ("dense", "float64")]


@pytest.fixture(scope="module")
def transport_case():
    """Points, an 8-column density block per kernel, and one operator
    cache per (kernel, backend) for the rank counts to share."""
    rng = np.random.default_rng(22)
    pts = uniform_cloud(rng, 400)
    kernels = {"laplace": LaplaceKernel(), "stokes": StokesKernel(mu=0.7)}
    blocks = {
        name: rng.standard_normal((400, k.source_dof, 8))
        for name, k in kernels.items()
    }
    caches = {
        (name, *backend): OperatorCache(k, 3, _root_cube(pts)[1])
        for name, k in kernels.items() for backend in _BACKENDS
    }
    return pts, kernels, blocks, caches


@pytest.mark.parametrize("nranks", [2, 4, 8])
@pytest.mark.parametrize("m2l,dtype", _BACKENDS)
@pytest.mark.parametrize("kname", ["laplace", "stokes"])
def test_rank_processes_equal_rank_threads(
    transport_case, kname, m2l, dtype, nranks
):
    """The two worlds under one interpreter of one compiled exchange:
    potentials bit for bit, per-rank flops, per-rank messages and bytes
    (and those the op counts of the programs), for a block and a single
    density, overlap on and off.  The rank threads are the slow side
    (one interpreter lock), so they run the block with the overlap and
    the single density without; the other two pairings are pinned
    through the processes' own on == off."""
    pts, kernels, blocks, caches = transport_case
    opts = FMMOptions(p=3, max_points=12, m2l=m2l, dtype=dtype)
    block, single = blocks[kname], blocks[kname][:, :, 3]
    with ParallelFMM(nranks, kernels[kname], opts) as op:
        op.setup(pts, cache=caches[kname, m2l, dtype])
        block_on = apply_on_both(op, block)
        single_on = op.apply(single)
        op.overlap = False
        assert np.array_equal(op.apply(block), block_on)
        assert np.array_equal(apply_on_both(op, single), single_on)


def test_napplies_driver_matches_single_apply(rng):
    """A setup and three applies recorded as the regions of one trace
    give the potential of an untraced operator's one apply."""
    pts = uniform_cloud(rng, 500)
    phi = rng.standard_normal((500, 1))
    opts = FMMOptions(p=4, max_points=30)
    one = ParallelFMM(2, LaplaceKernel(), opts).setup(pts).apply(phi)
    trace = CommTrace()
    op = ParallelFMM(2, LaplaceKernel(), opts).setup(pts, trace=trace)
    three = [op.apply(phi, trace=trace) for _ in range(3)]
    assert trace.regions == 4 and trace.completed
    for pot in three:
        assert np.array_equal(one, pot)


def test_dense_m2l_planned_path(rng):
    pts = clustered_cloud(rng, 500)
    phi = rng.standard_normal((500, 1))
    opts = FMMOptions(p=4, max_points=30, m2l="dense")
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    par = ParallelFMM(3, LaplaceKernel(), opts).setup(pts).apply(phi)
    assert relative_error(par, seq) < 1e-9


@pytest.mark.parametrize(
    "m2l,dtype,tol",
    [("rsvd", "float64", 1e-9), ("rsvd", "float32", 1e-6),
     ("auto", "float64", 1e-9)],
)
def test_rsvd_and_auto_m2l_planned_path(rng, m2l, dtype, tol):
    """Compressed/mixed schedules through the LET-local planned path.

    float64 rsvd matches the sequential evaluator to roundoff (the
    seeded factorisation makes both sides use identical factors); the
    float32 mixed-precision mode differs only by single-precision
    rounding in a different owned/ghost summation order.
    """
    pts = clustered_cloud(rng, 500)
    phi = rng.standard_normal((500, 1))
    opts = FMMOptions(p=4, max_points=30, m2l=m2l, dtype=dtype)
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    par = ParallelFMM(3, LaplaceKernel(), opts).setup(pts).apply(phi)
    assert relative_error(par, seq) < tol
    naive = PerBoxFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    assert relative_error(par, naive) < tol


def test_matvec_shape_for_gmres(rng):
    pts = uniform_cloud(rng, 300)
    op = ParallelFMM(2, StokesKernel(), FMMOptions(p=4, max_points=40))
    op.setup(pts)
    out = op.matvec(rng.standard_normal(900))
    assert out.shape == (900,)


def test_parallel_fmm_rejects_balance_beyond_one_rank():
    """2:1 balancing needs one rank's complete tree; it used to be
    ignored silently (every rank of 2 built the unbalanced 437 boxes)."""
    balanced = FMMOptions(balance=True)
    with pytest.raises(ValueError, match="balance"):
        ParallelFMM(2, LaplaceKernel(), balanced)


@pytest.mark.parametrize("nranks", [0, -1, 2.5, "2", True, None])
def test_entry_points_reject_a_bad_rank_count(nranks):
    """Checked where ``ParallelFMM`` is entered, not first inside the
    thread world: ``ParallelFMM(0, ...)`` used to construct, and a float
    or a string died with a bare ``TypeError`` from ``range``."""
    with pytest.raises(ValueError, match="nranks"):
        ParallelFMM(nranks, LaplaceKernel())


def test_one_rank_balances_like_kifmm(rng):
    """The shared driver honours ``balance`` in one place, for both
    one-rank operators."""
    pts = clustered_cloud(rng, 1500)
    phi = rng.standard_normal((1500, 1))
    opts = FMMOptions(p=4, max_points=30, balance=True)
    plain = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=30)).setup(pts)
    seq = KIFMM(LaplaceKernel(), opts).setup(pts)
    one = ParallelFMM(1, LaplaceKernel(), opts).setup(pts)
    assert seq.tree.nboxes > plain.tree.nboxes
    assert one.states[0].tree.nboxes == seq.tree.nboxes
    assert np.array_equal(seq.apply(phi), one.apply(phi))


def test_rank_statistics_sum_to_the_sequential_ones(rng):
    """``statistics()`` of a rank's plan used to raise (it read the U/W
    blocks only the sequential plan carried); the near-field entries
    now come from the state's own + ghost blocks.  Two clusters, one
    per rank, so no target leaf is shared and the per-target-box counts
    add up exactly."""
    half = 300
    pts = np.vstack([
        rng.uniform(0.0, 0.3, (half, 3)), rng.uniform(0.7, 1.0, (half, 3))
    ])
    opts = FMMOptions(p=4, max_points=20)
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).statistics()
    states = ParallelFMM(2, LaplaceKernel(), opts).setup(pts).states
    assert all("plan_v_pairs" in st.plan.statistics() for st in states)
    per_rank = [st.statistics() for st in states]
    assert seq["plan_u_sources"] > 0 and seq["plan_w_pairs"] > 0
    for key in ("plan_u_boxes", "plan_u_sources", "plan_w_pairs"):
        assert sum(stats[key] for stats in per_rank) == seq[key]


def test_apply_before_setup_raises():
    op = ParallelFMM(2, LaplaceKernel(), FMMOptions())
    with pytest.raises(RuntimeError, match="setup"):
        op.apply(np.zeros((10, 1)))


def test_timer_phases_include_pack_and_wait(rng):
    pts = uniform_cloud(rng, 500)
    phi = rng.standard_normal((500, 1))
    op = ParallelFMM(4, LaplaceKernel(), FMMOptions(p=4, max_points=30))
    op.setup(pts)
    op.apply(phi)
    for t in (t.by_phase() for t in op.timers):
        assert "pack" in t and "wait" in t
        assert t["up"] > 0 and "down_v" in t
    assert any(s.recv_wait_seconds > 0 for s in op.comm_stats)
    assert all(s.bytes_sent > 0 for s in op.comm_stats)


def test_shared_cache_reused_across_paths(rng):
    """The hoisted cache is accepted by ``ParallelFMM.setup``, as the
    operator's own cache, and by ``KIFMM.setup``."""
    pts = uniform_cloud(rng, 400)
    phi = rng.standard_normal((400, 1))
    opts = FMMOptions(p=4, max_points=30)
    corner, side = _root_cube(pts)
    cache = OperatorCache(LaplaceKernel(), opts.p, side)
    seq = KIFMM(LaplaceKernel(), opts).setup(
        pts, root=(corner, side), cache=cache
    ).apply(phi)
    planned = ParallelFMM(2, LaplaceKernel(), opts).setup(
        pts, cache=cache
    ).apply(phi)
    op = ParallelFMM(2, LaplaceKernel(), opts)
    op.cache = cache
    assert relative_error(planned, seq) < 1e-12
    assert np.array_equal(op.setup(pts).apply(phi), planned)
    assert op.cache is cache


def test_mismatched_cache_root_rejected(rng):
    """An inhomogeneous kernel's operators belong to one root cube."""
    pts = uniform_cloud(rng, 200)
    kernel = ModifiedLaplaceKernel(lam=1.5)
    cache = OperatorCache(kernel, 4, 123.0)
    with pytest.raises(ValueError, match="root_side"):
        KIFMM(kernel, FMMOptions(p=4)).setup(pts, cache=cache)
    with pytest.raises(ValueError, match="root_side"):
        ParallelFMM(2, kernel, FMMOptions(p=4)).setup(pts, cache=cache)


def test_mismatched_cache_root_rescaled(rng, fast_kernel):
    """A homogeneous kernel's operators follow the tree to a new root.

    Every operator the first geometry built is reused (no factorisation
    runs again), and the potentials are those of a cold setup up to the
    round-off of one multiplication by ``a^h`` passing through the
    regularised inversions (p = 3 keeps their condition number, and so
    this bound, small).
    """
    kernel = fast_kernel
    opts = FMMOptions(p=3, max_points=30, m2l="rsvd")
    pts = uniform_cloud(rng, 500)
    phi = rng.standard_normal((500, kernel.source_dof))
    warm = KIFMM(kernel, opts).setup(pts)
    warm.apply(phi)
    moved = 1.7 * pts + 0.3
    with count_factorisations() as calls:
        seq = KIFMM(kernel, opts).setup(moved, cache=warm.cache)
        useq = seq.apply(phi)
        par = ParallelFMM(2, kernel, opts).setup(moved, cache=warm.cache)
        upar = par.apply(phi)
    assert calls == {"randomized_svd": 0, "regularized_pinv": 0}
    assert seq.cache is not warm.cache
    assert seq.cache.root_side == seq.tree.root_side != warm.cache.root_side
    cold = KIFMM(kernel, opts).setup(moved).apply(phi)
    assert relative_error(useq, cold) < 1e-12
    assert relative_error(upar, cold) < 1e-12
