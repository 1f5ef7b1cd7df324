"""The planned (batched) evaluator must reproduce the per-box path.

The execution plan reorganises the exact same translations into
level-major batches; nothing about the mathematics changes.  These tests
pin that equivalence: potentials agree to ~1e-13 and the phase flop
counts are *bit-identical* (the plan executes the same matvecs, only in
a different order).

Parity tolerance note: stacked GEMMs accumulate in a different order
than per-box matvecs.  The inversions are applied as their two SVD
factors, which keep that rounding noise in the small singular directions
the next evaluation damps, so the parity holds at the default ``rcond``
(measured <= 2e-15 on these cases at p = 4).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.core.plan import (
    BufferPool,
    build_near_blocks,
    build_plan,
    build_w_blocks,
    compile_plan,
    multi_arange,
    split_v_level,
)
from repro.geometry.distributions import corner_clusters, uniform_cube
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.derived import LaplaceDipoleKernel, LaplaceGradientKernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.octree.topology import octant_vectors
from repro.util.segments import chunk_segments

from tests.conftest import clustered_cloud, uniform_cloud
from tests.core.perbox import PerBoxFMM


def ellipse_surface(rng: np.random.Generator, n: int) -> np.ndarray:
    """Points on a 1 x 0.6 x 0.3 ellipsoid surface.

    Surface distributions are the paper's hard case (Section 4, the
    "nonuniform distribution on a sphere"): deep adaptive trees with
    populated W and X lists.
    """
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return d * np.array([1.0, 0.6, 0.3])


def _run_both(kernel, pts, phi, m2l, **kernel_roles):
    """Apply with the planned driver and the per-box oracle; return both."""
    out = {}
    opts = FMMOptions(p=4, max_points=25, m2l=m2l)
    for plan, make in (("batched", KIFMM), ("naive", PerBoxFMM)):
        fmm = make(kernel, opts, **kernel_roles).setup(pts)
        out[plan] = (fmm.apply(phi), fmm.flops.by_phase())
    return out


def _assert_parity(out):
    u_b, flops_b = out["batched"]
    u_n, flops_n = out["naive"]
    assert relative_error(u_b, u_n) < 1e-13
    # Same translations, same per-pair flop model: identical accounting.
    assert flops_b == flops_n


@pytest.mark.parametrize("m2l", ["dense"])
@pytest.mark.parametrize(
    "kernel", [LaplaceKernel(), StokesKernel(mu=0.7)], ids=["laplace", "stokes"]
)
@pytest.mark.parametrize("cloud", ["uniform", "ellipse"])
def test_planned_matches_naive(rng, cloud, kernel, m2l):
    n = 900
    pts = uniform_cloud(rng, n) if cloud == "uniform" else ellipse_surface(rng, n)
    phi = rng.standard_normal((n, kernel.source_dof))
    _assert_parity(_run_both(kernel, pts, phi, m2l))


def test_planned_matches_naive_gradient_target(rng):
    """Custom target role: gradients read out of a Laplace evaluator."""
    n = 700
    pts = ellipse_surface(rng, n)
    phi = rng.standard_normal((n, 1))
    _assert_parity(
        _run_both(
            LaplaceKernel(),
            pts,
            phi,
            "rsvd",
            target_kernel=LaplaceGradientKernel(),
        )
    )


def test_planned_matches_naive_dipole_source(rng):
    """Custom source role: dipole densities feeding a Laplace evaluator."""
    n = 700
    pts = ellipse_surface(rng, n)
    phi = rng.standard_normal((n, 3))  # dipole vectors
    _assert_parity(
        _run_both(
            LaplaceKernel(),
            pts,
            phi,
            "dense",
            source_kernel=LaplaceDipoleKernel(),
        )
    )


def test_planned_matches_naive_custom_stokes_roles(rng):
    """Stokes with a rescaled-viscosity source kernel (custom role path)."""
    n = 600
    pts = ellipse_surface(rng, n)
    phi = rng.standard_normal((n, 3))
    _assert_parity(
        _run_both(
            StokesKernel(mu=1.0),
            pts,
            phi,
            "rsvd",
            source_kernel=StokesKernel(mu=2.0),
        )
    )


def test_planned_accuracy_against_direct(rng):
    """The planned path vs O(N^2) truth."""
    n = 700
    pts = ellipse_surface(rng, n)
    phi = rng.standard_normal((n, 1))
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=6, max_points=40)).setup(pts)
    u = fmm.apply(phi)
    exact = direct_evaluate(LaplaceKernel(), pts, pts, phi)
    assert relative_error(u, exact) < 5e-4


def test_plan_statistics_exposed(rng):
    pts = ellipse_surface(rng, 800)
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=25)).setup(pts)
    stats = fmm.statistics()
    assert stats["plan_v_pairs"] > 0
    assert stats["plan_v_classes"] > 0
    assert stats["plan_v_parent_pairs"] > 0
    # Blocking groups pairs under parent pairs: strictly coarser.
    assert stats["plan_v_parent_pairs"] <= stats["plan_v_pairs"]


def test_po_groups_structure(rng):
    """Parent-pair rows index the extended (sentinel-padded) slabs."""
    pts = ellipse_surface(rng, 800)
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=25)).setup(pts)
    plan = fmm.state.plan
    assert plan is not None
    saw_group = False
    for vl in plan.v_levels:
        nsrc, ntrg = vl.src_boxes.size, vl.trg_boxes.size
        for po, src_rows, trg_rows in vl.po_groups:
            saw_group = True
            assert all(-1 <= c <= 1 for c in po)
            assert src_rows.shape == trg_rows.shape
            assert src_rows.shape[1] == 8
            # Row nsrc / ntrg is the zero/discard sentinel.
            assert src_rows.min() >= 0 and src_rows.max() <= nsrc
            assert trg_rows.min() >= 0 and trg_rows.max() <= ntrg
            # Each target parent appears once per offset direction, so a
            # real target child row appears at most once in the group.
            real = trg_rows[trg_rows < ntrg]
            assert np.unique(real).size == real.size
    assert saw_group


def _block_pairs(vp, lo, sp, vl):
    """``(target row, source row)`` of ``vl`` reachable through the
    non-sentinel entries of one pass's blocks (source rows from ``lo``
    on are the pass's ``rows``; accumulator rows are the level's)."""
    pairs, ntrg = [], vl.trg_boxes.size
    for po, src, trg in vp.po_groups:
        # No block is all sentinel on either side.
        assert (src < sp.nrows - 1).any(axis=1).all()
        assert (trg < ntrg).any(axis=1).all()
        # A pass gathers only the source rows it reads itself.
        real = src[src < sp.nrows - 1]
        assert real.min() >= lo and real.max() < lo + vp.rows.size
        for ot in range(8):
            for os_ in range(8):
                off = 2 * np.array(po) + octant_vectors(3)[ot] - octant_vectors(3)[os_]
                if np.abs(off).max() < 2:
                    continue  # adjacent: no slot
                m = (trg[:, ot] < ntrg) & (src[:, os_] < sp.nrows - 1)
                pairs += zip(
                    trg[m, ot].tolist(), vp.rows[src[m, os_] - lo].tolist()
                )
    assert len(set(pairs)) == len(pairs)
    return set(pairs)


@pytest.mark.parametrize("cloud", [uniform_cloud, clustered_cloud])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_po_groups_partition_the_level(cloud, seed):
    """The own and the ghost blocks of a split cover each pair of the
    level exactly once, for any ownership mask."""
    rng = np.random.default_rng(seed)
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=3, max_points=12))
    plan = fmm.setup(cloud(rng, 500)).state.plan
    assert plan.v_levels
    for vl in plan.v_levels:
        nsb = vl.src_boxes.size
        for src_own in (
            rng.random(nsb) < 0.5,          # a rank
            np.ones(nsb, dtype=bool),       # one rank
            np.zeros(nsb, dtype=bool),      # no source owned
        ):
            sp = split_v_level(vl, src_own, blocked=True)
            own = _block_pairs(sp.own, 0, sp, vl)
            ghost = _block_pairs(sp.ghost, sp.own.rows.size, sp, vl)
            assert not own & ghost
            for vp, pairs, mine in (
                (sp.own, own, src_own), (sp.ghost, ghost, ~src_own)
            ):
                assert pairs == {
                    (t, s)
                    for _, spos, tpos in vp.classes
                    for s, t in zip(spos.tolist(), tpos.tolist())
                }
                assert all(mine[s] for t, s in pairs)
            assert own | ghost == {
                (t, s)
                for _, spos, tpos in vl.classes
                for s, t in zip(spos.tolist(), tpos.tolist())
            }
            unblocked = split_v_level(vl, src_own, blocked=False)
            assert not unblocked.own.po_groups + unblocked.ghost.po_groups


def test_multi_arange():
    starts = np.array([0, 5, 9, 9])
    stops = np.array([3, 8, 9, 12])
    got = multi_arange(starts, stops)
    want = np.array([0, 1, 2, 5, 6, 7, 9, 10, 11])
    assert np.array_equal(got, want)
    assert multi_arange(np.array([4]), np.array([4])).size == 0
    assert multi_arange(np.array([]), np.array([])).size == 0


def test_chunk_segments():
    seg = np.array([0, 10, 25, 30, 90, 95])
    runs = chunk_segments(seg, 40)
    # Runs cover all segments exactly once, in order.
    assert runs[0][0] == 0 and runs[-1][1] == len(seg) - 1
    assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
    for lo, hi in runs:
        if hi - lo > 1:  # multi-segment runs respect the cap
            assert seg[hi] - seg[lo] <= 40
    # An oversized single segment still gets its own run.
    assert (3, 4) in runs


def test_run_bounds():
    from repro.util.segments import run_bounds

    values = np.array([4, 4, 9, 2, 2, 2, 7])
    assert run_bounds(values).tolist() == [0, 2, 3, 6, 7]
    assert run_bounds(np.array([5])).tolist() == [0, 1]
    assert run_bounds(np.array([], dtype=np.int64)).tolist() == [0]


def _two_clusters(n, rng):
    half = n // 2
    return np.vstack([
        rng.uniform(0.0, 0.12, (half, 3)),
        rng.uniform(0.88, 1.0, (n - half, 3)),
    ])


@pytest.mark.parametrize(
    "maker", [uniform_cube, corner_clusters, _two_clusters],
    ids=["uniform", "corners", "two-clusters"],
)
def test_grouping_without_unique_matches_unique(maker):
    """The plan's box sets and near blocks, written with run boundaries
    and box masks, are what ``np.unique`` + ``searchsorted`` + ``add.at``
    gave — on the three point sets of ``benchmarks/bitwise_grid.py``."""
    from repro.octree import build_lists, build_tree

    tree = build_tree(maker(3000, np.random.default_rng(12)), max_points=40)
    lists = build_lists(tree)
    plan, near = compile_plan(tree, lists)
    topo = tree.topology
    nb = topo.nboxes
    trg, src = lists.pairs("V")
    keep = (topo.ntrg[trg] > 0) & (topo.nsrc[src] > 0)
    trg, src = trg[keep], src[keep]
    assert plan.v_levels
    for vl in plan.v_levels:
        m = topo.level[trg] == vl.level
        t, s = trg[m], src[m]
        assert np.array_equal(vl.src_boxes, np.unique(s))
        assert np.array_equal(vl.trg_boxes, np.unique(t))
        pairs = {
            (int(vl.trg_boxes[tp]), int(vl.src_boxes[sp]))
            for _, spos, tpos in vl.classes
            for sp, tp in zip(spos.tolist(), tpos.tolist())
        }
        assert pairs == set(zip(t.tolist(), s.tolist()))
        parent_pairs = np.unique(topo.parent[t] * nb + topo.parent[s])
        assert sum(len(rows) for _, rows, _ in vl.po_groups) == parent_pairs.size

    def unique_blocks(t, s, weights):
        boxes = np.unique(t)
        counts = np.zeros(boxes.size, dtype=np.int64)
        np.add.at(counts, np.searchsorted(boxes, t), weights)
        return boxes, np.concatenate([[0], np.cumsum(counts)]), np.unique(s)

    (ut, us), (wt, ws) = near.u, near.w
    for keep in (np.arange(nb) % 2 == 0, np.ones(nb, bool), np.zeros(nb, bool)):
        mu, mw = keep[us], keep[ws]
        ub, wb = near.blocks(keep)
        got = build_near_blocks(
            ut[mu], us[mu], near.p_start, near.p_stop,
            near.trg_start, near.trg_stop,
        )
        for blocks in (ub, got):
            boxes, seg, partners = unique_blocks(
                ut[mu], us[mu], (near.p_stop - near.p_start)[us[mu]]
            )
            assert np.array_equal(blocks.boxes, boxes)
            assert np.array_equal(blocks.seg, seg) and blocks.seg.dtype == np.int64
            assert np.array_equal(blocks.partners, partners)
        boxes, seg, partners = unique_blocks(wt[mw], ws[mw], 1)
        for blocks in (wb, build_w_blocks(wt[mw], ws[mw], near.trg_start, near.trg_stop)):
            assert np.array_equal(blocks.boxes, boxes)
            assert np.array_equal(blocks.seg, seg) and blocks.seg.dtype == np.int64
            assert np.array_equal(blocks.partners, partners)


def test_buffer_pool_reuse():
    pool = BufferPool()
    a = pool.zeros("x", (4, 5))
    a[...] = 7.0
    b = pool.zeros("x", (2, 3))  # smaller request reuses the same storage
    assert b.shape == (2, 3) and not b.any()
    c = pool.empty("x", (4, 5))
    assert np.shares_memory(b, c)
    d = pool.zeros("x", (8, 8))  # grow
    assert d.shape == (8, 8) and not d.any()
    # Distinct dtypes are distinct buffers.
    z = pool.zeros("x", (4,), np.complex128)
    assert z.dtype == np.complex128
    assert pool.nbytes() >= 8 * 8 * 8 + 4 * 16


def test_plan_builds_for_single_leaf(rng):
    """Degenerate tree (root is a leaf): empty V/W/X, U covers everything."""
    pts = uniform_cloud(rng, 20)
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=64)).setup(pts)
    plan = fmm.state.plan
    assert plan is not None
    assert not plan.v_levels or all(vl.npairs == 0 for vl in plan.v_levels)
    phi = rng.standard_normal((20, 1))
    u = fmm.apply(phi)
    exact = direct_evaluate(LaplaceKernel(), pts, pts, phi)
    assert relative_error(u, exact) < 1e-12  # pure U-list: direct sums


def test_options_validation():
    with pytest.raises(ValueError, match="inner"):
        FMMOptions(inner=1.0)  # must be strictly > 1
    with pytest.raises(ValueError, match="inner"):
        FMMOptions(inner=2.9, outer=2.9)  # inner < outer strictly
    with pytest.raises(ValueError, match="inner"):
        FMMOptions(outer=3.0)  # must be strictly < 3
    # The defaults and a legal custom pair survive.
    FMMOptions()
    FMMOptions(inner=1.2, outer=2.8)


def test_build_plan_matches_lists(rng):
    """Total V pairs in the plan == the V-list census from the tree."""
    pts = ellipse_surface(rng, 600)
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=25)).setup(pts)
    plan = build_plan(fmm.tree, fmm.lists)
    nv = fmm.lists.counts()["V"]
    assert sum(vl.npairs for vl in plan.v_levels) == nv
