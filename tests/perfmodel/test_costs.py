"""Work model tests — the decisive one compares against the evaluator.

``compute_work`` must agree with the flop counter of the *actual*
evaluator run on the same tree: the performance model then provably
times the work the implementation performs.
"""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel, StokesKernel
from repro.octree import build_lists, build_tree
from repro.perfmodel.costs import communication_volumes, compute_work

from tests.conftest import clustered_cloud, uniform_cloud


@pytest.mark.parametrize("m2l", ["dense", "rsvd", "auto"])
@pytest.mark.parametrize("cloud", ["uniform", "clustered"])
def test_work_matches_evaluator_flops(rng, m2l, cloud):
    kernel = LaplaceKernel()
    pts = (
        uniform_cloud(rng, 500) if cloud == "uniform" else clustered_cloud(rng, 500)
    )
    p = 4
    opts = FMMOptions(p=p, max_points=25, m2l=m2l)
    fmm = KIFMM(kernel, opts).setup(pts)
    fmm.apply(rng.standard_normal((500, 1)))
    measured = fmm.flops.by_phase()
    model = compute_work(
        fmm.tree, fmm.lists, kernel, p, m2l=fmm.m2l_schedule,
        rsvd_rank=fmm.cache.m2l_rsvd_rank,
    ).totals()
    # Every phase agrees bitwise: all per-stage terms are integer-valued
    # floats, so float summation is exact and the model is an identity
    # with the evaluator's counter — the same identity `repro plancheck`
    # certifies statically.  (The model's FFT terms have no executed
    # counterpart; tests/perfmodel/test_reference_model.py certifies
    # them against the per-box walk.)
    for phase, value in model.items():
        assert value == measured.get(phase, 0.0), phase


def test_vector_kernel_scales_work(rng):
    pts = uniform_cloud(rng, 400)
    tree = build_tree(pts, max_points=30)
    lists = build_lists(tree)
    w_s = compute_work(tree, lists, StokesKernel(), 4).total
    w_l = compute_work(tree, lists, LaplaceKernel(), 4).total
    assert w_s > 3 * w_l  # the paper's Stokes-costs-more observation


def test_count_override(rng):
    """Scaled global counts scale the particle-dependent work."""
    pts = uniform_cloud(rng, 300)
    tree = build_tree(pts, max_points=30)
    lists = build_lists(tree)
    kernel = LaplaceKernel()
    base = compute_work(tree, lists, kernel, 4)
    nsrc = tree.topology.nsrc * 2.0
    ntrg = tree.topology.ntrg * 2.0
    scaled = compute_work(
        tree, lists, kernel, 4, global_nsrc=nsrc, global_ntrg=ntrg
    )
    # U-list work is quadratic in the per-leaf count
    assert scaled.down_u.sum() == pytest.approx(4 * base.down_u.sum())


def test_rejects_bad_m2l(rng):
    tree = build_tree(uniform_cloud(rng, 100), max_points=30)
    lists = build_lists(tree)
    with pytest.raises(ValueError):
        compute_work(tree, lists, LaplaceKernel(), 4, m2l="nope")
    # "auto" is a picker policy, not a backend: the flop model needs the
    # resolved schedule (resolution requires an operator cache)
    with pytest.raises(ValueError):
        compute_work(tree, lists, LaplaceKernel(), 4, m2l="auto")


def test_rsvd_requires_rank_callable(rng):
    tree = build_tree(uniform_cloud(rng, 400), max_points=25)
    lists = build_lists(tree)
    with pytest.raises(ValueError, match="rsvd_rank"):
        compute_work(tree, lists, LaplaceKernel(), 4, m2l="rsvd")


def test_communication_volumes_duality(rng):
    """Equiv users come from V/W lists; source users from U/X lists."""
    tree = build_tree(clustered_cloud(rng, 500), max_points=20)
    lists = build_lists(tree)
    equiv_uses, source_uses, equiv_bytes, source_bytes = communication_volumes(
        tree, lists, LaplaceKernel(), 4
    )
    counts = lists.counts()
    assert equiv_uses[0].size == counts["V"] + counts["W"]
    nleaves = int(tree.topology.is_leaf.sum())  # a leaf's own U entry is no use
    assert source_uses[0].size == counts["X"] + counts["U"] - nleaves
    assert np.all(equiv_bytes > 0)
    # source bytes proportional to leaf population
    assert np.array_equal(source_bytes, 8.0 * tree.topology.nsrc * 4)
