"""The array-code performance model against its per-box oracle.

``repro.perfmodel`` computes per-box work, rank ownership and traffic
as segment sums, binary searches and difference arrays over
``TreeTopology`` and the CSR lists; ``reference_model`` is the box-by-box
walk it replaced.  Work arrays must agree *exactly* (integer-valued
floats below 2**53 sum exactly in any order); rank times to round-off.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.m2lschedule import M2LSchedule
from repro.kernels import LaplaceKernel, StokesKernel
from repro.octree import build_lists, build_tree
from repro.perfmodel import TCS1, simulate_run, tree_top_model
from repro.perfmodel.costs import communication_volumes, compute_work
from repro.perfmodel.simulate import PHASES, _box_rank_intervals, _leaf_ranks

from tests.conftest import clustered_cloud, uniform_cloud
from tests.perfmodel import reference_model as reference


def _two_clusters(rng, n):
    centers = np.array([[0.2, 0.2, 0.2], [0.8, 0.7, 0.6]])
    return np.vstack([c + 0.05 * rng.standard_normal((n // 2, 3)) for c in centers])


def _point_sets(rng):
    """name -> (sources, targets or ``None`` for sources = targets)."""
    half = rng.uniform(0.0, 0.5, size=(2000, 3))
    return {
        "uniform": (uniform_cloud(rng, 1500), None),
        "corner": (clustered_cloud(rng, 1500), None),
        "two-cluster": (_two_clusters(rng, 1200), None),
        # the tree of the ownership defect: no leaf holds both kinds
        "disjoint-targets": (half, 0.5 + rng.uniform(0.0, 0.5, size=(2000, 3))),
        "mixed-targets": (uniform_cloud(rng, 900), 0.6 * uniform_cloud(rng, 700)),
    }


TREE_KINDS = ("uniform", "corner", "two-cluster", "disjoint-targets", "mixed-targets")


@pytest.fixture(scope="module")
def trees():
    out = {}
    for name, (src, trg) in _point_sets(np.random.default_rng(2003)).items():
        tree = build_tree(src, trg, max_points=30)
        out[name] = (tree, build_lists(tree))
    return out


def _synthetic_rank(level, offset):
    """A rank per (level, offset) class that tells the classes apart,
    signs included, without building an operator."""
    assert all(type(o) is int for o in (level, *offset))
    return 40 + level + offset[0] + 2 * offset[1] + 3 * offset[2]


def _synthetic_inverse_rank(name, level):
    """A kept rank per inversion and level, below the full 56 at p = 4."""
    assert name in ("uc2ue", "dc2de") and type(level) is int
    return 30 + level + 5 * (name == "dc2de")


def _schedules(depth):
    mixed = {lvl: ("fft", "rsvd", "dense")[lvl % 3] for lvl in range(2, depth + 1)}
    return {
        "fft": "fft",
        "dense": "dense",
        "rsvd": "rsvd",
        "mixed": M2LSchedule(mode="auto", dtype="float64", backends=mixed),
    }


def _rank_arguments(tree):
    """What plancheck passes for one rank of a parallel run: local
    counts for the upward pass, global ones for the partners."""
    topo = tree.topology
    cut_src, cut_trg = tree.sources.shape[0] // 2, tree.targets.shape[0] // 3

    def below(start, stop, cut):
        return np.minimum(stop, cut) - np.minimum(start, cut)

    return dict(
        up_nsrc=below(topo.src_start, topo.src_stop, cut_src),
        global_nsrc=topo.nsrc,
        global_ntrg=below(topo.trg_start, topo.trg_stop, cut_trg),
    )


def _assert_same_work(got, want):
    for phase in PHASES:
        assert np.array_equal(getattr(got, phase), getattr(want, phase)), phase


@pytest.mark.parametrize("nrhs", [1, 4])
@pytest.mark.parametrize("m2l", ["fft", "dense", "rsvd", "mixed"])
@pytest.mark.parametrize("kind", TREE_KINDS)
def test_work_arrays_equal_the_walk(trees, kind, m2l, nrhs):
    tree, lists = trees[kind]
    kernel = StokesKernel() if kind == "two-cluster" else LaplaceKernel()
    sched = _schedules(tree.depth)[m2l]
    for rank_args, inverse in (
        ({}, None), (_rank_arguments(tree), _synthetic_inverse_rank)
    ):
        args = dict(
            m2l=sched, nrhs=nrhs, rsvd_rank=_synthetic_rank,
            inverse_rank=inverse, **rank_args,
        )
        _assert_same_work(
            compute_work(tree, lists, kernel, 4, **args),
            reference.compute_work(tree, lists, kernel, 4, **args),
        )


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_communication_volumes_equal_the_walk(trees, kind):
    tree, lists = trees[kind]
    got = communication_volumes(tree, lists, StokesKernel(), 4, nrhs=3)
    want = reference.communication_volumes(tree, lists, StokesKernel(), 4, nrhs=3)
    for (box, user), per_box in zip(got[:2], want[:2]):
        users = [set() for _ in range(tree.nboxes)]
        for b, u in zip(box.tolist(), user.tolist()):
            users[b].add(u)
        assert box.size == sum(len(u) for u in per_box)  # no pair twice
        assert users == [set(u) for u in per_box]
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


def _assert_close(got, want, what):
    assert np.allclose(got, want, rtol=1e-12, atol=0.0), what


@pytest.mark.parametrize("P", [1, 3, 8, 64, 5000])
@pytest.mark.parametrize("kind", ["uniform", "corner", "two-cluster"])
def test_run_report_matches_the_walk(trees, kind, P):
    """Sources = targets trees, where the walk's ownership is right."""
    tree, lists = trees[kind]
    kernel = LaplaceKernel()
    work = compute_work(tree, lists, kernel, 4)
    args = (tree, lists, kernel, 4, P, TCS1)
    got = simulate_run(*args, work=work, grain_scale=3.3)
    want = reference.simulate_run(*args, work=work, grain_scale=3.3)
    assert (got.P, got.N, got.kernel) == (want.P, want.N, want.kernel)
    for name in ("rank_seconds", "rank_phase_seconds", "rank_comm_seconds",
                 "total_flops", "tree_seconds"):
        _assert_close(getattr(got, name), getattr(want, name), name)
    for name in ("phase_seconds", "phase_flops"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.keys() == b.keys()
        for key in a:
            _assert_close(a[key], b[key], (name, key))
    got, want = (
        model(*args, work=work, nrhs=1)
        for model in (tree_top_model, reference.tree_top_model)
    )
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, float):
            _assert_close(a, b, field.name)
        else:
            assert a == b, field.name


@pytest.mark.parametrize("P", [1, 8, 64, 100_000])
@pytest.mark.parametrize("kind", ["uniform", "disjoint-targets", "mixed-targets"])
def test_ownership_follows_the_morton_leaf_order(trees, kind, P):
    """Every leaf's interval is exactly its rank and every parent's the
    hull of its children's — whatever mix of sources and targets the
    leaves hold.  (Keyed on source ranges, the disjoint tree put 277 of
    605 leaves on an interval that was not their rank at P = 8.)"""
    tree, lists = trees[kind]
    topo = tree.topology
    leaves, rank = _leaf_ranks(tree, P)
    if P == 100_000:
        assert P > leaves.size  # the idle-ranks case
    assert np.array_equal(np.sort(leaves), np.flatnonzero(topo.is_leaf))
    assert np.all(np.diff(rank) >= 0) and rank.min() >= 0 and rank.max() < P
    lo, hi = _box_rank_intervals(tree, leaves, rank)
    assert np.array_equal(lo[leaves], rank) and np.array_equal(hi[leaves], rank)
    hull_lo, hull_hi = np.full(topo.nboxes, P), np.full(topo.nboxes, -1)
    np.minimum.at(hull_lo, topo.parent[1:], lo[1:])
    np.maximum.at(hull_hi, topo.parent[1:], hi[1:])
    inner = ~topo.is_leaf
    assert np.array_equal(lo[inner], hull_lo[inner])
    assert np.array_equal(hi[inner], hull_hi[inner])
    # what the fix is for: the model's flops sit on the ranks that own them
    run = simulate_run(tree, lists, LaplaceKernel(), 4, P, TCS1)
    assert run.rank_seconds.shape == (P,) and np.isfinite(run.rank_seconds).all()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t, l, k: compute_work(t, l, k, 4, nrhs=-1), "nrhs must be >= 1"),
        (lambda t, l, k: compute_work(t, l, k, 4, nrhs=0), "nrhs must be >= 1"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2, TCS1, grain_scale=float("nan")),
         "grain_scale must be finite and positive"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2, TCS1, grain_scale=float("inf")),
         "grain_scale must be finite and positive"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2, TCS1, grain_scale=-1.0),
         "grain_scale must be finite and positive"),
        (lambda t, l, k: simulate_run(t, l, k, 4, 2.5, TCS1), "P must be an integer >= 1"),
        (lambda t, l, k: simulate_run(t, l, k, 4, -3, TCS1), "P must be an integer >= 1"),
        (lambda t, l, k: tree_top_model(t, l, k, 4, 2.5, TCS1), "P must be an integer >= 1"),
    ],
)
def test_model_inputs_are_validated(trees, call, message):
    tree, lists = trees["uniform"]
    with pytest.raises(ValueError, match=message):
        call(tree, lists, LaplaceKernel())
