"""Interaction list invariants, including the completeness theorem.

The decisive test is *completeness*: for every (source leaf, target leaf)
pair, the interaction between their particles must be accounted for by
exactly one mechanism — U (direct), V (M2L at some ancestor pair), W
(source ancestor's equivalent density at the target leaf) or X (source
leaf onto some target ancestor's check surface).  Double counting or
omission would silently corrupt potentials.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distributions import corner_clusters, uniform_cube
from repro.octree import build_lists, build_tree
from repro.octree.lists import InteractionLists, verify_lists
from repro.parallel.partition import partition_points
from repro.parallel.ptree import parallel_build_tree
from repro.parallel.simmpi import PerRank, run_spmd

from tests import boxview
from tests.conftest import cloud, clustered_cloud, traced_peak, uniform_cloud
from tests.octree.reference_lists import build_lists_reference


def _ancestors_or_self(tree, i):
    parent = tree.topology.parent
    out = [i]
    while parent[out[-1]] >= 0:
        out.append(int(parent[out[-1]]))
    return out


def _coverage_count(tree, lists, src_leaf, trg_leaf):
    """How many mechanisms account for the (src_leaf, trg_leaf) pair."""
    count = 0
    src_anc = _ancestors_or_self(tree, src_leaf)
    trg_anc = _ancestors_or_self(tree, trg_leaf)
    # U: direct near interaction
    if src_leaf in set(lists.U[trg_leaf]):
        count += 1
    # V: M2L between some ancestor pair
    for b in trg_anc:
        vset = set(lists.V[b])
        for a in src_anc:
            if a in vset:
                count += 1
    # W: a source ancestor's upward density evaluated at the target leaf
    wset = set(lists.W[trg_leaf])
    for a in src_anc:
        if a in wset:
            count += 1
    # X: the source leaf's points onto a target ancestor's check surface
    for b in trg_anc:
        if src_leaf in set(lists.X[b]):
            count += 1
    return count


@pytest.mark.parametrize("cloud", ["uniform", "clustered"])
def test_completeness(rng, cloud):
    pts = (
        uniform_cloud(rng, 400) if cloud == "uniform" else clustered_cloud(rng, 400)
    )
    tree = build_tree(pts, max_points=15)
    lists = boxview.per_box(build_lists(tree))
    leaves = boxview.leaves(tree)
    for t in leaves:
        for s in leaves:
            assert _coverage_count(tree, lists, s, t) == 1, (
                f"pair (src={s}, trg={t}) covered "
                f"{_coverage_count(tree, lists, s, t)} times"
            )


@pytest.mark.parametrize("cloud", ["uniform", "clustered"])
def test_structural_invariants(rng, cloud):
    pts = (
        uniform_cloud(rng, 600) if cloud == "uniform" else clustered_cloud(rng, 600)
    )
    tree = build_tree(pts, max_points=20)
    lists = build_lists(tree)
    verify_lists(tree, lists)


def test_v_list_size_bound(rng):
    """At most 189 V-list entries (6^3 - 3^3) per box."""
    tree = build_tree(uniform_cloud(rng, 2000), max_points=20)
    lists = build_lists(tree)
    assert np.diff(lists.flat("V")[0]).max() <= 189


def test_uniform_tree_has_no_w_or_x(rng):
    """A perfectly level-balanced tree has empty W and X lists."""
    # regular grid of points -> uniform refinement
    g = np.linspace(0.05, 0.95, 8)
    pts = np.array(np.meshgrid(g, g, g)).reshape(3, -1).T
    tree = build_tree(pts, max_points=10)
    topo = tree.topology
    if np.unique(topo.level[topo.is_leaf]).size == 1:  # uniform refinement
        counts = build_lists(tree).counts()
        assert counts["W"] == counts["X"] == 0


def test_clustered_tree_has_w_and_x(rng):
    tree = build_tree(clustered_cloud(rng, 800), max_points=15)
    lists = build_lists(tree)
    counts = lists.counts()
    assert counts["W"] > 0
    assert counts["X"] > 0
    assert counts["W"] == counts["X"]  # duality pairs


def test_u_symmetry(rng):
    tree = build_tree(clustered_cloud(rng, 500), max_points=15)
    U = boxview.per_box(build_lists(tree)).U
    for i in boxview.leaves(tree):
        for j in U[i]:
            assert i in set(U[j]), f"U not symmetric for ({i}, {j})"


def test_single_box_tree(rng):
    tree = build_tree(uniform_cloud(rng, 5), max_points=60)
    lists = build_lists(tree)
    assert lists.flat("U")[1].tolist() == [0]
    assert lists.counts() == {"U": 1, "V": 0, "W": 0, "X": 0}


def test_counts_reports_totals(rng):
    tree = build_tree(uniform_cloud(rng, 300), max_points=20)
    lists = build_lists(tree)
    c = lists.counts()
    view = boxview.per_box(lists)
    assert c["U"] == sum(len(u) for u in view.U)
    assert c["V"] == sum(len(v) for v in view.V)


# -- the array construction against the per-box walk it replaced ------------


def _two_clusters(n, rng):
    """Two tight opposite-corner clusters (the bitwise grid's third set)."""
    half = n // 2
    return np.vstack([
        rng.uniform(0.0, 0.12, (half, 3)),
        rng.uniform(0.88, 1.0, (n - half, 3)),
    ])


def _sphere(n, rng):
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _coincident(n, rng):
    """A few distinct sites, so only ``max_depth`` stops the refinement."""
    return np.repeat(rng.uniform(-1.0, 1.0, (3, 3)), -(-n // 3), axis=0)[:n]


_CLOUDS = {
    "uniform": uniform_cube,
    "corners": corner_clusters,
    "two-clusters": _two_clusters,
    "sphere": _sphere,
    "coincident": _coincident,
}


def _assert_lists_equal_reference(tree):
    lists = build_lists(tree)
    ref = build_lists_reference(tree)
    for which in "UVWX":
        for got, want in zip(lists.flat(which), ref.flat(which)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want), f"{which} list differs"
    verify_lists(tree, lists)
    return lists


@st.composite
def adaptive_tree(draw):
    cloud = draw(st.sampled_from(sorted(_CLOUDS)))
    n = draw(st.integers(min_value=1, max_value=700))
    s = draw(st.sampled_from([1, 7, 60]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**20)))
    # max_points=1 on coincident points refines to the cap: keep it low
    # enough for the per-box reference, high enough to cross levels.
    depth_cap = draw(st.sampled_from([3, 6, 21])) if cloud != "coincident" else 6
    sources = _CLOUDS[cloud](n, rng)
    targets = None
    if draw(st.booleans()):
        targets = _CLOUDS[draw(st.sampled_from(sorted(_CLOUDS)))](
            draw(st.integers(min_value=1, max_value=300)), rng
        )
        # corner_clusters lives in [-1, 1], two-clusters in [0, 1]: any
        # mix is fine, the root cube covers both.
    return sources, targets, s, depth_cap


class TestArrayListsEqualReference:
    @given(adaptive_tree())
    @settings(max_examples=60, deadline=None)
    def test_any_adaptive_tree(self, case):
        sources, targets, s, depth_cap = case
        tree = build_tree(sources, targets, max_points=s, max_depth=depth_cap)
        _assert_lists_equal_reference(tree)

    @given(
        st.sampled_from(["uniform", "corners", "two-clusters"]),
        st.sampled_from([2, 4]),
        st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=8, deadline=None)
    def test_every_ranks_parallel_tree(self, cloud, nranks, seed):
        pts = _CLOUDS[cloud](600, np.random.default_rng(seed))
        parts = partition_points(pts, nranks)

        def main(comm, idx):
            return parallel_build_tree(comm, pts[idx], max_points=20)

        for ptree in run_spmd(nranks, main, PerRank(parts)):
            _assert_lists_equal_reference(ptree.tree)

    def test_fewer_points_than_a_leaf_holds(self, rng):
        lists = _assert_lists_equal_reference(build_tree(uniform_cloud(rng, 7)))
        assert lists.counts() == {"U": 1, "V": 0, "W": 0, "X": 0}

    def test_coincident_points_at_the_key_capacity(self):
        """Level-21 anchors: the uid of the deepest level fits a uint64."""
        pts = np.repeat([[0.3, 0.3, 0.3], [0.3, 0.3, 0.3000001]], 2, axis=0)
        tree = build_tree(pts, max_points=1)
        assert tree.depth == 21
        _assert_lists_equal_reference(tree)


class TestListsAreArrays:
    def test_per_box_views_are_read_only_and_flat_is_not_a_copy(self, rng):
        tree = build_tree(clustered_cloud(rng, 800), max_points=15)
        lists = build_lists(tree)
        views = boxview.per_box(lists)
        for which in "UVWX":
            ptr, idx = lists.flat(which)
            assert lists.flat(which)[0] is ptr and lists.flat(which)[1] is idx
            per_box = getattr(views, which)
            assert len(per_box) == tree.nboxes
            busiest = int(np.argmax(np.diff(ptr)))
            view = per_box[busiest]
            assert view.size and np.shares_memory(view, idx)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0
            with pytest.raises(ValueError):
                idx[0] = 0
        with pytest.raises(ValueError):
            lists.flat("Y")
        handed = {w: tuple(a.copy() for a in lists.flat(w)) for w in "UVWX"}
        stored = InteractionLists(handed)
        for which, (ptr, idx) in handed.items():
            assert stored.flat(which)[0] is ptr and stored.flat(which)[1] is idx
        assert stored.counts() == lists.counts()

    @pytest.mark.parametrize("n", [3_000, 30_000])
    def test_python_calls_do_not_grow_with_boxes(self, n):
        """``build_lists`` makes a few dozen Python-level calls per
        chunk of 4096 boxes and frontier round (104 at 3k points, 143
        at 30k); the per-box walk made 6 721 at 3k and about a million
        at 50k."""
        tree = build_tree(uniform_cube(n, np.random.default_rng(n)))
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            lists = build_lists(tree)
        finally:
            sys.setprofile(None)
        assert lists.counts()["V"] > 0
        assert calls <= 60 * (tree.depth + 1), (calls, tree.depth, tree.nboxes)

    def test_scratch_stays_bounded_at_50k(self):
        tree = build_tree(uniform_cube(50_000, np.random.default_rng(0)))
        peak, lists = traced_peak(lambda: build_lists(tree))
        assert lists.counts()["V"] > 600_000
        # 17 MB: 2 x 5 MB of V partners while the chunks are joined plus
        # one chunk's candidates.
        assert peak <= 32 * 2**20, f"{peak / 2**20:.1f} MB"


DIMS = pytest.mark.parametrize("dim", [2, 3])


class TestDimensions:
    """``build_lists`` in the plane: the same array construction, the
    ``(4, 36)`` far table, against the same per-box oracle."""

    @DIMS
    @pytest.mark.parametrize("clustered", [False, True])
    def test_equal_reference(self, rng, dim, clustered):
        tree = build_tree(cloud(rng, 500, dim, clustered), max_points=15)
        lists = _assert_lists_equal_reference(tree)
        counts = lists.counts()
        assert counts["W"] == counts["X"]

    @DIMS
    def test_v_list_bound(self, rng, dim):
        """At most ``6^d - 3^d`` V-list entries per box (27 in 2D)."""
        tree = build_tree(cloud(rng, 2000, dim), max_points=15)
        assert np.diff(build_lists(tree).flat("V")[0]).max() <= 6**dim - 3**dim

    @DIMS
    def test_u_symmetric(self, rng, dim):
        tree = build_tree(cloud(rng, 400, dim, clustered=True), max_points=15)
        U = boxview.per_box(build_lists(tree)).U
        for i in boxview.leaves(tree):
            for j in U[i]:
                assert i in set(U[j])

    @DIMS
    def test_completeness(self, rng, dim):
        tree = build_tree(cloud(rng, 300, dim, clustered=True), max_points=15)
        lists = boxview.per_box(build_lists(tree))
        leaves = boxview.leaves(tree)
        for t in leaves:
            for s in leaves:
                assert _coverage_count(tree, lists, s, t) == 1
