"""Adaptive octree construction invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.octree import build_tree
from repro.octree.topology import self_offset

from tests import boxview
from tests.boxview import Box, box_contains, boxes_adjacent
from tests.conftest import cloud, clustered_cloud, uniform_cloud


def _check_invariants(tree):
    """Structural invariants every tree must satisfy."""
    boxes, leaves = boxview.boxes(tree), boxview.leaves(tree)
    # root covers everything
    root = boxes[0]
    assert root.src_start == 0 and root.src_stop == tree.sources.shape[0]
    for b in boxes:
        # ranges are well-formed
        assert b.src_start <= b.src_stop
        assert b.trg_start <= b.trg_stop
        if b.parent >= 0:
            p = boxes[b.parent]
            assert p.level == b.level - 1
            assert box_contains(p, b)
        if not b.is_leaf:
            # children tile the parent's point ranges
            kids = [boxes[c] for c in b.children]
            assert sum(k.nsrc for k in kids) == b.nsrc
            assert sum(k.ntrg for k in kids) == b.ntrg
            for k in kids:
                assert k.parent == b.index
        # cell lookup agrees
        assert tree.topology.find(b.level, b.anchor) == b.index
    # every source index appears exactly once across leaves
    leaf_src = np.concatenate(
        [tree.src_indices(i) for i in leaves]
    ) if leaves else np.empty(0)
    assert sorted(leaf_src.tolist()) == list(range(tree.sources.shape[0]))
    # points geometrically inside their leaf
    for i in leaves:
        b = boxes[i]
        side = tree.root_side / (1 << b.level)
        lo = tree.root_corner + np.array(b.anchor) * side
        pts = tree.src_points(i)
        if pts.size:
            assert np.all(pts >= lo - 1e-9)
            assert np.all(pts <= lo + side + 1e-9)


class TestConstruction:
    def test_uniform_invariants(self, rng):
        tree = build_tree(uniform_cloud(rng, 800), max_points=30)
        _check_invariants(tree)

    def test_clustered_invariants(self, rng):
        tree = build_tree(clustered_cloud(rng, 800), max_points=25)
        _check_invariants(tree)
        assert tree.depth >= 3  # clustering forces deep refinement

    def test_leaf_capacity(self, rng):
        tree = build_tree(uniform_cloud(rng, 1000), max_points=40)
        topo = tree.topology
        assert topo.nsrc[topo.is_leaf].max() <= 40

    def test_single_box_when_few_points(self, rng):
        tree = build_tree(uniform_cloud(rng, 10), max_points=60)
        assert tree.nboxes == 1
        assert tree.topology.is_leaf[0]

    def test_max_depth_respected(self, rng):
        pts = np.zeros((100, 3))
        pts += rng.standard_normal((100, 3)) * 1e-12  # pathological cluster
        tree = build_tree(pts, max_points=10, max_depth=5)
        assert tree.depth <= 5

    def test_separate_targets(self, rng):
        src = uniform_cloud(rng, 300)
        trg = uniform_cloud(rng, 200) * 0.5
        tree = build_tree(src, trg, max_points=20)
        _check_invariants(tree)
        assert not tree.shared_points
        trg_leaf = np.concatenate([tree.trg_indices(i) for i in boxview.leaves(tree)])
        assert sorted(trg_leaf.tolist()) == list(range(200))

    def test_deterministic(self, rng):
        pts = uniform_cloud(rng, 500)
        t1 = build_tree(pts, max_points=30)
        t2 = build_tree(pts, max_points=30)
        assert t1.nboxes == t2.nboxes
        assert [b.anchor for b in boxview.boxes(t1)] == [b.anchor for b in boxview.boxes(t2)]

    def test_explicit_root(self, rng):
        pts = rng.random((100, 3)) * 0.5 + 0.25
        tree = build_tree(pts, max_points=10, root=(np.zeros(3), 1.0))
        assert tree.root_side == 1.0
        assert np.allclose(tree.root_corner, 0.0)

    def test_levels_ordering(self, rng):
        tree = build_tree(uniform_cloud(rng, 600), max_points=20)
        for level, ids in enumerate(boxview.levels(tree)):
            assert np.all(tree.topology.level[ids] == level)

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_any_point_count(self, n):
        pts = np.random.default_rng(n).random((n, 3))
        tree = build_tree(pts, max_points=17)
        _check_invariants(tree)

    def test_rejects_bad_input(self, rng):
        # (n, 2) is the quadtree now: four columns are no dimension.
        with pytest.raises(ValueError):
            build_tree(np.zeros((5, 4)))
        with pytest.raises(ValueError):
            build_tree(np.zeros((5, 3)), max_points=0)
        with pytest.raises(ValueError):
            build_tree(np.zeros((5, 3)), max_depth=0)


def _colleagues(tree):
    """Per box, the existing colleagues (itself included)."""
    coll = tree.topology.colleagues(np.arange(tree.nboxes))
    return [row[row >= 0].tolist() for row in coll]


class TestColleagues:
    def test_against_brute_force(self, rng):
        tree = build_tree(uniform_cloud(rng, 600), max_points=20)
        boxes = boxview.boxes(tree)
        for b, found in zip(boxes, _colleagues(tree)):
            expected = {
                o.index
                for o in boxes
                if o.level == b.level
                and all(abs(o.anchor[d] - b.anchor[d]) <= 1 for d in range(3))
            }
            assert set(found) == expected and len(found) == len(expected)

    def test_include_self(self, rng):
        tree = build_tree(uniform_cloud(rng, 200), max_points=20)
        coll = tree.topology.colleagues(np.arange(tree.nboxes))
        assert np.array_equal(coll[:, self_offset(3)], np.arange(tree.nboxes))
        assert not (np.delete(coll, self_offset(3), axis=1)
                    == np.arange(tree.nboxes)[:, None]).any()

    def test_colleagues_are_adjacent(self, rng):
        tree = build_tree(clustered_cloud(rng, 500), max_points=20)
        boxes = boxview.boxes(tree)
        for b, found in zip(boxes, _colleagues(tree)):
            for c in found:
                assert boxes_adjacent(boxes[c], b)


class TestGeometry:
    def test_center_and_half_width(self, rng):
        tree = build_tree(uniform_cloud(rng, 300), max_points=30)
        boxes = boxview.boxes(tree)
        root = boxes[0]
        assert np.allclose(
            tree.center(0), tree.root_corner + tree.root_side / 2
        )
        assert tree.half_width(0) == pytest.approx(tree.root_side / 2)
        for b in boxes:
            if b.parent >= 0:
                assert tree.half_width(b.index) == pytest.approx(
                    tree.half_width(b.parent) / 2
                )
        assert root.is_leaf or len(root.children) >= 1

    def test_statistics(self, rng):
        tree = build_tree(uniform_cloud(rng, 400), max_points=25)
        st_ = tree.statistics()
        assert st_["nboxes"] == tree.nboxes
        assert st_["nleaves"] == len(boxview.leaves(tree))
        assert st_["max_leaf_src"] <= 25


class TestAdjacency:
    def test_self_adjacent(self, rng):
        tree = build_tree(uniform_cloud(rng, 100), max_points=20)
        b = boxview.boxes(tree)[0]
        assert boxes_adjacent(b, b)

    def test_parent_child_adjacent(self, rng):
        tree = build_tree(uniform_cloud(rng, 300), max_points=20)
        boxes = boxview.boxes(tree)
        for b in boxes:
            if b.parent >= 0:
                assert boxes_adjacent(boxes[b.parent], b)

    def test_cross_level_adjacency(self):
        big = Box(0, 1, (0, 0, 0), -1, 0, 0, 0, 0)
        small_touching = Box(1, 2, (2, 0, 0), -1, 0, 0, 0, 0)
        small_far = Box(2, 2, (3, 3, 3), -1, 0, 0, 0, 0)
        assert boxes_adjacent(big, small_touching)
        assert not boxes_adjacent(big, small_far)


DIMS = pytest.mark.parametrize("dim", [2, 3])


class TestDimensions:
    """The quadtree is the octree code at ``dim = 2``: the dimension is
    the points' column count."""

    @DIMS
    @pytest.mark.parametrize("clustered", [False, True])
    def test_invariants(self, rng, dim, clustered):
        tree = build_tree(cloud(rng, 600, dim, clustered), max_points=25)
        _check_invariants(tree)
        topo = tree.topology
        assert tree.dim == topo.dim == dim
        assert topo.anchor.shape == (tree.nboxes, dim)
        assert topo.child.shape == (tree.nboxes, 1 << dim)
        assert topo.nsrc[topo.is_leaf].max() <= 25

    @DIMS
    def test_colleagues_brute_force(self, rng, dim):
        tree = build_tree(cloud(rng, 400, dim), max_points=20)
        boxes = boxview.boxes(tree)
        coll = tree.topology.colleagues(np.arange(tree.nboxes))
        assert coll.shape == (tree.nboxes, 3**dim)
        assert np.array_equal(coll[:, self_offset(dim)], np.arange(tree.nboxes))
        for b, found in zip(boxes, _colleagues(tree)):
            expected = {
                o.index
                for o in boxes
                if o.level == b.level
                and all(abs(o.anchor[d] - b.anchor[d]) <= 1 for d in range(dim))
            }
            assert set(found) == expected and len(found) == len(expected)

    @DIMS
    def test_rejects_bad_input(self, dim):
        with pytest.raises(ValueError, match=r"must be \(n, 2\) or \(n, 3\)"):
            build_tree(np.zeros((5, 4)))
        with pytest.raises(ValueError, match=r"must be \(n, 2\) or \(n, 3\)"):
            build_tree(np.zeros((5, 1)))
        with pytest.raises(ValueError):
            build_tree(np.zeros((5, dim)), max_points=0)
        with pytest.raises(ValueError, match="targets are"):
            build_tree(np.zeros((5, dim)), np.zeros((5, 5 - dim)))
