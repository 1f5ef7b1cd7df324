"""2:1 tree balancing tests."""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.octree import build_lists, build_tree
from repro.octree.balance import (
    balance_tree,
    balanced_split_set,
    max_adjacent_level_jump,
)
from repro.octree.lists import verify_lists

from tests import boxview
from tests.conftest import clustered_cloud, uniform_cloud


@pytest.fixture
def unbalanced(rng):
    """A strongly clustered cloud producing level jumps > 1."""
    pts = np.vstack(
        [
            np.zeros(3) + 1e-4 * np.abs(rng.standard_normal((120, 3))),
            rng.uniform(0, 1, size=(120, 3)),
        ]
    )
    return build_tree(pts, max_points=20)


class TestBalance:
    def test_unbalanced_input_has_jumps(self, unbalanced):
        assert max_adjacent_level_jump(unbalanced) > 1

    def test_balanced_tree_is_balanced(self, unbalanced):
        balanced = balance_tree(unbalanced)
        assert max_adjacent_level_jump(balanced) <= 1

    def test_split_set_is_superset(self, unbalanced):
        split = balanced_split_set(unbalanced)
        topo = unbalanced.topology
        assert np.isin(topo.uid[~topo.is_leaf], split).all()

    def test_points_preserved(self, unbalanced):
        balanced = balance_tree(unbalanced)
        seq = np.concatenate(
            [balanced.src_indices(i) for i in boxview.leaves(balanced)]
        )
        assert sorted(seq.tolist()) == list(range(unbalanced.sources.shape[0]))

    def test_more_boxes_smaller_lists(self, rng):
        """The balance trade-off: box count up, W/X lists bounded."""
        pts = clustered_cloud(rng, 800)
        tree = build_tree(pts, max_points=15)
        balanced = balance_tree(tree)
        assert balanced.nboxes >= tree.nboxes
        lists_b = build_lists(balanced)
        # with 2:1 balance every W box is exactly one level finer
        level = balanced.topology.level
        leaf, w = lists_b.pairs("W")
        assert np.array_equal(level[w], level[leaf] + 1)

    def test_lists_valid_on_balanced_tree(self, unbalanced):
        balanced = balance_tree(unbalanced)
        verify_lists(balanced, build_lists(balanced))

    def test_already_balanced_is_stable(self, rng):
        pts = uniform_cloud(rng, 500)
        tree = build_tree(pts, max_points=30)
        if max_adjacent_level_jump(tree) <= 1:
            balanced = balance_tree(tree)
            # no forced refinements beyond the original splits
            assert balanced.nboxes >= tree.nboxes
            assert max_adjacent_level_jump(balanced) <= 1


class TestFMMWithBalance:
    def test_same_potentials(self, rng):
        pts = clustered_cloud(rng, 500)
        phi = rng.standard_normal((500, 1))
        exact = direct_evaluate(LaplaceKernel(), pts, pts, phi)
        u_plain = KIFMM(
            LaplaceKernel(), FMMOptions(p=6, max_points=25)
        ).setup(pts).apply(phi)
        u_bal = KIFMM(
            LaplaceKernel(), FMMOptions(p=6, max_points=25, balance=True)
        ).setup(pts).apply(phi)
        assert relative_error(u_plain, exact) < 5e-4
        assert relative_error(u_bal, exact) < 5e-4

    def test_balance_flag_changes_tree(self, rng):
        pts = np.vstack(
            [
                np.zeros(3) + 1e-4 * np.abs(rng.standard_normal((120, 3))),
                rng.uniform(0, 1, size=(120, 3)),
            ]
        )
        fmm = KIFMM(
            LaplaceKernel(), FMMOptions(p=3, max_points=20, balance=True)
        ).setup(pts)
        assert max_adjacent_level_jump(fmm.tree) <= 1
