"""Unit tests of the building blocks the rank driver shares with KIFMM."""

import numpy as np

from repro.core.evaluator import PlanStages
from repro.core.plan import build_plan
from repro.core.precompute import OperatorCache
from repro.kernels import LaplaceKernel
from repro.octree import build_lists, build_tree

from tests.conftest import clustered_cloud


class TestOctant:
    """The plan's octant numbering (keys of the M2M / L2L operators)."""

    def _groups(self, rng):
        tree = build_tree(rng.uniform(-1, 1, (200, 3)), max_points=20)
        plan = build_plan(tree, build_lists(tree))
        groups = [g for ul in plan.up_levels for g in ul.m2m_groups]
        groups += [g for dl in plan.down_levels for g in dl.l2l_groups]
        assert groups
        return tree, groups

    def test_all_children_distinct(self, rng):
        tree, groups = self._groups(rng)
        for octant, kids, _ in groups:
            assert 0 <= octant < 8
            # one group holds at most one child of any parent
            parents = tree.topology.parent[kids]
            assert np.unique(parents).size == parents.size

    def test_matches_anchor_parity(self, rng):
        tree, groups = self._groups(rng)
        for o, kids, _ in groups:
            for axis in range(3):
                assert np.all(tree.topology.anchor[kids, axis] & 1 == (o >> axis) & 1)


def _upward(tree, kernel, cache, phi):
    """The shared upward stage alone: ``ue[box]`` of one density."""
    plan = build_plan(tree, build_lists(tree))
    stages = PlanStages(
        plan, kernel, cache, (kernel, kernel, kernel), None,
        plan.sources_sorted,
    )
    ue = np.zeros((plan.nboxes, 1, cache.n_surf * kernel.source_dof))
    sorted_phi = phi[tree.src_perm].reshape(-1, kernel.source_dof, 1)
    for ul in plan.up_levels:
        check = np.zeros((1, ul.boxes.size, cache.n_surf * kernel.target_dof))
        stages.s2m(ul, sorted_phi, check)
        stages.m2m(ul, ue, check)
        stages.uc2ue(ul, check, ue)
    return ue[:, 0]


class TestUpwardLocal:
    def test_full_data_matches_sequential_densities(self, rng):
        """One rank holding everything: partial densities are the global
        equivalent densities the sequential evaluator would build."""
        kernel = LaplaceKernel()
        pts = clustered_cloud(rng, 400)
        phi = rng.standard_normal((400, 1))
        tree = build_tree(pts, max_points=25)
        cache = OperatorCache(kernel, 4, tree.root_side)
        ue = _upward(tree, kernel, cache, phi)
        # compare a leaf's density against a direct S2M computation
        topo = tree.topology
        leaf = np.flatnonzero(topo.is_leaf)[0]
        level = int(topo.level[leaf])
        K = kernel.matrix(
            cache.up_check_points(tree.center(leaf), level),
            tree.src_points(leaf),
        )
        expected = cache.uc2ue(level) @ (
            K @ phi[tree.src_indices(leaf)].reshape(-1)
        )
        assert np.allclose(ue[leaf], expected)
        # every box with sources has a density
        assert np.array_equal(ue.any(axis=1), topo.nsrc > 0)

    def test_linearity_of_partials(self, rng):
        """Partial densities are linear in the local sources — the
        property the owner-side summation relies on."""
        kernel = LaplaceKernel()
        pts = clustered_cloud(rng, 300)
        tree = build_tree(pts, max_points=25)
        cache = OperatorCache(kernel, 4, tree.root_side)
        p1 = rng.standard_normal((300, 1))
        p2 = rng.standard_normal((300, 1))
        ue1 = _upward(tree, kernel, cache, p1)
        ue2 = _upward(tree, kernel, cache, p2)
        ue12 = _upward(tree, kernel, cache, p1 + p2)
        assert np.allclose(ue12, ue1 + ue2, atol=1e-12)
