"""Octree edge cases beyond the main construction tests."""

import numpy as np
import pytest

from repro.octree import build_lists, build_tree
from repro.octree.lists import verify_lists

from tests import boxview


class TestDegenerateInputs:
    def test_single_point(self):
        tree = build_tree(np.array([[0.5, 0.5, 0.5]]), max_points=10)
        assert tree.nboxes == 1
        lists = build_lists(tree)
        verify_lists(tree, lists)

    def test_two_coincident_points(self):
        pts = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
        tree = build_tree(pts, max_points=1, max_depth=4)
        # coincident points cannot be separated: the depth cap applies
        assert tree.depth <= 4
        leaf_src = np.concatenate([tree.src_indices(i) for i in boxview.leaves(tree)])
        assert sorted(leaf_src.tolist()) == [0, 1]

    def test_collinear_points(self, rng):
        t = rng.random(200)
        pts = np.stack([t, 0.5 * np.ones_like(t), 0.5 * np.ones_like(t)], axis=1)
        tree = build_tree(pts, max_points=20)
        lists = build_lists(tree)
        verify_lists(tree, lists)
        # a line along x refines essentially one-dimensionally: children
        # per box never exceed 2 occupied octants beyond the root level
        for b in boxview.boxes(tree):
            if not b.is_leaf and b.level >= 1:
                assert len(b.children) <= 2

    def test_extreme_aspect_cloud(self, rng):
        pts = rng.random((300, 3)) * np.array([100.0, 1.0, 0.01])
        tree = build_tree(pts, max_points=25)
        # bounding cube side must cover the largest extent
        assert tree.root_side >= 99.0
        leaf_src = np.concatenate([tree.src_indices(i) for i in boxview.leaves(tree)])
        assert len(leaf_src) == 300

    def test_zero_sources_with_targets(self, rng):
        src = rng.random((50, 3))
        trg = rng.random((0, 3))
        tree = build_tree(src, trg, max_points=10)
        assert tree.topology.ntrg[0] == 0
        for i in boxview.leaves(tree):
            assert tree.trg_points(i).shape == (0, 3)

    def test_duplicated_cloud(self, rng):
        """Many exact duplicates: sort stability and range math hold."""
        base = rng.random((40, 3))
        pts = np.repeat(base, 5, axis=0)
        tree = build_tree(pts, max_points=8, max_depth=6)
        leaf_src = np.concatenate([tree.src_indices(i) for i in boxview.leaves(tree)])
        assert sorted(leaf_src.tolist()) == list(range(200))


class TestNonFiniteCoordinates:
    """A NaN coordinate used to cast to an arbitrary Morton cell (a
    21-box tree, ``root_side = 1.0``, a ``RuntimeWarning`` and a silently
    wrong apply); every setup path now names the first offending point
    before a key is computed."""

    BAD = (np.nan, np.inf, -np.inf)

    @staticmethod
    def _poisoned(rng, value, n=200, at=37):
        pts = rng.uniform(-1.0, 1.0, (n, 3))
        pts[at, 1] = value
        pts[at + 5, 2] = value  # the *first* bad point is reported
        return pts

    @pytest.mark.parametrize("value", BAD)
    def test_build_tree_names_sources_and_targets(self, rng, value):
        bad, good = self._poisoned(rng, value), rng.uniform(-1.0, 1.0, (50, 3))
        with pytest.raises(ValueError, match=r"sources contain .* point 37 "):
            build_tree(bad)
        with pytest.raises(ValueError, match=r"targets contain .* point 37 "):
            build_tree(good, bad)
        with pytest.raises(ValueError, match=r"sources contain .* point 37 "):
            build_tree(bad, good, root=(np.full(3, -1.0), 2.0))

    @pytest.mark.parametrize("value", BAD)
    def test_every_setup_path_raises_the_same_error(self, rng, value):
        from repro.bie.stokes_bie import StokesSingleLayer
        from repro.bie.surfaces import SphereSurface
        from repro.core.fmm import FMMOptions, KIFMM
        from repro.kernels import LaplaceKernel
        from repro.parallel.pfmm import ParallelFMM

        bad = self._poisoned(rng, value)
        message = r"sources contain a non-finite coordinate: point 37 "
        opts = FMMOptions(p=3, max_points=30)
        with pytest.raises(ValueError, match=message):
            KIFMM(LaplaceKernel(), opts).setup(bad)
        with pytest.raises(ValueError, match=message):
            ParallelFMM(2, LaplaceKernel(), opts).setup(bad)
        for ranks in (0, 2):
            sphere = SphereSurface(np.zeros(3), 1.0, 120)
            op = StokesSingleLayer([sphere], options=opts, parallel_ranks=ranks)
            sphere.points[37, 1] = value
            with pytest.raises(ValueError, match=message):
                op.refresh_geometry()

    @pytest.mark.parametrize("value", BAD)
    def test_ranks_given_local_points_raise_too(self, rng, value):
        from repro.parallel.ptree import agree_root_cube, parallel_build_tree
        from repro.parallel.simmpi import PerRank, run_spmd

        bad = self._poisoned(rng, value)
        halves = [bad[:100], bad[100:]]
        with pytest.raises(ValueError, match=r"rank 0's sources contain .* point 37 "):
            run_spmd(
                2, lambda comm, pts: parallel_build_tree(comm, pts),
                PerRank(halves),
            )
        with pytest.raises(ValueError, match=r"non-finite coordinate: the ranks'"):
            run_spmd(2, agree_root_cube, PerRank(halves))
        with pytest.raises(ValueError, match="no rank contributed any points"):
            run_spmd(2, agree_root_cube, PerRank([bad[:0], bad[:0]]))


class TestOneValidation:
    """Every builder and every setup path runs the one validation of
    ``build_global_tree``.  ``parallel_build_tree`` used to check nothing:
    ``ParallelFMM(2, k, FMMOptions(max_depth=0))`` built a root-only tree
    and applied in O(N^2), ``max_depth=25`` died in a rank thread with an
    ``OverflowError`` from a negative bit shift."""

    @pytest.mark.parametrize("nranks", [1, 2])
    @pytest.mark.parametrize("max_depth", [0, 25])
    def test_every_setup_path_rejects_a_bad_depth(self, rng, max_depth, nranks):
        from repro.core.fmm import FMMOptions, KIFMM
        from repro.kernels import LaplaceKernel
        from repro.parallel.pfmm import ParallelFMM, rank_setup
        from repro.parallel.ptree import parallel_build_tree
        from repro.parallel.simmpi import PerRank, run_spmd

        pts = np.repeat(rng.uniform(-1.0, 1.0, (4, 3)), 50, axis=0)
        halves = PerRank(np.array_split(pts, nranks))
        message = rf"max_depth must be in \[1, 21\], got {max_depth}"
        with pytest.raises(ValueError, match=message):
            FMMOptions(max_depth=max_depth)
        # Past ``__post_init__`` (options are mutable): the builders check.
        opts = FMMOptions(p=3, max_points=30)
        opts.max_depth = max_depth
        with pytest.raises(ValueError, match=message):
            build_tree(pts, max_depth=max_depth)
        with pytest.raises(ValueError, match=message):
            KIFMM(LaplaceKernel(), opts).setup(pts)
        with pytest.raises(ValueError, match=message):
            ParallelFMM(nranks, LaplaceKernel(), opts).setup(pts)
        with pytest.raises(ValueError, match=message):
            run_spmd(
                nranks, lambda comm, p: rank_setup(comm, LaplaceKernel(), p, opts),
                halves,
            )
        with pytest.raises(ValueError, match=message):
            run_spmd(
                nranks,
                lambda comm, p: parallel_build_tree(comm, p, max_depth=max_depth),
                halves,
            )

    def test_ranks_check_shapes_and_leaf_capacity(self, rng):
        from repro.parallel.ptree import parallel_build_tree
        from repro.parallel.simmpi import single_rank_comm

        comm, pts = single_rank_comm(), rng.uniform(-1.0, 1.0, (20, 3))
        shape = r"must be \(n, 2\) or \(n, 3\)"
        with pytest.raises(ValueError, match=r"rank 0's sources " + shape):
            parallel_build_tree(comm, np.hstack([pts, pts[:, :1]]))
        with pytest.raises(ValueError, match=r"rank 0's targets " + shape):
            parallel_build_tree(comm, pts, pts.ravel())
        with pytest.raises(ValueError, match=r"rank 0's targets are 2-D"):
            parallel_build_tree(comm, pts, pts[:, :2])
        with pytest.raises(ValueError, match="max_points must be >= 1, got 0"):
            parallel_build_tree(comm, pts, max_points=0)

    def test_zero_points_is_a_named_error(self):
        """Was numpy's "zero-size array to reduction operation minimum
        which has no identity" from the bounding cube."""
        from repro.core.fmm import KIFMM
        from repro.kernels import LaplaceKernel

        none = np.empty((0, 3))
        with pytest.raises(ValueError, match="no rank contributed any points"):
            build_tree(none)
        with pytest.raises(ValueError, match="no rank contributed any points"):
            build_tree(none, none)
        with pytest.raises(ValueError, match="no rank contributed any points"):
            KIFMM(LaplaceKernel()).setup(none)


class TestListsAfterEdgeCases:
    def test_fmm_on_line_distribution(self, rng):
        from repro.core.fmm import FMMOptions, KIFMM
        from repro.kernels import LaplaceKernel
        from repro.kernels.direct import direct_evaluate, relative_error

        t = rng.random(400)
        pts = np.stack([t, 0.3 + 0.01 * rng.random(400), 0.5 * np.ones(400)],
                       axis=1)
        phi = rng.standard_normal((400, 1))
        fmm = KIFMM(LaplaceKernel(), FMMOptions(p=6, max_points=20)).setup(pts)
        u = fmm.apply(phi)
        exact = direct_evaluate(LaplaceKernel(), pts, pts, phi)
        assert relative_error(u, exact) < 1e-3


class TestDimensionMismatch:
    """A kernel of one dimension on points of the other is one named
    error from the one validation, before a root cube or a key exists."""

    CASES = [("laplace", 2), ("laplace2d", 3)]

    @staticmethod
    def _kernel(name):
        from repro.kernels import Laplace2DKernel, LaplaceKernel

        return {"laplace": LaplaceKernel, "laplace2d": Laplace2DKernel}[name]()

    @pytest.mark.parametrize("name, dim", CASES)
    def test_every_setup_path_names_both_dimensions(
        self, rng, monkeypatch, name, dim
    ):
        from repro.core.fmm import FMMOptions, KIFMM
        from repro.kernels.direct import direct_evaluate
        from repro.octree import tree as tree_module
        from repro.parallel.pfmm import ParallelFMM
        from repro.serve.service import OperatorRegistry

        def never(*args, **kwargs):
            raise AssertionError("a root cube was computed")

        monkeypatch.setattr(tree_module, "_root_cube", never)
        kernel = self._kernel(name)
        pts = rng.uniform(-1.0, 1.0, (50, dim))
        message = (
            rf"dimension mismatch: sources are {dim}-D points but the "
            rf"kernel is {kernel.dim}-D"
        )
        opts = FMMOptions(p=3, max_points=10)
        with pytest.raises(ValueError, match=message):
            KIFMM(kernel, opts).setup(pts)
        with pytest.raises(ValueError, match=message):
            ParallelFMM(2, kernel, opts).setup(pts)
        with pytest.raises(ValueError, match=message):
            OperatorRegistry().register(kernel, pts, opts)
        with pytest.raises(ValueError, match=message.replace("sources", "targets")):
            direct_evaluate(kernel, pts, pts, np.ones(50 * kernel.source_dof))
