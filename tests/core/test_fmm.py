"""End-to-end KIFMM accuracy and API tests."""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import direct_evaluate, relative_error

from tests.conftest import clustered_cloud, uniform_cloud


class TestAccuracy:
    def test_all_kernels_uniform(self, rng, kernel):
        """Kernel independence: the same code path for every kernel."""
        pts = uniform_cloud(rng, 600)
        phi = rng.standard_normal((600, kernel.source_dof))
        fmm = KIFMM(kernel, FMMOptions(p=6, max_points=40)).setup(pts)
        u = fmm.apply(phi)
        exact = direct_evaluate(kernel, pts, pts, phi)
        assert relative_error(u, exact) < 5e-4

    def test_all_kernels_clustered(self, rng, kernel):
        """Adaptive path: deep trees, W and X lists exercised."""
        pts = clustered_cloud(rng, 600)
        phi = rng.standard_normal((600, kernel.source_dof))
        fmm = KIFMM(kernel, FMMOptions(p=6, max_points=30)).setup(pts)
        u = fmm.apply(phi)
        exact = direct_evaluate(kernel, pts, pts, phi)
        assert relative_error(u, exact) < 5e-4

    def test_p_refinement_converges(self, rng):
        """Accuracy is controlled by p (the paper's accuracy knob)."""
        kernel = LaplaceKernel()
        pts = uniform_cloud(rng, 500)
        phi = rng.standard_normal((500, 1))
        exact = direct_evaluate(kernel, pts, pts, phi)
        errs = []
        for p in (2, 4, 6):
            u = KIFMM(kernel, FMMOptions(p=p, max_points=40)).setup(pts).apply(phi)
            errs.append(relative_error(u, exact))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-4

    def test_disjoint_targets(self, rng):
        kernel = LaplaceKernel()
        src = uniform_cloud(rng, 400)
        trg = rng.uniform(-0.4, 0.4, size=(250, 3))
        phi = rng.standard_normal((400, 1))
        fmm = KIFMM(kernel, FMMOptions(p=6, max_points=25)).setup(src, trg)
        u = fmm.apply(phi)
        exact = direct_evaluate(kernel, trg, src, phi)
        assert relative_error(u, exact) < 5e-4

    def test_paper_target_accuracy(self, rng):
        """The paper's experiments run at relative error 1e-5."""
        kernel = LaplaceKernel()
        pts = uniform_cloud(rng, 800)
        phi = rng.random((800, 1))  # densities in [0, 1] as in Section 4
        fmm = KIFMM(kernel, FMMOptions(p=6, max_points=60)).setup(pts)
        u = fmm.apply(phi)
        exact = direct_evaluate(kernel, pts, pts, phi)
        assert relative_error(u, exact) < 1e-5


class TestSemantics:
    def test_linearity(self, rng):
        kernel = LaplaceKernel()
        pts = uniform_cloud(rng, 300)
        fmm = KIFMM(kernel, FMMOptions(p=4, max_points=30)).setup(pts)
        p1 = rng.standard_normal((300, 1))
        p2 = rng.standard_normal((300, 1))
        u = fmm.apply(p1 + 3 * p2)
        assert np.allclose(u, fmm.apply(p1) + 3 * fmm.apply(p2), atol=1e-12)

    def test_zero_density_zero_potential(self, rng):
        fmm = KIFMM(LaplaceKernel(), FMMOptions(p=3, max_points=20)).setup(
            uniform_cloud(rng, 200)
        )
        assert np.all(fmm.apply(np.zeros((200, 1))) == 0.0)

    def test_repeated_apply_consistent(self, rng):
        """Setup is reused across evaluations (the Krylov-loop pattern)."""
        fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=25)).setup(
            uniform_cloud(rng, 300)
        )
        phi = rng.standard_normal((300, 1))
        assert np.array_equal(fmm.apply(phi), fmm.apply(phi))

    def test_flat_density_accepted(self, rng):
        kernel = StokesKernel()
        pts = uniform_cloud(rng, 100)
        fmm = KIFMM(kernel, FMMOptions(p=3, max_points=30)).setup(pts)
        phi = rng.standard_normal((100, 3))
        assert np.allclose(fmm.apply(phi), fmm.apply(phi.ravel()))

    def test_matvec_flattens(self, rng):
        kernel = StokesKernel()
        pts = uniform_cloud(rng, 80)
        fmm = KIFMM(kernel, FMMOptions(p=3, max_points=30)).setup(pts)
        phi = rng.standard_normal((80, 3))
        assert fmm.matvec(phi).shape == (240,)

    def test_small_problem_single_box(self, rng):
        """N <= s: everything goes through the root U list."""
        kernel = LaplaceKernel()
        pts = uniform_cloud(rng, 30)
        phi = rng.standard_normal((30, 1))
        fmm = KIFMM(kernel, FMMOptions(p=4, max_points=60)).setup(pts)
        exact = direct_evaluate(kernel, pts, pts, phi)
        assert relative_error(fmm.apply(phi), exact) < 1e-12


class TestAPI:
    def test_apply_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            KIFMM(LaplaceKernel()).apply(np.zeros((5, 1)))

    def test_statistics(self, rng):
        fmm = KIFMM(LaplaceKernel(), FMMOptions(p=4, max_points=25)).setup(
            uniform_cloud(rng, 300)
        )
        fmm.apply(rng.standard_normal((300, 1)))
        stats = fmm.statistics()
        assert stats["nboxes"] > 1
        assert stats["U_list"] > 0
        assert stats["flops"]["up"] > 0
        assert "tree" in stats["seconds"]

    def test_statistics_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            KIFMM(LaplaceKernel()).statistics()

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FMMOptions(p=1)
        with pytest.raises(ValueError):
            FMMOptions(max_points=0)
        with pytest.raises(ValueError):
            FMMOptions(m2l="magic")

    def test_setup_returns_self(self, rng):
        fmm = KIFMM(LaplaceKernel(), FMMOptions(p=3, max_points=30))
        assert fmm.setup(uniform_cloud(rng, 50)) is fmm
