"""KIFMM with split source/target kernels: gradients and dipoles.

The decisive checks: the FMM with a gradient target kernel must match
the direct gradient summation, with a dipole source kernel the direct
dipole summation, and with both the combined sum — all using *only* the
translation kernel's equivalent densities internally.
"""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel, ModifiedLaplaceKernel
from repro.kernels.base import difference_planes
from repro.kernels.derived import (
    LaplaceDipoleKernel,
    LaplaceGradientKernel,
    ModifiedLaplaceDipoleKernel,
)
from repro.kernels.direct import direct_evaluate, relative_error

from tests.conftest import clustered_cloud, uniform_cloud


class TestGradientTargets:
    @pytest.mark.parametrize("cloud", ["uniform", "clustered"])
    def test_laplace_forces(self, rng, cloud):
        pts = (
            uniform_cloud(rng, 500)
            if cloud == "uniform"
            else clustered_cloud(rng, 500)
        )
        phi = rng.standard_normal((500, 1))
        grad_k = LaplaceGradientKernel()
        fmm = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=6, max_points=30),
            target_kernel=grad_k,
        ).setup(pts)
        g = fmm.apply(phi)
        exact = direct_evaluate(grad_k, pts, pts, phi)
        assert g.shape == (500, 3)
        assert relative_error(g, exact) < 5e-4

    def test_apply_gradient_convenience(self, rng):
        pts = uniform_cloud(rng, 400)
        phi = rng.standard_normal((400, 1))
        fmm = KIFMM(LaplaceKernel(), FMMOptions(p=6, max_points=30)).setup(pts)
        g = fmm.apply_gradient(phi)
        exact = direct_evaluate(LaplaceGradientKernel(), pts, pts, phi)
        assert relative_error(g, exact) < 5e-4
        # the plain potential still works on the same evaluator
        u = fmm.apply(phi)
        assert u.shape == (400, 1)

    def test_gradient_consistent_with_potential(self, rng):
        """FD of the FMM potential field matches the FMM gradient."""
        src = uniform_cloud(rng, 400)
        phi = rng.standard_normal((400, 1))
        x0 = np.array([0.05, -0.1, 0.02])
        h = 1e-5
        probes = np.vstack(
            [x0] + [x0 + s * h * e for e in np.eye(3) for s in (1, -1)]
        )
        fmm_u = KIFMM(LaplaceKernel(), FMMOptions(p=8, max_points=30)).setup(
            src, probes
        )
        u = fmm_u.apply(phi).ravel()
        fd = np.array([(u[1 + 2 * i] - u[2 + 2 * i]) / (2 * h) for i in range(3)])
        fmm_g = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=8, max_points=30),
            target_kernel=LaplaceGradientKernel(),
        ).setup(src, x0.reshape(1, 3))
        g = fmm_g.apply(phi).ravel()
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-6)


class TestDipoleSources:
    @pytest.mark.parametrize("cloud", ["uniform", "clustered"])
    def test_laplace_dipoles(self, rng, cloud):
        pts = (
            uniform_cloud(rng, 500)
            if cloud == "uniform"
            else clustered_cloud(rng, 500)
        )
        dipoles = rng.standard_normal((500, 3))
        dip_k = LaplaceDipoleKernel()
        fmm = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=6, max_points=30),
            source_kernel=dip_k,
        ).setup(pts)
        u = fmm.apply(dipoles)
        exact = direct_evaluate(dip_k, pts, pts, dipoles)
        assert u.shape == (500, 1)
        assert relative_error(u, exact) < 5e-4

    def test_modified_laplace_dipoles(self, rng):
        pts = uniform_cloud(rng, 400)
        dipoles = rng.standard_normal((400, 3))
        lam = 1.2
        dip_k = ModifiedLaplaceDipoleKernel(lam)
        fmm = KIFMM(
            ModifiedLaplaceKernel(lam),
            FMMOptions(p=6, max_points=30),
            source_kernel=dip_k,
        ).setup(pts)
        u = fmm.apply(dipoles)
        exact = direct_evaluate(dip_k, pts, pts, dipoles)
        assert relative_error(u, exact) < 1e-3


class TestCombined:
    def test_dipole_sources_gradient_targets(self, rng):
        """Both custom: needs an explicit direct (hessian-style) kernel.

        For the test we use well-separated sources and targets so the U
        list is empty of cross terms... actually simpler: provide the
        true direct kernel via composition of finite differences is
        impractical, so we check the disjoint-sets case where the direct
        kernel is still required but exercised too.
        """

        class _DipoleToGradient(LaplaceDipoleKernel):
            """d . grad_y grad_x G: the Laplace Hessian contraction."""

            name = "laplace_dipole_gradient"
            source_dof = 3
            target_dof = 3
            flops_per_pair = 40

            def matrix(self, targets, sources):
                planes, r2 = difference_planes(targets, sources)
                diff, inv_r = np.moveaxis(planes, 0, -1), 1.0 / np.sqrt(r2)
                nt, ns = inv_r.shape
                inv_r3 = inv_r**3
                inv_r5 = inv_r**5
                # H_ij = d/dx_i d/dy_j G = (delta_ij r^2 - 3 r_i r_j)/(4 pi r^5)
                rr = np.einsum("tsi,tsj->tsij", diff, diff)
                H = -3.0 * rr * inv_r5[:, :, None, None]
                idx = np.arange(3)
                H[:, :, idx, idx] += inv_r3[:, :, None]
                H /= 4.0 * np.pi
                return H.transpose(0, 2, 1, 3).reshape(nt * 3, ns * 3)

        pts = uniform_cloud(rng, 400)
        dipoles = rng.standard_normal((400, 3))
        hess = _DipoleToGradient()
        fmm = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=6, max_points=30),
            source_kernel=LaplaceDipoleKernel(),
            target_kernel=LaplaceGradientKernel(),
            direct_kernel=hess,
        ).setup(pts)
        g = fmm.apply(dipoles)
        exact = direct_evaluate(hess, pts, pts, dipoles)
        assert relative_error(g, exact) < 1e-3

    def test_both_custom_without_direct_raises(self, rng):
        pts = uniform_cloud(rng, 100)
        fmm = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=3, max_points=30),
            source_kernel=LaplaceDipoleKernel(),
            target_kernel=LaplaceGradientKernel(),
        ).setup(pts)
        with pytest.raises(ValueError, match="direct_kernel"):
            fmm.apply(np.zeros((100, 3)))


class TestValidation:
    def test_incompatible_source_kernel(self, rng):
        pts = uniform_cloud(rng, 100)
        fmm = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=3, max_points=30),
            source_kernel=LaplaceGradientKernel(),  # wrong: target_dof 3
        ).setup(pts)
        with pytest.raises(ValueError, match="source_kernel"):
            fmm.apply(np.zeros((100, 1)))

    def test_incompatible_target_kernel(self, rng):
        pts = uniform_cloud(rng, 100)
        fmm = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=3, max_points=30),
            target_kernel=LaplaceDipoleKernel(),  # wrong: source_dof 3
        ).setup(pts)
        with pytest.raises(ValueError, match="target_kernel"):
            fmm.apply(np.zeros((100, 1)))

    def test_apply_gradient_with_custom_kernels_raises(self, rng):
        pts = uniform_cloud(rng, 50)
        fmm = KIFMM(
            LaplaceKernel(),
            FMMOptions(p=3, max_points=30),
            source_kernel=LaplaceDipoleKernel(),
        ).setup(pts)
        with pytest.raises(RuntimeError):
            fmm.apply_gradient(np.zeros((50, 3)))
