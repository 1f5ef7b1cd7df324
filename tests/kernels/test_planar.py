"""The plane's kernels (``dim = 2``): values, PDEs, shapes."""

import numpy as np
import pytest

from repro.kernels import (
    Laplace2DKernel,
    ModifiedLaplace2DKernel,
    Stokes2DKernel,
)


class TestLaplace2D:
    def test_point_value(self):
        k = Laplace2DKernel()
        x = np.array([[np.e, 0.0]])  # r = e -> -log r / 2pi = -1/2pi
        y = np.zeros((1, 2))
        assert k.matrix(x, y)[0, 0] == pytest.approx(-1.0 / (2 * np.pi))

    def test_unit_circle_zero(self):
        k = Laplace2DKernel()
        x = np.array([[1.0, 0.0]])
        assert k.matrix(x, np.zeros((1, 2)))[0, 0] == pytest.approx(0.0)

    def test_harmonic(self):
        """FD Laplacian of -log(r)/2pi vanishes off the pole."""
        k = Laplace2DKernel()
        y = np.zeros((1, 2))
        x0 = np.array([0.7, 0.4])
        h = 1e-5

        def u(p):
            return k.matrix(p.reshape(1, 2), y)[0, 0]

        lap = sum(
            u(x0 + h * e) + u(x0 - h * e) - 2 * u(x0) for e in np.eye(2)
        ) / h**2
        assert abs(lap) < 1e-4

    def test_coincident_zero(self):
        pts = np.array([[0.3, 0.4]])
        assert Laplace2DKernel().matrix(pts, pts)[0, 0] == 0.0

    def test_symmetry(self, rng):
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal((5, 2)) + 3.0
        k = Laplace2DKernel()
        assert np.allclose(k.matrix(x, y), k.matrix(y, x).T)


class TestModifiedLaplace2D:
    def test_pde(self):
        """FD check of lam^2 u - Delta u = 0 for K0(lam r)/2pi."""
        lam = 1.4
        k = ModifiedLaplace2DKernel(lam)
        y = np.zeros((1, 2))
        x0 = np.array([0.8, -0.3])
        h = 1e-4

        def u(p):
            return k.matrix(p.reshape(1, 2), y)[0, 0]

        lap = sum(
            u(x0 + h * e) + u(x0 - h * e) - 2 * u(x0) for e in np.eye(2)
        ) / h**2
        assert lam**2 * u(x0) - lap == pytest.approx(0.0, abs=1e-4)

    def test_exponential_decay(self):
        k = ModifiedLaplace2DKernel(1.0)
        y = np.zeros((1, 2))
        near = k.matrix(np.array([[1.0, 0]]), y)[0, 0]
        far = k.matrix(np.array([[10.0, 0]]), y)[0, 0]
        assert far < near * 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            ModifiedLaplace2DKernel(lam=-1.0)


class TestStokes2D:
    def test_incompressibility(self):
        k = Stokes2DKernel()
        y = np.zeros((1, 2))
        f = np.array([0.6, -0.8])
        x0 = np.array([0.9, 0.5])
        h = 1e-5

        def u(p):
            return k.matrix(p.reshape(1, 2), y) @ f

        div = sum(
            (u(x0 + h * e)[i] - u(x0 - h * e)[i]) / (2 * h)
            for i, e in enumerate(np.eye(2))
        )
        assert abs(div) < 1e-6

    def test_block_shape_and_symmetry(self, rng):
        k = Stokes2DKernel()
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((4, 2)) + 3.0
        K = k.matrix(x, y)
        assert K.shape == (6, 8)
        single = k.matrix(x[:1], y[:1])
        assert np.allclose(single, single.T)

    def test_viscosity_scaling(self, rng):
        x = rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2)) + 2.0
        K1 = Stokes2DKernel(mu=1.0).matrix(x, y)
        K2 = Stokes2DKernel(mu=2.0).matrix(x, y)
        assert np.allclose(K2, K1 / 2.0)


class TestInterface:
    def test_apply_matches_matrix(self, rng):
        k = Stokes2DKernel()
        x = rng.standard_normal((6, 2))
        y = rng.standard_normal((5, 2))
        phi = rng.standard_normal((5, 2))
        assert np.allclose(
            k.apply(x, y, phi, block=2).ravel(), k.matrix(x, y) @ phi.ravel()
        )

    def test_rejects_3d_points(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Laplace2DKernel().matrix(np.zeros((3, 3)), np.zeros((3, 2)))

    def test_declarations(self):
        """Dimension 2, no homogeneity (the logarithm shifts under
        scaling), the square's symmetries, no compiled profile."""
        for k in (Laplace2DKernel(), ModifiedLaplace2DKernel(), Stokes2DKernel()):
            assert k.dim == 2 and k.homogeneity is None
            assert k.profile() is None
        assert Laplace2DKernel().symmetry == "scalar"
        assert ModifiedLaplace2DKernel().symmetry == "scalar"
        stokes = Stokes2DKernel()
        assert stokes.symmetry == "tensor"
        assert stokes.source_dof == stokes.target_dof == 2
