"""Stokes BIE tests against analytic solutions."""

import numpy as np
import pytest

from repro.bie import (
    SphereSurface,
    StokesSingleLayer,
    drag_force,
    resistance_matrix,
    solve_single_layer,
    stokes_drag_analytic,
)
from repro.core.fmm import FMMOptions

from tests.conftest import count_factorisations


@pytest.fixture(scope="module")
def unit_sphere_op():
    s = SphereSurface(np.zeros(3), 1.0, 400)
    return StokesSingleLayer([s], mu=1.0, use_fmm=False)


class TestOperator:
    def test_constant_density_gives_constant_velocity(self, unit_sphere_op):
        """Single layer of uniform density over a sphere: u = 2R/(3mu) f."""
        op = unit_sphere_op
        f = np.tile([0.0, 0.0, 1.0], (op.n, 1))
        u = op.matvec(f.ravel()).reshape(op.n, 3)
        expected = 2.0 / 3.0  # 2R/(3 mu) with R = mu = 1
        assert np.allclose(u[:, 2], expected, rtol=0.02)
        assert np.allclose(u[:, :2], 0.0, atol=0.01)

    def test_matvec_linear(self, unit_sphere_op, rng):
        op = unit_sphere_op
        a = rng.standard_normal(3 * op.n)
        b = rng.standard_normal(3 * op.n)
        assert np.allclose(
            op.matvec(a + 2 * b), op.matvec(a) + 2 * op.matvec(b), atol=1e-12
        )

    def test_requires_surfaces(self):
        with pytest.raises(ValueError):
            StokesSingleLayer([], mu=1.0)


class TestStokesDrag:
    def test_translating_sphere_drag(self, unit_sphere_op):
        """Solve S phi = U and compare the force with 6 pi mu R U."""
        op = unit_sphere_op
        u_bc = np.tile([1.0, 0.0, 0.0], (op.n, 1))
        phi = solve_single_layer(op, u_bc, tol=1e-8)
        F = drag_force(op, phi, slice(0, op.n))
        exact = stokes_drag_analytic(1.0, 1.0, [1.0, 0.0, 0.0])
        assert F[0] == pytest.approx(exact[0], rel=0.02)
        assert np.abs(F[1:]).max() < 0.01 * exact[0]

    def test_density_matches_analytic(self, unit_sphere_op):
        """phi = 3 mu U / (2 R) uniformly for a translating sphere."""
        op = unit_sphere_op
        u_bc = np.tile([0.0, 1.0, 0.0], (op.n, 1))
        phi = solve_single_layer(op, u_bc, tol=1e-8)
        assert np.allclose(phi[:, 1].mean(), 1.5, rtol=0.02)

    def test_resistance_matrix_isotropic(self, unit_sphere_op):
        R = resistance_matrix(unit_sphere_op, 0, tol=1e-7)
        exact = 6 * np.pi
        assert np.allclose(np.diag(R), exact, rtol=0.02)
        off = R - np.diag(np.diag(R))
        assert np.abs(off).max() < 0.02 * exact

    def test_quadrature_convergence(self):
        """Drag error decreases as the surface is refined."""
        errs = []
        for n in (100, 400, 1600):
            s = SphereSurface(np.zeros(3), 1.0, n)
            op = StokesSingleLayer([s], mu=1.0, use_fmm=False)
            u_bc = np.tile([0.0, 0.0, 1.0], (n, 1))
            phi = solve_single_layer(op, u_bc, tol=1e-9)
            F = drag_force(op, phi, slice(0, n))
            errs.append(abs(F[2] - 6 * np.pi) / (6 * np.pi))
        assert errs[2] < errs[0]
        assert errs[2] < 0.01

    def test_viscosity_scaling(self):
        s = SphereSurface(np.zeros(3), 1.0, 200)
        op = StokesSingleLayer([s], mu=5.0, use_fmm=False)
        R = resistance_matrix(op, 0, tol=1e-7)
        assert R[0, 0] == pytest.approx(5.0 * 6 * np.pi, rel=0.03)


class TestFMMPath:
    def test_fmm_matvec_matches_direct(self, rng):
        s = SphereSurface(np.zeros(3), 1.0, 500)
        direct = StokesSingleLayer([s], mu=1.0, use_fmm=False)
        fmm = StokesSingleLayer(
            [s], mu=1.0, use_fmm=True, options=FMMOptions(p=6, max_points=60)
        )
        phi = rng.standard_normal(3 * 500)
        u_d = direct.matvec(phi)
        u_f = fmm.matvec(phi)
        assert np.linalg.norm(u_f - u_d) / np.linalg.norm(u_d) < 1e-4

    @pytest.mark.parametrize("parallel_ranks", [0, 2])
    def test_refresh_geometry_keeps_the_operators(self, rng, parallel_ranks):
        """A time step's moved surfaces reuse the previous step's precompute.

        The bounding cube changes with the geometry, so the operators
        are rescaled to it; nothing is factored again, and the matvec is
        that of an operator built cold on the moved surfaces.  p = 3:
        the rescaling's round-off passes through the regularised
        inversions, whose condition number puts it at 1e-12 from p = 4.
        """
        falling = SphereSurface(np.array([0.6, 0.0, 2.2]), 0.4, 200)
        held = SphereSurface(np.zeros(3), 1.0, 300)
        opts = FMMOptions(p=3, max_points=40, m2l="rsvd")
        op = StokesSingleLayer(
            [falling, held], options=opts, parallel_ranks=parallel_ranks
        )
        phi = rng.standard_normal(3 * op.n)
        op.matvec(phi)
        side = (op._pfmm or op._fmm).cache.root_side
        falling.translate(np.array([0.05, -0.02, 0.3]))
        with count_factorisations() as calls:
            op.refresh_geometry()
            moved = op.matvec(phi)
        assert calls == {"randomized_svd": 0, "truncated_svd": 0}
        assert (op._pfmm or op._fmm).cache.root_side != side
        cold = StokesSingleLayer(
            [falling, held], options=opts, parallel_ranks=parallel_ranks
        ).matvec(phi)
        assert np.linalg.norm(moved - cold) < 1e-12 * np.linalg.norm(cold)

    def test_two_bodies_interaction(self):
        """Drag on a sphere increases near another (held) sphere."""
        s1 = SphereSurface(np.array([0.0, 0, 0]), 1.0, 250)
        s2 = SphereSurface(np.array([3.0, 0, 0]), 1.0, 250)
        op = StokesSingleLayer([s1, s2], mu=1.0, use_fmm=False)
        n = op.n
        u_bc = np.zeros((n, 3))
        u_bc[: s1.n, 0] = 1.0  # body 1 translating, body 2 held
        phi = solve_single_layer(op, u_bc, tol=1e-7)
        F = drag_force(op, phi, op.body_slices()[0])
        # wall effect: force exceeds the isolated-sphere drag
        assert F[0] > 6 * np.pi * 1.01


class TestBlockMatvec:
    def test_block_forms_match_column_matvecs(self, unit_sphere_op, rng):
        op = unit_sphere_op
        n = op.n
        block3 = rng.standard_normal((n, 3, 4))
        flat = op.matvec(block3.reshape(3 * n, 4))
        assert flat.shape == (3 * n, 4)
        stacked = op.matvec(block3)
        assert np.array_equal(stacked, flat)
        wide = op.matvec(block3.reshape(n, 12))
        assert np.array_equal(wide.reshape(3 * n, 4), flat)
        for c in range(4):
            single = op.matvec(block3[:, :, c].ravel())
            err = np.linalg.norm(flat[:, c] - single) / np.linalg.norm(single)
            assert err < 1e-12

    def test_fmm_block_matvec_one_apply_per_block(self, rng):
        s = SphereSurface(np.zeros(3), 1.0, 400)
        op = StokesSingleLayer(
            [s], mu=1.0, use_fmm=True, options=FMMOptions(p=4, max_points=60)
        )
        before = op.matvec_count
        block = rng.standard_normal((3 * op.n, 5))
        out = op.matvec(block)
        assert out.shape == (3 * op.n, 5)
        assert op.matvec_count == before + 1  # one blocked evaluation
        for c in range(5):
            single = op.matvec(np.ascontiguousarray(block[:, c]))
            err = (np.linalg.norm(out[:, c] - single)
                   / np.linalg.norm(single))
            assert err < 1e-12

    def test_solve_block_matches_column_solves(self, unit_sphere_op):
        op = unit_sphere_op
        n = op.n
        U = np.zeros((n, 3, 2))
        U[:, 2, 0] = 1.0  # translation along z
        U[:, 0, 1] = 1.0  # translation along x
        res = op.solve_block(U, tol=1e-8)
        assert res.converged
        for c, direction in enumerate((2, 0)):
            single = solve_single_layer(
                op, U[:, :, c], tol=1e-8
            )
            diff = np.linalg.norm(res.x[:, c] - single.ravel())
            assert diff / np.linalg.norm(single) < 1e-6

    def test_solve_block_saves_matvecs(self, unit_sphere_op):
        op = unit_sphere_op
        n = op.n
        U = np.zeros((3 * n, 3))
        U[2::3, 0] = 1.0
        U[0::3, 1] = 1.0
        U[1::3, 2] = 1.0
        before = op.matvec_count
        res = op.solve_block(U, tol=1e-7)
        blocked = op.matvec_count - before
        assert res.converged
        before = op.matvec_count
        for c in range(3):
            op.solve(np.ascontiguousarray(U[:, c]), tol=1e-7)
        looped = op.matvec_count - before
        assert blocked < looped
