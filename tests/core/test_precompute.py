"""Operator cache tests: shapes, homogeneous rescaling, validation."""

import itertools

import numpy as np
import pytest

from repro.core.precompute import (
    OperatorCache,
    canonical_offset,
    octant_offset,
)
from repro.core.surfaces import n_surface_points
from repro.kernels import (
    Laplace2DKernel,
    LaplaceKernel,
    ModifiedLaplaceKernel,
    Stokes2DKernel,
    StokesKernel,
)
from repro.kernels.base import Kernel, difference_planes

from tests.conftest import count_factorisations

#: Every V-list offset: components in [-3, 3], at least one of size >= 2.
V_OFFSETS = [
    o for o in itertools.product(range(-3, 4), repeat=3)
    if max(abs(c) for c in o) >= 2
]


def _fresh_cache(kernel, p=4, root=2.0, **kw):
    return OperatorCache(kernel, p, root, **kw)


def _formed(factors):
    """The pseudo-inverse an inversion's factor pair ``(u, w)`` applies."""
    u, w = factors
    return w.T @ u.T


class TestOctantOffset:
    def test_all_octants_distinct(self):
        offsets = {tuple(octant_offset(c, 3)) for c in range(8)}
        assert len(offsets) == 8

    def test_magnitude(self):
        for c in range(8):
            assert np.all(np.abs(octant_offset(c, 3)) == 0.5)

    def test_bit_convention(self):
        assert np.allclose(octant_offset(0, 3), [-0.5, -0.5, -0.5])
        assert np.allclose(octant_offset(1, 3), [0.5, -0.5, -0.5])
        assert np.allclose(octant_offset(2, 3), [-0.5, 0.5, -0.5])
        assert np.allclose(octant_offset(4, 3), [-0.5, -0.5, 0.5])

    def test_rejects_bad_octant(self):
        with pytest.raises(ValueError):
            octant_offset(8, 3)
        with pytest.raises(ValueError):
            octant_offset(-1, 3)


class TestShapes:
    @pytest.mark.parametrize(
        "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
    )
    def test_operator_shapes(self, kernel):
        p = 4
        n = n_surface_points(p, 3)
        m, q = kernel.source_dof, kernel.target_dof
        cache = _fresh_cache(kernel, p=p)
        for u, w in (cache.uc2ue(2), cache.dc2de(2)):
            assert u.shape == (n * q, n * m) and w.shape == (n * m, n * m)
        assert cache.m2m_check(2, 3).shape == (n * q, n * m)
        assert cache.l2l_check(2, 5).shape == (n * q, n * m)
        assert cache.m2l_check(2, (2, 0, -1)).shape == (n * q, n * m)

    def test_surface_points(self):
        cache = _fresh_cache(LaplaceKernel(), p=4, root=2.0)
        c = np.array([0.5, 0.5, 0.5])
        r = cache.half_width(1)  # 0.5
        up_e = cache.up_equiv_points(c, 1)
        up_c = cache.up_check_points(c, 1)
        assert np.abs(up_e - c).max() == pytest.approx(cache.inner * r)
        assert np.abs(up_c - c).max() == pytest.approx(cache.outer * r)
        dn_e = cache.down_equiv_points(c, 1)
        dn_c = cache.down_check_points(c, 1)
        assert np.abs(dn_e - c).max() == pytest.approx(cache.outer * r)
        assert np.abs(dn_c - c).max() == pytest.approx(cache.inner * r)


class TestHomogeneousScaling:
    """Scaled operators must equal direct computation at that level."""

    @pytest.mark.parametrize(
        "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
    )
    def test_scaling_matches_direct(self, kernel):
        p = 3
        cache = _fresh_cache(kernel, p=p)
        # force direct computation by masquerading as inhomogeneous
        direct = _fresh_cache(kernel, p=p)
        direct.kernel = _Inhomog(kernel)
        for level in (1, 3):
            assert np.allclose(
                _formed(cache.uc2ue(level)), _formed(direct.uc2ue(level)),
                atol=1e-10,
            )
            assert np.allclose(
                _formed(cache.dc2de(level)), _formed(direct.dc2de(level))
            )
            assert np.allclose(
                cache.m2l_check(level, (0, 2, 0)),
                direct.m2l_check(level, (0, 2, 0)),
            )
        for child_level in (1, 2):
            for octant in (0, 7):
                assert np.allclose(
                    cache.m2m_check(child_level, octant),
                    direct.m2m_check(child_level, octant),
                )
                assert np.allclose(
                    cache.l2l_check(child_level, octant),
                    direct.l2l_check(child_level, octant),
                )

    def test_inhomogeneous_kernel_differs_by_level(self):
        cache = _fresh_cache(ModifiedLaplaceKernel(lam=2.0), p=3)
        m0 = cache.m2l_check(1, (2, 0, 0))
        m1 = cache.m2l_check(3, (2, 0, 0))
        # no scalar multiple relates the two levels
        ratio = m1 / m0
        assert ratio.std() / abs(ratio.mean()) > 1e-3


class _Inhomog:
    """Wrapper hiding a kernel's homogeneity (forces per-level compute)."""

    def __init__(self, kernel):
        self._k = kernel
        self.homogeneity = None

    def __getattr__(self, name):
        return getattr(self._k, name)


class TestValidation:
    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, 1.0, inner=0.9, outer=2.9)
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, 1.0, inner=1.1, outer=3.5)
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, 1.0, inner=2.0, outer=1.5)

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            OperatorCache(LaplaceKernel(), 4, -1.0)

    def test_rejects_adjacent_m2l_offset(self):
        cache = _fresh_cache(LaplaceKernel())
        with pytest.raises(ValueError):
            cache.m2l_check(2, (1, 0, 0))
        with pytest.raises(ValueError):
            cache.m2l_check(2, (1, 1, 1))

    def test_rejects_bad_levels(self):
        cache = _fresh_cache(LaplaceKernel())
        with pytest.raises(ValueError):
            cache.m2m_check(0, 0)
        with pytest.raises(ValueError):
            cache.half_width(-1)


class TestInversionQuality:
    def test_uc2ue_reconstructs_far_field(self, rng):
        """An equivalent density from uc2ue reproduces the far potential.

        This is equation (2.1) end to end: random interior sources, solve
        for the equivalent density, compare potentials at far points.
        """
        kernel = LaplaceKernel()
        cache = _fresh_cache(kernel, p=6, root=2.0)
        level = 1
        center = np.zeros(3)
        r = cache.half_width(level)
        src = rng.uniform(-r, r, size=(20, 3))
        phi = rng.standard_normal(20)
        check = kernel.matrix(cache.up_check_points(center, level), src) @ phi
        ue = _formed(cache.uc2ue(level)) @ check
        far = rng.standard_normal((15, 3))
        far = center + (far / np.linalg.norm(far, axis=1, keepdims=True)) * (6 * r)
        exact = kernel.matrix(far, src) @ phi
        approx = kernel.matrix(far, cache.up_equiv_points(center, level)) @ ue
        assert np.allclose(approx, exact, rtol=1e-6)


class _StretchedLaplace(Kernel):
    """``1 / (4 pi |D (x - y)|)`` with ``D = diag(1, 1.3, 0.7)``.

    Homogeneous like Laplace, but exchanging two axes changes it, and
    it declares no ``symmetry``: every offset is factored for itself.
    """

    name = "stretched_laplace"
    homogeneity = -1.0
    flops_per_pair = 16
    _stretch = np.array([1.0, 1.3, 0.7])

    def matrix(self, targets, sources):
        _, r2 = difference_planes(
            np.asarray(targets) * self._stretch,
            np.asarray(sources) * self._stretch,
        )
        return 1.0 / (4.0 * np.pi * np.sqrt(r2))


def _spectral_error(cache, level, offset):
    uf, vf = cache.m2l_rsvd(level, offset)
    exact = cache.m2l_check(level, offset)
    return np.linalg.norm(uf @ vf - exact, 2) / np.linalg.norm(exact, 2)


def test_rsvd_tol_follows_p_and_is_read_only():
    """``10^-p``, clamped to ``10^-4`` below p = 4; no setter."""
    for p in range(2, 11):
        cache = _fresh_cache(LaplaceKernel(), p=p)
        assert cache.rsvd_tol == 10.0 ** -max(p, 4)
    with pytest.raises(AttributeError):
        cache.rsvd_tol = 1e-3


#: The truncation keeps the singular values >= rsvd_tol * s_max of the
#: *sketched* matrix, so a reconstruction is off by rsvd_tol plus the
#: sketch's own error (1.31 * rsvd_tol at worst over all offsets and
#: kernels at p = 4).
_RECONSTRUCTION = 2.0


class TestCubeSymmetry:
    """Compressed M2L factors are computed per symmetry class."""

    def test_sixteen_classes(self):
        assert len(V_OFFSETS) == 316
        classes = set()
        for o in V_OFFSETS:
            c, axes, signs = canonical_offset(o)
            assert c[0] >= c[1] >= c[2] >= 0
            assert sorted(axes) == [0, 1, 2]
            assert tuple(signs[a] * c[axes[a]] for a in range(3)) == o
            assert canonical_offset(c) == (c, (0, 1, 2), (1, 1, 1))
            classes.add(c)
        assert len(classes) == 16

    def test_derived_factors_reproduce_every_offset(self, kernel):
        """All 316 offsets, two levels: accuracy, shared rank, <= 16 rSVDs."""
        cache = _fresh_cache(kernel)
        levels = (2, 3)
        with count_factorisations() as calls:
            for level in levels:
                for o in V_OFFSETS:
                    cache.m2l_rsvd(level, o)
        reference_levels = 1 if kernel.homogeneity is not None else len(levels)
        assert calls["randomized_svd"] == 16 * reference_levels
        for level in levels:
            for o in V_OFFSETS:
                assert (
                    _spectral_error(cache, level, o)
                    < _RECONSTRUCTION * cache.rsvd_tol
                ), (level, o)
                assert cache.m2l_rsvd_rank(level, o) == cache.m2l_rsvd_rank(
                    level, canonical_offset(o)[0]
                )

    def test_derived_factors_keep_layout_and_variants(self):
        """What the evaluator relies on beyond the values."""
        cache = _fresh_cache(StokesKernel())
        o = (-1, 3, -2)
        uf, vf = cache.m2l_rsvd(0, o)
        assert uf.flags.c_contiguous and vf.flags.c_contiguous
        assert uf.dtype == vf.dtype == np.float64
        # Only the class's canonical pair is kept; a member's is moved
        # afresh from it on every call, equal bit for bit.
        again = cache.m2l_rsvd(0, o)
        assert again[0] is not uf and np.array_equal(again[0], uf)
        c = canonical_offset(o)[0]
        assert list(cache._m2l_rsvd) == [(0, c)]
        assert cache.m2l_rsvd(0, c)[0] is cache._m2l_rsvd[0, c][0]
        uf3, vf3 = cache.m2l_rsvd(3, o)
        assert np.array_equal(uf3, uf * 8.0) and np.array_equal(vf3, vf)
        uf32, vf32 = cache.m2l_rsvd(0, o, dtype="float32")
        assert np.array_equal(uf32, uf.astype(np.float32))
        assert np.array_equal(vf32, vf.astype(np.float32))
        assert uf32.dtype == vf32.dtype == np.float32
        assert list(cache._m2l_rsvd_f32) == [(0, c)]  # moved from this

    def test_kernel_without_symmetry_is_factored_per_offset(self):
        kernel = _StretchedLaplace()
        assert kernel.symmetry is None
        cache = _fresh_cache(kernel)
        with count_factorisations() as calls:
            for o in V_OFFSETS:
                cache.m2l_rsvd(2, o)
        assert calls["randomized_svd"] == len(V_OFFSETS)
        assert all(
            _spectral_error(cache, 2, o) < _RECONSTRUCTION * cache.rsvd_tol
            for o in V_OFFSETS
        )
        # and it had to be: its x and y offsets are different operators
        sx = np.linalg.svd(cache.m2l_check(2, (2, 0, 0)), compute_uv=False)
        sy = np.linalg.svd(cache.m2l_check(2, (0, 2, 0)), compute_uv=False)
        assert abs(sx[0] - sy[0]) > 0.05 * sx[0]

    def test_rejects_undeclared_transformation_rules(self):
        class Odd(LaplaceKernel):
            symmetry = "vector"

        class ShortTensor(LaplaceKernel):
            symmetry = "tensor"  # but one component

        for bad in (Odd(), ShortTensor()):
            with pytest.raises(ValueError, match="symmetry"):
                _fresh_cache(bad)


class TestForRoot:
    """Carrying computed operators to a tree with another root box."""

    def test_same_root_is_same_cache(self):
        cache = _fresh_cache(LaplaceKernel(), root=2.0)
        assert cache.for_root(2.0) is cache

    def test_homogeneous_operators_are_rescaled_not_recomputed(self):
        kernel = StokesKernel()
        cache = _fresh_cache(kernel, root=2.0)
        o = (2, -1, 3)
        cache.uc2ue(2), cache.dc2de(2), cache.m2m_check(2, 5)
        cache.l2l_check(2, 3), cache.m2l_check(2, o), cache.m2l_rsvd(2, o)
        with count_factorisations() as calls:
            moved = cache.for_root(3.4)
            got = (
                moved.uc2ue(2), moved.dc2de(2), moved.m2m_check(2, 5),
                moved.l2l_check(2, 3), moved.m2l_check(2, o),
                moved.m2l_rsvd(2, o), moved.m2l_rsvd(2, o, dtype="float32"),
            )
        assert calls == {"randomized_svd": 0, "truncated_svd": 0}
        assert moved.root_side == 3.4 and moved.rcond == cache.rcond
        cold = _fresh_cache(kernel, root=3.4)
        for mine, theirs in zip(got[2:5], (
            cold.m2m_check(2, 5), cold.l2l_check(2, 3), cold.m2l_check(2, o)
        )):
            assert np.allclose(mine, theirs, rtol=1e-13, atol=0.0)
        # h = -1: pseudo-inverses grow with the box, evaluations shrink;
        # an inversion scales its second factor only
        for (u, w), (u0, w0) in zip(got[:2], (cache.uc2ue(2), cache.dc2de(2))):
            assert u is u0
            assert np.allclose(w, w0 * 1.7, rtol=1e-15)
        # The rescaled factors are the ones a cold cache factors at the
        # new root (same sketch seed, same rank) up to round-off: the
        # rSVD of a scaled matrix is the scaled rSVD.
        for mine, theirs in zip(got[5], cold.m2l_rsvd(2, o)):
            assert mine.shape == theirs.shape
            assert np.allclose(mine, theirs, rtol=0.0,
                               atol=1e-11 * np.abs(theirs).max())
        assert got[6][0].dtype == np.float32

    def test_inhomogeneous_kernel_keeps_the_error(self):
        cache = _fresh_cache(ModifiedLaplaceKernel(lam=2.0), root=2.0)
        assert cache.for_root(2.0) is cache
        with pytest.raises(ValueError, match="root_side"):
            cache.for_root(2.5)


class TestReference:
    """Level operators read at their reference level: the stages scale
    the product, never the operator, and lose no bit doing so."""

    NAMES = (("uc2ue",), ("dc2de",), ("m2m_check", 5), ("l2l_check", 3))

    @pytest.mark.parametrize("kernel", [LaplaceKernel(), StokesKernel(0.7)],
                             ids=["laplace", "stokes"])
    def test_scaled_product_is_the_scaled_operator_bit_for_bit(self, kernel):
        rng = np.random.default_rng(3)
        for cache in (_fresh_cache(kernel), _fresh_cache(kernel).for_root(3.4)):
            for name, *octant in self.NAMES:
                for level in (1, 2, 5):
                    base, factor = cache.reference(name, level, *octant)
                    scaled = getattr(cache, name)(level, *octant)
                    assert factor == 2.0 ** round(np.log2(factor))
                    if name in ("uc2ue", "dc2de"):
                        # The factor pair: the level scales the second.
                        (u, w), (su, sw) = base, scaled
                        assert u is su and np.array_equal(w * factor, sw)
                        x = rng.standard_normal((7, u.shape[0]))
                        product = (x @ u) @ w
                        product *= factor
                        assert np.array_equal(product, (x @ u) @ sw)
                        continue
                    assert np.array_equal(base * factor, scaled)
                    x = rng.standard_normal((7, base.shape[1]))
                    product = x @ base.T
                    product *= factor
                    assert np.array_equal(product, x @ scaled.T)

    def test_inhomogeneous_kernel_reads_its_own_level(self):
        """Per level, octant 0's operator only: another octant's is
        moved from it afresh and nothing keeps it."""
        cache = _fresh_cache(ModifiedLaplaceKernel(lam=2.0))
        base, factor = cache.reference("m2m_check", 3, 0)
        assert factor == 1.0 and base is cache.m2m_check(3, 0)
        moved, factor = cache.reference("m2m_check", 3, 4)
        assert factor == 1.0 and moved is not cache.m2m_check(3, 4)
        assert np.array_equal(moved, cache.m2m_check(3, 4))
        assert list(cache._m2m) == [(3, 0)]

    def test_apply_builds_no_rescaled_copy(self, monkeypatch):
        """Potentials on a depth-5 corner tree are those of the stages
        fed the rescaled operators, bit for bit, for Laplace and Stokes."""
        from repro.core.fmm import FMMOptions, KIFMM
        from repro.geometry.distributions import corner_clusters

        rng = np.random.default_rng(6)
        pts = corner_clusters(2000, rng)
        for kernel in (LaplaceKernel(), StokesKernel(0.7)):
            phi = rng.standard_normal((2000, kernel.source_dof))
            fmm = KIFMM(kernel, FMMOptions(p=4, max_points=10)).setup(pts)
            assert fmm.state.plan.depth >= 5
            u = fmm.apply(phi)
            with monkeypatch.context() as m:
                m.setattr(OperatorCache, "reference",
                          lambda self, name, level, *o: (
                              getattr(self, name)(level, *o), 1.0))
                assert np.array_equal(fmm.apply(phi), u)


class TestPlane:
    """The one operator cache at ``Kernel.dim = 2``."""

    def test_octant_offsets(self):
        offsets = [tuple(octant_offset(c, 2)) for c in range(4)]
        assert offsets == [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
        with pytest.raises(ValueError):
            octant_offset(4, 2)

    @pytest.mark.parametrize(
        "kernel", [Laplace2DKernel(), Stokes2DKernel()], ids=["laplace2d", "stokes2d"]
    )
    def test_operator_shapes(self, kernel):
        p = 5
        n = n_surface_points(p, 2)
        m, q = kernel.source_dof, kernel.target_dof
        cache = _fresh_cache(kernel, p=p)
        assert cache.dim == 2 and cache.n_surf == n == 4 * p - 4
        assert _formed(cache.uc2ue(2)).shape == (n * m, n * q)
        assert cache.m2m_check(2, 3).shape == (n * q, n * m)
        assert cache.l2l_check(2, 1).shape == (n * q, n * m)
        assert cache.m2l_check(2, (2, -1)).shape == (n * q, n * m)

    def test_uc2ue_reconstructs_far_field(self, rng):
        """Equation (2.1) end to end in the plane."""
        kernel = Laplace2DKernel()
        cache = OperatorCache(kernel, p=10, root_side=2.0)
        level = 1
        r = cache.half_width(level)
        src = rng.uniform(-r, r, size=(15, 2))
        phi = rng.standard_normal(15)
        phi -= phi.mean()  # zero total charge: no far log-growth mismatch
        check = kernel.matrix(cache.up_check_points(np.zeros(2), level), src) @ phi
        ue = _formed(cache.uc2ue(level)) @ check
        theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        far = 6 * r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        exact = kernel.matrix(far, src) @ phi
        approx = kernel.matrix(far, cache.up_equiv_points(np.zeros(2), level)) @ ue
        assert np.allclose(approx, exact, atol=1e-8)

    def test_m2l_rejects_adjacent(self):
        cache = OperatorCache(Laplace2DKernel(), 4, 1.0)
        with pytest.raises(ValueError):
            cache.m2l_check(2, (1, 0))

    @pytest.mark.parametrize(
        "kernel", [Laplace2DKernel(), Stokes2DKernel()], ids=["laplace2d", "stokes2d"]
    )
    def test_derived_factors_reproduce_every_offset(self, kernel):
        """The 8 symmetries of the square carry the canonical factors to
        every one of the ``7^2 - 3^2 = 40`` offsets."""
        cache = _fresh_cache(kernel, p=5)
        offsets = [
            o for o in itertools.product(range(-3, 4), repeat=2)
            if max(abs(c) for c in o) >= 2
        ]
        assert len(offsets) == 40
        for o in offsets:
            uf, vf = cache.m2l_rsvd(2, o)
            exact = cache.m2l_check(2, o)
            err = np.linalg.norm(uf @ vf - exact) / np.linalg.norm(exact)
            assert err < 2 * cache.rsvd_tol * 10
