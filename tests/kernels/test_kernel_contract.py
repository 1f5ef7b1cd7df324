"""Contract tests every kernel implementation must satisfy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import k0

from repro.kernels import (
    Laplace2DKernel,
    LaplaceKernel,
    ModifiedLaplace2DKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    Stokes2DKernel,
    StokesKernel,
)
from repro.kernels.derived import (
    LaplaceDipoleKernel,
    LaplaceGradientKernel,
    ModifiedLaplaceDipoleKernel,
    ModifiedLaplaceGradientKernel,
)

from tests.conftest import traced_peak

ALL = [
    LaplaceKernel(),
    ModifiedLaplaceKernel(1.3),
    StokesKernel(0.8),
    NavierKernel(1.2, 0.25),
    LaplaceGradientKernel(),
    LaplaceDipoleKernel(),
    ModifiedLaplaceGradientKernel(0.9),
    ModifiedLaplaceDipoleKernel(0.9),
    Laplace2DKernel(),
    ModifiedLaplace2DKernel(1.3),
    Stokes2DKernel(0.8),
]
IDS = [k.name for k in ALL]


def _log_floor(kernel) -> float:
    """Absolute error floor of a relative error of ``r``: ``1 / 2 pi``
    for the plane's logarithmic kernels, whose entries cross zero at
    ``r = 1`` (and ``K_0`` tends to the logarithm), 0 for the others."""
    return 1.0 / (2.0 * np.pi) if kernel.dim == 2 else 0.0


@pytest.mark.parametrize("kernel", ALL, ids=IDS)
class TestKernelContract:
    def test_matrix_shape(self, kernel, rng):
        x = rng.standard_normal((5, kernel.dim))
        y = rng.standard_normal((7, kernel.dim)) + 5.0
        K = kernel.matrix(x, y)
        assert K.shape == (5 * kernel.target_dof, 7 * kernel.source_dof)

    def test_coincident_pairs_vanish(self, kernel, rng):
        pts = rng.standard_normal((3, kernel.dim))
        K = kernel.matrix(pts, pts)
        q, m = kernel.target_dof, kernel.source_dof
        for i in range(3):
            block = K[i * q : (i + 1) * q, i * m : (i + 1) * m]
            assert np.all(block == 0.0), f"diagonal block {i} nonzero"

    def test_all_entries_finite(self, kernel, rng):
        x = rng.standard_normal((6, kernel.dim))
        K = kernel.matrix(x, x)
        assert np.all(np.isfinite(K))

    def test_row_ordering_point_major(self, kernel, rng):
        x = rng.standard_normal((3, kernel.dim))
        y = rng.standard_normal((2, kernel.dim)) + 4.0
        K = kernel.matrix(x, y)
        q = kernel.target_dof
        K1 = kernel.matrix(x[1:2], y)
        assert np.allclose(K[q : 2 * q], K1)

    def test_apply_consistent(self, kernel, rng):
        x = rng.standard_normal((4, kernel.dim))
        y = rng.standard_normal((6, kernel.dim)) + 3.0
        phi = rng.standard_normal((6, kernel.source_dof))
        assert np.allclose(
            kernel.apply(x, y, phi).ravel(), kernel.matrix(x, y) @ phi.ravel()
        )

    def test_flop_cost_positive(self, kernel):
        assert kernel.flops_per_pair > 0

    def test_homogeneity_declaration_consistent(self, kernel, rng):
        if kernel.homogeneity is None:
            return
        x = rng.standard_normal((3, kernel.dim))
        y = rng.standard_normal((3, kernel.dim)) + 4.0
        a = 1.7
        assert np.allclose(
            kernel.matrix(a * x, a * y),
            a**kernel.homogeneity * kernel.matrix(x, y),
        )


def _pair_blocks(kernel, K, nt, ns):
    """``K`` as ``(nt, ns, target_dof * source_dof)``: one row per pair."""
    q, m = kernel.target_dof, kernel.source_dof
    return K.reshape(nt, q, ns, m).transpose(0, 2, 1, 3).reshape(nt, ns, q * m)


def _pair_error(kernel, got, ref, nt, ns):
    """Per-pair error relative to the pair's largest reference entry."""
    got, ref = (_pair_blocks(kernel, K, nt, ns) for K in (got, ref))
    size = np.abs(ref).max(axis=2, initial=0.0)
    err = np.abs(got - ref).max(axis=2, initial=0.0)
    return err, size


def _local_frame(rng, h, nt, ns, dim):
    """A leaf against its neighbourhood, in the leaf's frame, with traps.

    Half the sources coincide with targets and up to three more sit at a
    relative distance of 1e-12 from one: the pairs the GEMM form of
    ``r^2`` gets wrong and the repair must catch.
    """
    t = rng.uniform(-h, h, (nt, dim))
    s = rng.uniform(-3 * h, 3 * h, (ns, dim))
    if nt:
        half = ns // 2
        s[:half] = t[rng.integers(0, nt, half)]
        near = s[half : half + 3]
        step = rng.standard_normal(near.shape)
        step /= np.linalg.norm(step, axis=1, keepdims=True)
        near[:] = t[rng.integers(0, nt, len(near))] + 1e-12 * h * step
    return t, s


@pytest.mark.parametrize("kernel", ALL, ids=IDS)
class TestMatrixLocal:
    """``matrix_local`` is ``matrix`` wherever the planned evaluator calls it."""

    @pytest.mark.parametrize("h", [1e-6, 1e-3, 1.0, 1e3])
    @given(
        nt=st.integers(0, 24),
        ns=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_matrix_in_box_frames(self, kernel, h, nt, ns, seed):
        t, s = _local_frame(np.random.default_rng(seed), h, nt, ns, kernel.dim)
        ref = kernel.matrix(t, s)
        got = kernel.matrix_local(t, s)
        assert got.shape == ref.shape
        assert np.all(np.isfinite(got))
        err, size = _pair_error(kernel, got, ref, nt, ns)
        r = np.linalg.norm(t[:, None, :] - s[None, :, :], axis=2)
        # exp(-lam r) turns a relative error of r into lam r times it.
        amplification = 1.0 + getattr(kernel, "lam", 0.0) * r
        # Below the normal range (screened kernels at h = 1e3) an entry
        # has no relative accuracy left to compare.
        tiny = np.finfo(np.float64).tiny
        assert np.all(
            err <= 1e-13 * (amplification * size + _log_floor(kernel)) + tiny
        )
        # Same zero pattern: exact zeros at coincident pairs, and only
        # there unless the reference itself underflowed.
        got_size = np.abs(_pair_blocks(kernel, got, nt, ns)).max(
            axis=2, initial=0.0
        )
        assert np.all(got_size[r == 0.0] == 0.0)
        assert np.all(got_size[size > tiny] > 0.0)

    def test_identical_points_give_zero_matrix(self, kernel):
        for point in (np.zeros(3), np.array([0.3, -1.7, 2.9])):
            point = point[: kernel.dim]
            t = np.tile(point, (4, 1))
            s = np.tile(point, (6, 1))
            for K in (kernel.matrix(t, s), kernel.matrix_local(t, s)):
                assert K.shape == (4 * kernel.target_dof, 6 * kernel.source_dof)
                assert np.all(K == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_stays_in_its_row(self, kernel, rng, bad):
        t = rng.uniform(-1.0, 1.0, (5, kernel.dim))
        s = rng.uniform(-3.0, 3.0, (9, kernel.dim))
        s[:2] = t[:2]
        clean = kernel.matrix(t, s)
        t[3, 1] = bad
        q = kernel.target_dof
        others = np.r_[0 : 3 * q, 4 * q : 5 * q]
        with np.errstate(invalid="ignore"):  # inf - inf
            for K in (kernel.matrix(t, s), kernel.matrix_local(t, s)):
                assert K.shape == clean.shape
                assert np.allclose(K[others], clean[others], rtol=1e-13, atol=0.0)
                if np.isnan(bad):
                    assert np.all(np.isnan(K[3 * q : 4 * q]))


def _reference_displacements(targets, sources):
    """The textbook ``(nt, ns, 3)`` tensor and masked ``1 / r``."""
    diff = targets[:, None, :] - sources[None, :, :]
    r2 = np.einsum("tsd,tsd->ts", diff, diff)
    with np.errstate(divide="ignore"):
        inv_r = np.where(r2 > 0.0, 1.0 / np.sqrt(r2), 0.0)
    return diff, np.sqrt(r2), inv_r


def _reference_radial(kernel, targets, sources):
    _, r, inv_r = _reference_displacements(targets, sources)
    lam = getattr(kernel, "lam", 0.0)
    return np.exp(-lam * r) * inv_r / (4.0 * np.pi)


def _reference_kelvin(kernel, targets, sources):
    diff, _, inv_r = _reference_displacements(targets, sources)
    nt, ns = inv_r.shape
    if isinstance(kernel, StokesKernel):
        a, scale = 1.0, 8.0 * np.pi * kernel.mu
    else:
        a = 3.0 - 4.0 * kernel.nu
        scale = 16.0 * np.pi * kernel.mu * (1.0 - kernel.nu)
    blocks = np.einsum("tsi,tsj->tsij", diff, diff) * (inv_r**3)[:, :, None, None]
    idx = np.arange(3)
    blocks[:, :, idx, idx] += a * inv_r[:, :, None]
    return (blocks / scale).transpose(0, 2, 1, 3).reshape(nt * 3, ns * 3)


def _reference_derived(kernel, targets, sources):
    diff, r, inv_r = _reference_displacements(targets, sources)
    nt, ns = inv_r.shape
    lam = getattr(kernel, "lam", 0.0)
    weight = (1.0 + lam * r) * np.exp(-lam * r) * inv_r**3 / (4.0 * np.pi)
    block = diff * weight[:, :, None]
    if kernel.target_dof == 3:  # gradient at the target: -grad_y
        return -block.transpose(0, 2, 1).reshape(nt * 3, ns)
    return block.reshape(nt, ns * 3)


def _reference_planar(kernel, targets, sources):
    """The plane's kernels as the per-box 2D evaluator assembled them."""
    diff = targets[:, None, :] - sources[None, :, :]
    r2 = np.einsum("tsd,tsd->ts", diff, diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.where(r2 > 0.0, -0.5 * np.log(r2), 0.0)
        inv_r2 = np.where(r2 > 0.0, 1.0 / r2, 0.0)
        screened = np.where(
            r2 > 0.0, k0(getattr(kernel, "lam", 1.0) * np.sqrt(r2)), 0.0
        )
    if isinstance(kernel, Laplace2DKernel):
        return log / (2.0 * np.pi)
    if isinstance(kernel, ModifiedLaplace2DKernel):
        return screened / (2.0 * np.pi)
    nt, ns = r2.shape
    blocks = np.einsum("tsi,tsj->tsij", diff, diff) * inv_r2[:, :, None, None]
    idx = np.arange(2)
    blocks[:, :, idx, idx] += log[:, :, None]
    blocks /= 4.0 * np.pi * kernel.mu
    return blocks.transpose(0, 2, 1, 3).reshape(nt * 2, ns * 2)


TEXTBOOK = (
    [_reference_radial] * 2 + [_reference_kelvin] * 2 + [_reference_derived] * 4
    + [_reference_planar] * 3
)


@pytest.mark.parametrize("kernel, reference", list(zip(ALL, TEXTBOOK)), ids=IDS)
def test_matrix_matches_textbook_formula(kernel, reference, rng):
    """The plane assemblies against the einsum/``where`` forms they replaced."""
    t = rng.uniform(-1.0, 1.0, (17, kernel.dim))
    s = rng.uniform(-3.0, 3.0, (23, kernel.dim)) + np.array([0.5, 0.0, -0.25])[
        : kernel.dim
    ]
    s[:6] = t[:6]
    ref = reference(kernel, t, s)
    got = kernel.matrix(t, s)
    assert got.shape == ref.shape
    err, size = _pair_error(kernel, got, ref, 17, 23)
    assert np.all(err <= 1e-14 * (size + _log_floor(kernel)))
    assert np.all(err[:6, :6][np.eye(6, dtype=bool)] == 0.0)


def _peak_over_output(assemble):
    """Peak traced allocation of ``assemble()`` over its result's bytes."""
    peak, out = traced_peak(assemble)
    return peak / out.nbytes


class TestPassBudget:
    """Temporaries are passes: bound them where a timing gate would flake.

    A full-size temporary is a full-size pass written and read again, so
    the traced peak over the output's own bytes counts them
    deterministically (parent commit: 3.30 and 2.57).
    """

    def test_laplace_matrix_local_holds_no_second_plane(self, rng):
        t = rng.uniform(-1.0, 1.0, (39, 3))
        s = rng.uniform(-3.0, 3.0, (1053, 3))
        kernel = LaplaceKernel()
        assert _peak_over_output(lambda: kernel.matrix_local(t, s)) <= 1.5

    def test_stokes_matrix_holds_seven_planes_over_nine(self, rng):
        # 3 difference planes, r^2 -> b/r^3, a/r, two scratch planes and
        # the flat index mask over the 9-plane output.
        t = rng.uniform(-1.0, 1.0, (70, 3))
        s = rng.uniform(-3.0, 3.0, (900, 3))
        kernel = StokesKernel()
        assert _peak_over_output(lambda: kernel.matrix(t, s)) <= 2.0
