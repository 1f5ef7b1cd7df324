"""M2L backend parity — dense, fft and rsvd must agree.

The three V-list translation backends implement the same operator: the
dense per-class GEMM is the reference, the FFT path is the paper's
accelerated scheme, and the rsvd path applies randomized-SVD-compressed
factors as two stacked BLAS-3 GEMMs.  These tests pin the seam: every
backend (and the per-level ``auto`` mix) reproduces the dense potentials
on Laplace and Stokes problems across tree depths 3-5, the float32
mixed-precision mode stays within single-precision roundoff of the
float64 result, and repeated setups produce bitwise identical rsvd
potentials (the factorisation is deterministically seeded).
"""

from unittest import mock

import numpy as np
import pytest

import repro.core.precompute as precompute
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.m2lschedule import (
    M2LSchedule,
    resolve_m2l_schedule,
    v_stats_from_lists,
    v_stats_from_plan,
)
from repro.kernels.direct import relative_error
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.modified_laplace import ModifiedLaplaceKernel
from repro.kernels.stokes import StokesKernel

from tests.core.perbox import PerBoxFMM

DEPTHS = (3, 4, 5)


@pytest.fixture(scope="module")
def points():
    """Clustered + uniform cloud whose tree depth is pinned by max_depth."""
    rng = np.random.default_rng(7)
    cluster = 0.5 + 1e-4 * rng.random((300, 3))
    return np.vstack([cluster, rng.random((300, 3))])


def _apply(kernel, points, depth, m2l, dtype="float64", fmm=KIFMM):
    opts = FMMOptions(p=3, max_points=20, max_depth=depth, m2l=m2l,
                      dtype=dtype)
    fmm = fmm(kernel, opts).setup(points)
    assert fmm.tree.depth == depth
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((points.shape[0], kernel.source_dof))
    return fmm, fmm.apply(phi)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize(
    "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
)
@pytest.mark.parametrize("m2l", ["fft", "rsvd", "auto"])
def test_backend_parity_with_dense(kernel, points, depth, m2l):
    _, ref = _apply(kernel, points, depth, "dense")
    _, u = _apply(kernel, points, depth, m2l)
    # fft agrees to roundoff; rsvd to its compression tolerance
    # (sqrt(rcond) ~ 1e-6 relative), both far below discretisation error
    assert relative_error(u, ref) < 1e-6


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("m2l", ["dense", "rsvd"])
def test_naive_and_planned_paths_agree(points, depth, m2l):
    kernel = LaplaceKernel()
    _, batched = _apply(kernel, points, depth, m2l)
    _, naive = _apply(kernel, points, depth, m2l, fmm=PerBoxFMM)
    # same operators, different GEMM shapes: roundoff-level agreement
    assert relative_error(batched, naive) < 1e-10


@pytest.mark.parametrize(
    "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
)
def test_float32_mixed_precision_close_to_float64(kernel, points):
    _, u64 = _apply(kernel, points, 4, "rsvd", dtype="float64")
    _, u32 = _apply(kernel, points, 4, "rsvd", dtype="float32")
    # float32 factors/multiplies with float64 accumulation: the error is
    # single-precision roundoff through one compressed translation
    assert relative_error(u32, u64) < 1e-5
    assert relative_error(u32, u64) > 0.0  # it genuinely narrowed


def test_rsvd_bitwise_reproducible_across_setups(points):
    """Fresh operators, fresh caches: identical potentials, bit for bit.

    The compression sketch is seeded per (level, offset) class, so
    independent setups — e.g. different MPI ranks building their own
    caches — factor every translation operator identically.
    """
    kernel = LaplaceKernel()
    runs = [_apply(kernel, points, 4, "rsvd")[1] for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_schedule_reporting_and_modes(points):
    fmm, _ = _apply(LaplaceKernel(), points, 4, "rsvd")
    sched = fmm.m2l_schedule
    assert isinstance(sched, M2LSchedule)
    desc = sched.describe()
    assert desc["mode"] == "rsvd"
    assert all(b == "rsvd" for b in desc["levels"].values())
    assert not sched.needs_fft
    assert fmm.statistics()["m2l_schedule"] == desc

    auto, _ = _apply(LaplaceKernel(), points, 4, "auto")
    levels = auto.m2l_schedule.describe()["levels"]
    assert set(levels) == set(desc["levels"])  # same V levels
    assert all(b in ("fft", "dense", "rsvd") for b in levels.values())


def test_auto_uses_gated_stats_consistently(points):
    """Plan-derived and list-derived V statistics agree.

    Both evaluators must resolve the identical schedule, so the stats
    the picker sees cannot depend on which path computes them.
    """
    kernel = LaplaceKernel()
    opts = FMMOptions(p=3, max_points=20, max_depth=4, m2l="auto")
    fmm = KIFMM(kernel, opts).setup(points)
    from_plan = v_stats_from_plan(fmm.state.plan)
    from_lists = v_stats_from_lists(fmm.tree, fmm.lists)
    assert from_plan == from_lists
    s1 = resolve_m2l_schedule("auto", "float64", stats=from_plan,
                              cache=fmm.cache, kernel=kernel)
    s2 = resolve_m2l_schedule("auto", "float64", stats=from_lists,
                              cache=fmm.cache, kernel=kernel)
    assert s1.backends == s2.backends


@pytest.mark.parametrize(
    "kernel", [LaplaceKernel(), ModifiedLaplaceKernel(lam=1.5)],
    ids=["laplace", "modified_laplace"],
)
def test_auto_probe_is_the_factorisation_the_apply_uses(kernel, points):
    """The picker's probe of class (2, 0, 0) is not paid for twice.

    ``(2, 0, 0)`` is the canonical offset of its symmetry class, so the
    rank probe of ``resolve_m2l_schedule`` factors exactly the matrix the
    first apply needs for that class (and for the five offsets derived
    from it): once per reference level — one for a homogeneous kernel,
    one per V level otherwise — and no class is ever factored twice.
    Setup builds every operator after the probe; the apply factors
    nothing.
    """
    seeds = []
    inner = precompute.randomized_svd

    def recording(matrix, tol, *, seed):
        seeds.append(seed)
        return inner(matrix, tol, seed=seed)

    opts = FMMOptions(p=6, max_points=20, max_depth=4, m2l="auto")
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((points.shape[0], 1))
    with mock.patch.object(precompute, "randomized_svd", recording):
        fmm = KIFMM(kernel, opts).setup(points)
        at_setup = list(seeds)
        fmm.apply(phi)
    assert seeds == at_setup
    levels = fmm.m2l_schedule.describe()["levels"]
    reference_levels = 1 if kernel.homogeneity is not None else len(levels)
    seed_200 = 1 + (2 + 3) * 49 + 3 * 7 + 3
    assert at_setup[:reference_levels] == [seed_200] * reference_levels
    assert "rsvd" in levels.values()  # the apply did use compressed factors
    per_seed = {s: seeds.count(s) for s in seeds}
    assert per_seed[seed_200] == reference_levels
    assert max(per_seed.values()) <= reference_levels
    assert len(per_seed) <= 16


def test_rejects_unknown_mode_and_dtype(points):
    with pytest.raises(ValueError, match="m2l"):
        FMMOptions(m2l="svd")
    with pytest.raises(ValueError, match="dtype"):
        FMMOptions(dtype="float16")
    with pytest.raises(ValueError):
        resolve_m2l_schedule("nope", "float64", stats={}, cache=None,
                             kernel=None)


def test_rsvd_compression_actually_compresses(points):
    """The kept ranks sit well below the full operator width."""
    kernel = LaplaceKernel()
    fmm, _ = _apply(kernel, points, 4, "rsvd")
    cache = fmm.cache
    full = cache.n_surf  # square operator for a scalar kernel
    ranks = [
        cache.m2l_rsvd_rank(vl.level, offset)
        for vl in fmm.state.plan.v_levels
        for offset, _, _ in vl.classes
    ]
    assert ranks
    assert max(ranks) < full
    assert min(ranks) >= 1
