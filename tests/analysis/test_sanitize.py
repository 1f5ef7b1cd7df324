"""The runtime sanitizers: each detector fires on a seeded fixture,
and a fully sanitized apply is bit-identical to an unsanitized one.
"""

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import (
    BufferEscapeError,
    DoubleReleaseError,
    GemmAliasError,
    NonFiniteError,
    SanitizerError,
    UseAfterReleaseError,
    check_escape,
    check_finite,
    guard_gemm,
)
from repro.core.fmm import KIFMM, FMMOptions
from repro.core.plan import BufferPool
from repro.kernels import LaplaceKernel

from tests.conftest import clustered_cloud


class TestBufferPoolLifecycle:
    def test_release_poisons_and_use_after_release_fires(self):
        pool = BufferPool()
        pool.sanitize = True
        buf = pool.zeros("scratch", (4, 3))
        pool.release("scratch")
        assert np.isnan(buf).all(), "released buffer must be NaN-poisoned"
        with pytest.raises(UseAfterReleaseError, match="'scratch'"):
            pool.check_live("scratch", context="m2m level 2")

    def test_double_release_fires(self):
        pool = BufferPool()
        pool.sanitize = True
        pool.zeros("scratch", (8,))
        pool.release("scratch")
        with pytest.raises(DoubleReleaseError, match="released twice"):
            pool.release("scratch")

    def test_reacquisition_clears_the_release(self):
        pool = BufferPool()
        pool.sanitize = True
        pool.zeros("scratch", (8,))
        pool.release("scratch")
        fresh = pool.zeros("scratch", (8,))
        pool.check_live("scratch")  # no raise
        assert not np.isnan(fresh).any()
        pool.release("scratch")  # and a single re-release is fine again

    def test_lifecycle_is_free_when_not_sanitizing(self):
        pool = BufferPool()
        buf = pool.zeros("scratch", (4,))
        pool.release("scratch")
        pool.release("scratch")  # no DoubleReleaseError
        pool.check_live("scratch")  # no UseAfterReleaseError
        assert not np.isnan(buf).any(), "no poison without sanitize"

    def test_unknown_name_release_is_ignored(self):
        pool = BufferPool()
        pool.sanitize = True
        pool.release("never-allocated")  # mode-dependent scratch


class TestFiniteChecks:
    def test_nan_names_phase_and_row_range(self):
        arr = np.zeros((10, 3))
        arr[4, 1] = np.nan
        arr[7, 2] = np.inf
        with pytest.raises(NonFiniteError) as exc:
            check_finite(arr, "up", "upward equivalent densities")
        msg = str(exc.value)
        assert "'up' phase boundary" in msg
        assert "boxes 4...7" in msg
        assert "2 affected" in msg

    def test_clean_array_passes(self):
        check_finite(np.ones((5, 2)), "down_v", "local coefficients")

    def test_poison_propagates_into_phase_check(self):
        """The lifecycle + finite checkers compose: a stale read of a
        released buffer surfaces as a NonFiniteError at the next phase
        boundary."""
        pool = BufferPool()
        pool.sanitize = True
        stale = pool.zeros("check", (6, 2))
        pool.release("check")
        consumer = stale * 2.0  # buggy stale read
        with pytest.raises(NonFiniteError):
            check_finite(consumer, "m2l", "check potentials")


class TestGemmAliasGuard:
    def test_aliased_output_fires(self):
        buf = np.zeros(32)
        out, operand = buf[:16].reshape(4, 4), buf[8:24].reshape(4, 4)
        with pytest.raises(GemmAliasError, match="m2m level 1"):
            guard_gemm(out, operand, site="m2m level 1")

    def test_disjoint_slices_of_one_buffer_pass(self):
        buf = np.zeros(32)
        guard_gemm(buf[:16], buf[16:], site="m2l level 2")

    def test_empty_operands_pass(self):
        guard_gemm(np.zeros((0, 4)), np.zeros((0, 4)), site="w-pass")


class TestEscapeCheck:
    def test_pool_backed_result_fires(self):
        pool = BufferPool()
        result = pool.zeros("potential", (10, 1))
        with pytest.raises(BufferEscapeError, match="RankFMM.apply"):
            check_escape(result, pool, "RankFMM.apply")

    def test_copied_result_passes(self):
        pool = BufferPool()
        result = pool.zeros("potential", (10, 1)).copy()
        check_escape(result, pool, "RankFMM.apply")


class TestSanitizedApply:
    def test_sanitized_apply_is_bit_identical(self, rng):
        pts = clustered_cloud(rng, 400)
        phi = rng.standard_normal((400, 1))
        plain = KIFMM(
            LaplaceKernel(), FMMOptions(p=4, max_points=30)
        ).setup(pts).apply(phi)
        sanitized = KIFMM(
            LaplaceKernel(), FMMOptions(p=4, max_points=30, sanitize=True)
        ).setup(pts).apply(phi)
        assert np.array_equal(plain, sanitized), (
            "sanitizers must observe, never perturb"
        )

    def test_nan_input_density_is_rejected_at_ingress(self, rng):
        pts = clustered_cloud(rng, 300)
        phi = rng.standard_normal((300, 1))
        phi[123] = np.nan
        fmm = KIFMM(
            LaplaceKernel(), FMMOptions(p=4, max_points=30, sanitize=True)
        ).setup(pts)
        with pytest.raises(NonFiniteError, match="'input'"):
            fmm.apply(phi)

    def test_env_var_enables_without_the_option(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()
        pts = clustered_cloud(rng, 300)
        phi = rng.standard_normal((300, 1))
        phi[7] = np.inf
        fmm = KIFMM(
            LaplaceKernel(), FMMOptions(p=4, max_points=30)
        ).setup(pts)
        with pytest.raises(NonFiniteError):
            fmm.apply(phi)

    def test_env_var_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize.enabled()

    def test_all_detectors_share_a_catchable_base(self):
        for exc in (
            UseAfterReleaseError, DoubleReleaseError, BufferEscapeError,
            NonFiniteError, GemmAliasError,
        ):
            assert issubclass(exc, SanitizerError)
