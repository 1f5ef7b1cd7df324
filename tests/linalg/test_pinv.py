"""Truncated-SVD tests: the factors the check-to-equivalent inversions keep.

The operator cache applies a pseudo-inverse as its two factors
``(u, vt / s)`` and never forms it; these tests form it from the factors
(:func:`_inverse`) to check the pseudo-inverse they stand for.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import svd_rank, truncated_svd


def _inverse(matrix, rcond=1e-12):
    """The pseudo-inverse the factors of ``truncated_svd`` represent."""
    u, s, vt = truncated_svd(matrix, rcond)
    return (vt.T / s) @ u.T


class TestWellConditioned:
    def test_inverts_square_matrix(self, rng):
        A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        assert np.allclose(_inverse(A) @ A, np.eye(6), atol=1e-10)

    def test_least_squares_property(self, rng):
        A = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        x = _inverse(A) @ b
        # residual orthogonal to range(A)
        assert np.allclose(A.T @ (A @ x - b), 0.0, atol=1e-10)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_moore_penrose_conditions(self, m, n):
        A = np.random.default_rng(m * 10 + n).standard_normal((m, n))
        P = _inverse(A, rcond=1e-13)
        assert np.allclose(A @ P @ A, A, atol=1e-8)
        assert np.allclose(P @ A @ P, P, atol=1e-8)


class TestRegularisation:
    def test_truncates_small_singular_values(self):
        # rank-1 matrix plus tiny noise: pinv without truncation explodes
        u = np.array([1.0, 0.0])
        A = np.outer(u, u) + 1e-14 * np.array([[0, 1], [1, 0]])
        uf, s, vt = truncated_svd(A, rcond=1e-8)
        assert s.size == 1  # the 1e14 mode was cut
        assert np.abs(vt / s[:, None]).max() < 10.0

    def test_zero_matrix(self):
        u, s, vt = truncated_svd(np.zeros((3, 4)))
        assert (u.shape, s.shape, vt.shape) == ((3, 0), (0,), (0, 4))
        assert np.all(_inverse(np.zeros((3, 4))) == 0.0)

    def test_degenerate_fallback_dtype_contract(self):
        """The rank-0 factors must honour the float64 output contract.

        Whatever the input dtype (integer lists, float32 arrays), an
        all-modes-truncated input yields empty float64 factors, so the
        two GEMMs through them produce float64 zeros — downstream
        accumulations rely on it.
        """
        for degenerate in (
            np.zeros((3, 4)),
            np.zeros((3, 4), dtype=np.float32),
            [[0, 0], [0, 0], [0, 0]],
        ):
            u, s, vt = truncated_svd(degenerate, rcond=1e-8)
            m, n = np.shape(degenerate)
            assert u.shape == (m, 0) and vt.shape == (0, n)
            assert u.dtype == s.dtype == vt.dtype == np.float64
            w = vt / s[:, None]
            out = (np.ones(m) @ u) @ w
            assert out.dtype == np.float64 and np.all(out == 0.0)

    def test_keep_boundary_is_inclusive(self):
        """A singular value exactly at rcond * s[0] is kept, not cut."""
        s = np.array([1.0, 0.5, 1e-8, 1e-12])
        assert svd_rank(s, 1e-8) == 3  # 1e-8 == rcond * s[0] survives
        assert svd_rank(s, np.nextafter(1e-8, 1.0)) == 2
        assert svd_rank(np.zeros(3), 1e-8) == 0
        assert svd_rank(np.zeros(0), 1e-8) == 0
        with pytest.raises(ValueError):
            svd_rank(s, -1e-3)


class TestTruncatedSVD:
    def test_factors_reconstruct(self, rng):
        A = rng.standard_normal((7, 5))
        u, s, vt = truncated_svd(A, rcond=1e-12)
        assert np.allclose((u * s) @ vt, A, atol=1e-10)
        assert u.flags["C_CONTIGUOUS"] and vt.flags["C_CONTIGUOUS"]
        assert u.dtype == s.dtype == vt.dtype == np.float64

    def test_truncates_rank(self, rng):
        B = rng.standard_normal((8, 3))
        A = B @ B.T  # rank 3 in an 8x8 matrix
        u, s, vt = truncated_svd(A, rcond=1e-10)
        assert s.size == 3
        assert u.shape == (8, 3) and vt.shape == (3, 8)

    def test_matches_pinv_construction(self, rng):
        A = rng.standard_normal((6, 4))
        assert np.allclose(
            _inverse(A, rcond=1e-12), np.linalg.pinv(A, rcond=1e-12),
            atol=1e-12,
        )

    def test_cutoff_monotone(self, rng):
        """Stronger truncation never increases the inverse's norm."""
        A = rng.standard_normal((8, 8))
        A = A @ np.diag(10.0 ** -np.arange(8)) @ rng.standard_normal((8, 8))
        norms = [
            np.linalg.norm(_inverse(A, rcond=rc))
            for rc in (1e-14, 1e-8, 1e-4, 1e-1)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


class TestValidation:
    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            truncated_svd(np.zeros(5))

    def test_rejects_negative_rcond(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(2), rcond=-1.0)
