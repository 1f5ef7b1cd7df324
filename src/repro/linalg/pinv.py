"""Truncated SVD for the equivalent-density solves.

Equations (2.1)–(2.5) of the paper are first-kind integral equations —
matching potentials on a check surface to recover an equivalent density —
and their discretisations are severely ill-conditioned (the singular
values of the check-to-equivalent kernel matrix decay exponentially).
Following the sequential companion paper [25], we invert them with a
truncated-SVD pseudo-inverse: singular values strictly below
``rcond * s_max`` are discarded rather than amplified.  The operator
cache keeps that inverse as its two factors and never forms their
product (:meth:`repro.core.precompute.OperatorCache.uc2ue`).  The cutoff
boundary is *inclusive-keep*: a singular value exactly equal to
``rcond * s_max`` survives truncation (see :func:`svd_rank`).

Dtype contract: every function here computes in and returns float64,
rank-0 factors of an empty or exactly-zero matrix included.
"""

from __future__ import annotations

import numpy as np


def svd_rank(s: np.ndarray, rcond: float) -> int:
    """Number of singular values kept at relative cutoff ``rcond``.

    The truncation boundary is inclusive: ``s[i] >= rcond * s[0]`` is
    kept, so a singular value *exactly at* ``rcond * s_max`` survives.
    Returns 0 for an empty spectrum or an exactly-zero matrix (both
    degenerate cases have no dominant mode to scale the cutoff by).
    """
    if rcond < 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s >= rcond * s[0]))


def truncated_svd(
    matrix: np.ndarray, rcond: float = 1e-12
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-truncated SVD factors of a real matrix.

    Shared between the check-to-equivalent inversions
    (:meth:`repro.core.precompute.OperatorCache.uc2ue` / ``dc2de``) and
    the rSVD-compressed M2L backend (:mod:`repro.linalg.rsvd` falls back to it when a sketch
    would be no cheaper than the full decomposition), so both apply the
    same inclusive-keep boundary and float64 contract.

    Parameters
    ----------
    matrix:
        ``(m, n)`` real matrix; coerced to float64.
    rcond:
        Relative cutoff (see :func:`svd_rank`).

    Returns
    -------
    ``(u, s, vt)`` float64 factors with ``u`` of shape ``(m, k)``,
    ``s`` of shape ``(k,)`` and ``vt`` of shape ``(k, n)``, where ``k``
    is the rank at the cutoff.  Degenerate inputs (empty or exactly
    zero) yield rank-0 float64 factors, not an error.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if rcond < 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    k = svd_rank(s, rcond)
    return (
        np.ascontiguousarray(u[:, :k]),
        np.ascontiguousarray(s[:k]),
        np.ascontiguousarray(vt[:k]),
    )
