"""Deterministic randomized SVD for M2L operator compression.

The rSVD-compressed M2L backend (Kailasa, Betcke & El Kazdadi,
arXiv:2408.07436) stores each offset-class translation operator as
low-rank factors and evaluates V-lists as two stacked BLAS-3 GEMMs.
This module provides the compressor: the Halko–Martinsson–Tropp
randomized range sketch with power iteration, truncated at a relative
singular-value tolerance with the same inclusive-keep boundary as
:func:`repro.linalg.pinv.svd_rank`.

Determinism contract: every Gaussian test column is drawn from one
stream seeded with the caller-provided ``seed``, and the sketch widths
follow a fixed schedule, so the accepted factorisation is a pure
function of ``(matrix, tol, seed, oversample, power_iters)`` —
independent of call order and of any process-global RNG state.  Two
setups with the same seed produce bitwise-identical factors, which is
what makes rsvd-backed applies bitwise reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.pinv import svd_rank, truncated_svd


def randomized_svd(
    matrix: np.ndarray,
    tol: float,
    *,
    seed: int,
    oversample: int = 8,
    power_iters: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD factors via a fixed-seed randomized range sketch.

    Parameters
    ----------
    matrix:
        ``(m, n)`` real matrix; coerced to float64.
    tol:
        Relative singular-value cutoff; like ``rcond`` elsewhere in
        :mod:`repro.linalg`, the boundary is inclusive-keep.
    seed:
        RNG seed of the Gaussian test matrix (keyword-only: the
        determinism contract is the point of this function).
    oversample:
        Extra sketch columns beyond the current rank guess.
    power_iters:
        Subspace (power) iterations sharpening the sketch for slowly
        decaying spectra.

    Returns
    -------
    ``(u, s, vt)`` float64 factors, exactly the shapes of
    :func:`~repro.linalg.pinv.truncated_svd`.  Degenerate inputs (empty
    or exactly-zero matrices) yield rank-0 float64 factors.

    The sketch starts ``16 + oversample`` columns wide and grows (rank
    guess doubling) until the truncation boundary is resolved *inside*
    the sketched spectrum (``rank < sketch width``).  Growing keeps the
    orthonormal block already built: only the new columns are drawn,
    power-iterated and orthogonalised against it, so the work is that
    of one pass at the final width.  If the sketch would be as wide as
    the matrix, the exact :func:`~repro.linalg.pinv.truncated_svd` is
    used instead — same boundary, same contract, no sketching noise.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if tol < 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    m, n = a.shape
    full = min(m, n)
    if full == 0 or not np.any(a):
        return (
            np.zeros((m, 0), dtype=np.float64),
            np.zeros(0, dtype=np.float64),
            np.zeros((0, n), dtype=np.float64),
        )
    rng = np.random.default_rng(seed)
    q = np.empty((m, 0), dtype=np.float64)
    b = np.empty((0, n), dtype=np.float64)  # q.T @ a, grown with q
    k = min(16, full)
    while True:
        width = min(k + oversample, full)
        if width >= full:
            return truncated_svd(a, tol)
        block = _orthonormal_outside(
            q, a @ rng.standard_normal((n, width - q.shape[1]))
        )
        for _ in range(power_iters):
            z, _ = np.linalg.qr(a.T @ block)
            block = _orthonormal_outside(q, a @ z)
        q = np.hstack([q, block])
        b = np.vstack([b, block.T @ a])
        ub, s, vt = np.linalg.svd(b, full_matrices=False)
        keep = svd_rank(s, tol)
        if keep < width:
            return (
                np.ascontiguousarray(q @ ub[:, :keep]),
                np.ascontiguousarray(s[:keep]),
                np.ascontiguousarray(vt[:keep]),
            )
        k = min(2 * k, full)


def _orthonormal_outside(q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``range(y)`` made orthogonal to ``q``.

    Project-then-QR, twice: power-iterated columns lean towards the
    dominant subspace ``q`` already spans, so one projection leaves an
    ``eps * cond`` component behind, and where ``y`` is numerically
    rank deficient the first QR fills in directions that are not
    orthogonal to ``q`` at all.
    """
    if q.shape[1] == 0:
        return np.linalg.qr(y)[0]
    for _ in range(2):
        y = np.linalg.qr(y - q @ (q.T @ y))[0]
    return y
