"""Direct O(N^2) summation — the baseline and accuracy oracle.

Section 2 of the paper: "Direct implementation of this summation gives an
O(N^2) algorithm."  Every FMM result in the test suite and the accuracy
benchmarks is validated against this evaluator on subsampled targets.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel
from repro.octree.tree import require_points
from repro.util.flops import FlopCounter


def direct_evaluate(
    kernel: Kernel,
    targets: np.ndarray,
    sources: np.ndarray,
    density: np.ndarray,
    block: int = 1024,
    flops: FlopCounter | None = None,
) -> np.ndarray:
    """Compute ``u_i = sum_j G(x_i, y_j) phi_j`` by direct summation.

    Parameters
    ----------
    kernel:
        Any :class:`~repro.kernels.base.Kernel`.
    targets:
        ``(nt, d)`` evaluation points ``x_i``, ``d`` the kernel's
        dimension (a mismatch is the setup paths' named error).
    sources:
        ``(ns, d)`` source points ``y_j``.
    density:
        ``(ns, source_dof)`` or flat source densities ``phi_j``.
    block:
        Targets per tile row.  It does not set the peak memory:
        :meth:`Kernel.apply` tiles the sources as well, so no more than
        ``TILE_ENTRIES`` kernel entries exist at once whatever
        ``nt``, ``ns`` and ``block`` are.
    flops:
        Optional counter credited with ``nt * ns`` pair evaluations under
        phase ``"direct"``.

    Returns
    -------
    ``(nt, target_dof)`` potentials.
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    require_points(targets, "targets", kernel.dim)
    require_points(sources, "sources", kernel.dim)
    result = kernel.apply(targets, sources, density, block=block)
    if flops is not None:
        flops.add_pairs(
            "direct", float(targets.shape[0]) * sources.shape[0], kernel.flops_per_pair
        )
    return result


def relative_error(
    approx: np.ndarray, exact: np.ndarray, ord: int | float = 2
) -> float:
    """Relative error ``|approx - exact| / |exact|`` used throughout §4.

    Falls back to the absolute norm when ``exact`` vanishes.
    """
    approx = np.asarray(approx, dtype=np.float64).ravel()
    exact = np.asarray(exact, dtype=np.float64).ravel()
    if approx.shape != exact.shape:
        raise ValueError(f"shape mismatch: {approx.shape} vs {exact.shape}")
    denom = np.linalg.norm(exact, ord)
    num = np.linalg.norm(approx - exact, ord)
    return float(num / denom) if denom > 0 else float(num)
