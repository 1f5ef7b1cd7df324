"""Modified Laplace (screened Coulomb / Yukawa) kernel.

Appendix A: for ``alpha u - Delta u = 0`` the single-layer kernel is
``S(x, y) = exp(-lambda r) / (4 pi r)`` with ``lambda = sqrt(alpha)``.
This models screened Coulombic interactions in molecular dynamics — one
of the applications motivating the kernel-independent approach, since
dedicated analytic expansions for it appeared only with Greengard-Huang
(2002, ref. [8] of the paper).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel

_FOUR_PI = 4.0 * np.pi


class ModifiedLaplaceKernel(Kernel):
    """Fundamental solution of ``alpha u - Delta u = 0`` in 3D.

    Parameters
    ----------
    lam:
        Screening parameter ``lambda = sqrt(alpha) > 0``.  The kernel is
        *not* homogeneous, so translation operators are precomputed per
        tree level instead of being rescaled.
    """

    name = "modified_laplace"
    source_dof = 1
    target_dof = 1
    homogeneity = None
    symmetry = "scalar"
    # Laplace cost plus the exponential: exp costs ~15-20 cycles even
    # with the CXML fast math library the paper uses, which is why the
    # paper reports ~200K cycles/particle vs Laplace's 160K.
    flops_per_pair = 30

    def __init__(self, lam: float = 1.0) -> None:
        if lam <= 0:
            raise ValueError(f"screening parameter must be positive, got {lam}")
        self.lam = float(lam)

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        _, inv_r = self._displacements(targets, sources)
        # exp(-lam * r): recover r from inv_r, guarding coincident pairs.
        with np.errstate(divide="ignore"):
            r = np.where(inv_r > 0.0, 1.0 / inv_r, 0.0)
        return np.exp(-self.lam * r) * inv_r / _FOUR_PI

    def __repr__(self) -> str:
        return f"ModifiedLaplaceKernel(lam={self.lam})"
