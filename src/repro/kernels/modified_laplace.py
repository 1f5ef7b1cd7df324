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

from repro.kernels.base import RadialKernel

_FOUR_PI = 4.0 * np.pi


class ModifiedLaplaceKernel(RadialKernel):
    """Fundamental solution of ``alpha u - Delta u = 0`` in 3D.

    Parameters
    ----------
    lam:
        Screening parameter ``lambda = sqrt(alpha) > 0``.  The kernel is
        *not* homogeneous, so translation operators are precomputed per
        tree level instead of being rescaled.
    """

    name = "modified_laplace"
    homogeneity = None
    # The paper's model cost, not numpy passes: Laplace plus the
    # exponential, which costs ~15-20 cycles even with the CXML fast math
    # library the paper uses — why it reports ~200K cycles/particle
    # against Laplace's 160K.
    flops_per_pair = 30

    def __init__(self, lam: float = 1.0) -> None:
        if lam <= 0:
            raise ValueError(f"screening parameter must be positive, got {lam}")
        self.lam = float(lam)

    def _radial(self, r: np.ndarray) -> np.ndarray:
        decay = np.multiply(r, -self.lam)
        np.exp(decay, out=decay)
        np.divide(1.0 / _FOUR_PI, r, out=r)
        decay *= r
        return decay

    def __repr__(self) -> str:
        return f"ModifiedLaplaceKernel(lam={self.lam})"
