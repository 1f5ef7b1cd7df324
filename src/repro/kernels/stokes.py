"""Stokes single-layer kernel (Stokeslet / Oseen tensor).

Appendix A: for ``-mu Delta u + grad p = 0, div u = 0``,

    ``S(x, y) = 1/(8 pi mu) ( I / r  +  r (x) r / r^3 )``.

This is the kernel behind the paper's flagship application — boundary
integral formulations of viscous incompressible flow (Figure 4.1, the
2.1-billion-unknown runs of Table 4.3).  Vector-valued: 3 density
components per source, 3 velocity components per target.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, kelvin_matrix

_EIGHT_PI = 8.0 * np.pi


class StokesKernel(Kernel):
    """Stokeslet in 3D.

    Parameters
    ----------
    mu:
        Dynamic viscosity ``mu > 0``.
    """

    name = "stokes"
    source_dof = 3
    target_dof = 3
    homogeneity = -1.0
    symmetry = "tensor"
    # The paper's model cost, not numpy passes: r^2 (8), rsqrt (1),
    # inv_r3 (2), 9 tensor entries (~3 flops each), scaling — matches its
    # observation that Stokes carries roughly 4x the per-pair work of
    # Laplace.
    flops_per_pair = 49

    def __init__(self, mu: float = 1.0) -> None:
        if mu <= 0:
            raise ValueError(f"viscosity must be positive, got {mu}")
        self.mu = float(mu)

    def _kelvin(self) -> tuple[float, float]:
        c = 1.0 / (_EIGHT_PI * self.mu)
        return c, c

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        return kelvin_matrix(targets, sources, *self._kelvin())

    def profile(self) -> tuple[str, float, float]:
        return ("kelvin", *self._kelvin())

    def __repr__(self) -> str:
        return f"StokesKernel(mu={self.mu})"
