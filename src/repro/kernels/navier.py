"""Navier (linear elastostatics) single-layer kernel — Kelvin solution.

The paper's introduction names "simulations of linearly elastic materials"
and fracture mechanics among the applications the kernel-independent
method enables (refs [6], [19], [26]).  The Kelvin fundamental solution of
``mu Delta u + (lambda + mu) grad div u = 0`` is

    ``U_ij(x, y) = 1/(16 pi mu (1 - nu)) [ (3 - 4 nu) delta_ij / r
                                           + r_i r_j / r^3 ]``

with Poisson ratio ``nu`` and shear modulus ``mu``.  Included as the
"extension" kernel demonstrating that no FMM code changes are needed for a
new elliptic system — only this file.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, kelvin_matrix

_SIXTEEN_PI = 16.0 * np.pi


class NavierKernel(Kernel):
    """Kelvin solution of 3D linear elastostatics.

    Parameters
    ----------
    mu:
        Shear modulus, ``mu > 0``.
    nu:
        Poisson ratio, ``nu < 0.5`` (incompressible limit excluded; use
        :class:`~repro.kernels.stokes.StokesKernel` for that).
    """

    name = "navier"
    source_dof = 3
    target_dof = 3
    homogeneity = -1.0
    symmetry = "tensor"
    # The paper's model cost, not numpy passes: the Stokeslet's count
    # plus the scaled diagonal.
    flops_per_pair = 50

    def __init__(self, mu: float = 1.0, nu: float = 0.3) -> None:
        if mu <= 0:
            raise ValueError(f"shear modulus must be positive, got {mu}")
        if not -1.0 < nu < 0.5:
            raise ValueError(f"Poisson ratio must be in (-1, 0.5), got {nu}")
        self.mu = float(mu)
        self.nu = float(nu)

    def _kelvin(self) -> tuple[float, float]:
        c = 1.0 / (_SIXTEEN_PI * self.mu * (1.0 - self.nu))
        return (3.0 - 4.0 * self.nu) * c, c

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        return kelvin_matrix(targets, sources, *self._kelvin())

    def profile(self) -> tuple[str, float, float]:
        return ("kelvin", *self._kelvin())

    def __repr__(self) -> str:
        return f"NavierKernel(mu={self.mu}, nu={self.nu})"
