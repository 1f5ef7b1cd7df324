"""Derived kernels: gradients (target side) and dipoles (source side).

The KIFMM machinery separates three kernel roles (as the reference
kifmm3d implementation does):

- the *translation* kernel builds and moves equivalent densities;
- the *source* kernel maps the user's source densities to check
  potentials (S2M and the direct X-list evaluations);
- the *target* kernel maps equivalent densities (or raw sources, for the
  U and W lists) to the user's target quantity.

Because an upward equivalent density is an ordinary single-layer density
of the translation kernel, any source distribution whose far potential
satisfies the same PDE can feed it — e.g. *dipoles* (the double-layer
densities of boundary integral formulations, refs [6], [19], [26] of the
paper) — and any linear functional of the potential can be read out at
the targets — e.g. the *gradient* (forces in molecular dynamics).

This module provides those derived kernels for the Laplace and modified
Laplace equations:

- ``LaplaceGradientKernel``:  ``-grad_x 1/(4 pi r)`` (target_dof=3)
- ``LaplaceDipoleKernel``:    ``grad_y 1/(4 pi r) . d`` (source_dof=3;
  the density is the dipole vector ``d_j = n_j * strength_j``)
- ``ModifiedLaplaceGradientKernel`` / ``ModifiedLaplaceDipoleKernel``.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from repro.kernels.base import Kernel, plane_matrix

_FOUR_PI = 4.0 * np.pi


class _WeightedDifference(Kernel):
    """``K = (x - y) w(r)``: the difference vector under a radial weight.

    The three components are the target's (a gradient, ``target_dof = 3``)
    or the source's (a dipole, ``source_dof = 3``); either way the matrix
    is the three difference planes scaled by one weight plane and written
    to their places in the point-major output.
    """

    @abstractmethod
    def _weight(self, r2: np.ndarray) -> np.ndarray:
        """``w`` from a fresh ``r^2`` holding ``inf`` at coincident pairs,
        where ``w`` must come out zero."""

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        def fill(out: np.ndarray, d: np.ndarray, r2: np.ndarray) -> None:
            if self.target_dof == 3:
                components = out[:, :, :, 0].transpose(1, 0, 2)
            else:
                components = out[:, 0, :, :].transpose(2, 0, 1)
            np.multiply(d, self._weight(r2), out=components)

        return plane_matrix(
            targets, sources, self.target_dof, self.source_dof, fill
        )


def _laplace_weight(r2: np.ndarray, c: float) -> np.ndarray:
    """``c / r^3``."""
    r3 = np.sqrt(r2)
    r3 *= r2
    return np.divide(c, r3, out=r3)


def _screened_weight(r2: np.ndarray, lam: float, c: float) -> np.ndarray:
    """``c (1 + lam r) exp(-lam r) / r^3``.

    Taken as ``exp(-lam r) (1/r)^2 (1/r + lam) c`` so that a coincident
    pair (``r = inf``) gives ``0 * 0 * lam`` and not ``inf * 0``.
    """
    r = np.sqrt(r2, out=r2)
    weight = np.multiply(r, -lam)
    np.exp(weight, out=weight)
    inv_r = np.divide(1.0, r, out=r)
    weight *= inv_r
    weight *= inv_r
    inv_r += lam
    inv_r *= c
    weight *= inv_r
    return weight


class LaplaceGradientKernel(_WeightedDifference):
    """Gradient of the Laplace single-layer kernel at the target.

    ``K_i(x, y) = d/dx_i [1/(4 pi r)] = -r_i / (4 pi r^3)``.
    """

    name = "laplace_gradient"
    source_dof = 1
    target_dof = 3
    homogeneity = -2.0
    flops_per_pair = 20

    def _weight(self, r2: np.ndarray) -> np.ndarray:
        return _laplace_weight(r2, -1.0 / _FOUR_PI)


class LaplaceDipoleKernel(_WeightedDifference):
    """Laplace dipole (double-layer style) source kernel.

    The density is the dipole vector ``d``; the potential is
    ``u(x) = d . grad_y [1/(4 pi r)] = d . r / (4 pi r^3)``
    with ``r = x - y``.
    """

    name = "laplace_dipole"
    source_dof = 3
    target_dof = 1
    homogeneity = -2.0
    flops_per_pair = 20

    def _weight(self, r2: np.ndarray) -> np.ndarray:
        return _laplace_weight(r2, 1.0 / _FOUR_PI)


class ModifiedLaplaceGradientKernel(_WeightedDifference):
    """Gradient of ``exp(-lam r)/(4 pi r)`` at the target.

    ``K_i = -r_i (1 + lam r) exp(-lam r) / (4 pi r^3)``.
    """

    name = "modified_laplace_gradient"
    source_dof = 1
    target_dof = 3
    homogeneity = None
    flops_per_pair = 34

    def __init__(self, lam: float = 1.0) -> None:
        if lam <= 0:
            raise ValueError(f"screening parameter must be positive, got {lam}")
        self.lam = float(lam)

    def _weight(self, r2: np.ndarray) -> np.ndarray:
        return _screened_weight(r2, self.lam, -1.0 / _FOUR_PI)

    def __repr__(self) -> str:
        return f"ModifiedLaplaceGradientKernel(lam={self.lam})"


class ModifiedLaplaceDipoleKernel(_WeightedDifference):
    """Screened dipole source kernel: ``d . grad_y [exp(-lam r)/(4 pi r)]``."""

    name = "modified_laplace_dipole"
    source_dof = 3
    target_dof = 1
    homogeneity = None
    flops_per_pair = 34

    def __init__(self, lam: float = 1.0) -> None:
        if lam <= 0:
            raise ValueError(f"screening parameter must be positive, got {lam}")
        self.lam = float(lam)

    def _weight(self, r2: np.ndarray) -> np.ndarray:
        return _screened_weight(r2, self.lam, 1.0 / _FOUR_PI)

    def __repr__(self) -> str:
        return f"ModifiedLaplaceDipoleKernel(lam={self.lam})"


def gradient_kernel_for(kernel: Kernel) -> Kernel:
    """The gradient (target-side) kernel matching a translation kernel."""
    from repro.kernels.laplace import LaplaceKernel
    from repro.kernels.modified_laplace import ModifiedLaplaceKernel

    if isinstance(kernel, LaplaceKernel):
        return LaplaceGradientKernel()
    if isinstance(kernel, ModifiedLaplaceKernel):
        return ModifiedLaplaceGradientKernel(lam=kernel.lam)
    raise ValueError(f"no gradient kernel registered for {kernel.name!r}")


def dipole_kernel_for(kernel: Kernel) -> Kernel:
    """The dipole (source-side) kernel matching a translation kernel."""
    from repro.kernels.laplace import LaplaceKernel
    from repro.kernels.modified_laplace import ModifiedLaplaceKernel

    if isinstance(kernel, LaplaceKernel):
        return LaplaceDipoleKernel()
    if isinstance(kernel, ModifiedLaplaceKernel):
        return ModifiedLaplaceDipoleKernel(lam=kernel.lam)
    raise ValueError(f"no dipole kernel registered for {kernel.name!r}")
