"""Single-layer kernels of the same PDEs in the plane (``dim = 2``).

Section 2 of the paper poses the method for ``R^d (d = 2, 3)``.  With
``r = x - y``, ``r = |r|``:

- Laplace:          ``-log(r) / (2 pi)``
- modified Laplace: ``K_0(lam r) / (2 pi)`` (modified Bessel)
- Stokes:           ``(1/4 pi mu) (-log(r) I + r (x) r / r^2)``

None is homogeneous — the logarithm shifts under scaling — so their
translation operators are precomputed per tree level, exactly like the
3D modified Laplace kernel's.  Nothing else about them is special: the
tree, lists, surfaces, operators, plan and evaluator all read the
dimension from :attr:`Kernel.dim`.  None names a compiled profile, so
every stage of an FMM over them runs numpy.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel, RadialKernel, plane_matrix

_TWO_PI = 2.0 * np.pi


class Laplace2DKernel(RadialKernel):
    """``S(x, y) = -log(r) / (2 pi)``, the 2D Laplace kernel."""

    name = "laplace2d"
    dim = 2
    flops_per_pair = 14

    def _radial(self, r: np.ndarray) -> np.ndarray:
        coincident = np.isinf(r)
        np.log(r, out=r)
        r *= -1.0 / _TWO_PI
        r[coincident] = 0.0
        return r


class ModifiedLaplace2DKernel(RadialKernel):
    """``S(x, y) = K_0(lam r) / (2 pi)`` for ``alpha u - Delta u = 0``.

    ``K_0`` is the modified Bessel function of the second kind — the
    kind of special function a kernel-dependent FMM would have to expand
    analytically, and exactly what the paper's approach sidesteps.
    ``K_0(inf) = 0`` drops the coincident pairs.
    """

    name = "modified_laplace2d"
    dim = 2
    flops_per_pair = 30

    def __init__(self, lam: float = 1.0) -> None:
        if lam <= 0:
            raise ValueError(f"screening parameter must be positive, got {lam}")
        self.lam = float(lam)

    def _radial(self, r: np.ndarray) -> np.ndarray:
        # Imported here: scipy.special adds ~20 MB to every process
        # that imports repro.kernels, and only this kernel needs it.
        from scipy.special import k0

        r *= self.lam
        k0(r, out=r)
        r *= 1.0 / _TWO_PI
        return r

    def __repr__(self) -> str:
        return f"ModifiedLaplace2DKernel(lam={self.lam})"


class Stokes2DKernel(Kernel):
    """The 2D Stokeslet ``(1/4 pi mu)(-log(r) I + r (x) r / r^2)``."""

    name = "stokes2d"
    dim = 2
    source_dof = 2
    target_dof = 2
    symmetry = "tensor"
    flops_per_pair = 32

    def __init__(self, mu: float = 1.0) -> None:
        if mu <= 0:
            raise ValueError(f"viscosity must be positive, got {mu}")
        self.mu = float(mu)

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        c = 1.0 / (4.0 * np.pi * self.mu)

        def fill(out: np.ndarray, d: np.ndarray, r2: np.ndarray) -> None:
            coincident = np.isinf(r2)
            log = np.log(r2)
            log *= -0.5 * c
            log[coincident] = 0.0
            c_r2 = np.divide(c, r2, out=r2)
            scaled = np.empty_like(log)
            for i in range(2):
                np.multiply(d[i], c_r2, out=scaled)
                out[:, i, :, i] = scaled * d[i] + log
                out[:, i, :, 1 - i] = scaled * d[1 - i]

        return plane_matrix(targets, sources, 2, 2, fill)

    def __repr__(self) -> str:
        return f"Stokes2DKernel(mu={self.mu})"
