"""Laplace single-layer kernel ``S(x, y) = 1/(4 pi r)`` (Appendix A)."""

from __future__ import annotations

import numpy as np

from repro.kernels.base import RadialKernel

_FOUR_PI = 4.0 * np.pi


class LaplaceKernel(RadialKernel):
    """Fundamental solution of ``-Delta u = 0`` in 3D.

    Scalar, homogeneous of degree -1; the workhorse kernel for which
    classical analytic FMM exists and against which the paper benchmarks
    its kernel-independent scheme.
    """

    name = "laplace"
    homogeneity = -1.0
    # The paper's model cost, not numpy passes: 3 subs + 3 mults + 2 adds
    # (r^2), rsqrt, scale, multiply-accumulate.
    flops_per_pair = 13

    def _radial(self, r: np.ndarray) -> np.ndarray:
        return np.divide(1.0 / _FOUR_PI, r, out=r)

    def profile(self) -> tuple[str, float]:
        return ("inv_r", 1.0 / _FOUR_PI)
