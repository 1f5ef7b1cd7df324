"""Laplace single-layer kernel ``S(x, y) = 1/(4 pi r)`` (Appendix A)."""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Kernel

_FOUR_PI = 4.0 * np.pi


class LaplaceKernel(Kernel):
    """Fundamental solution of ``-Delta u = 0`` in 3D.

    Scalar, homogeneous of degree -1; the workhorse kernel for which
    classical analytic FMM exists and against which the paper benchmarks
    its kernel-independent scheme.
    """

    name = "laplace"
    source_dof = 1
    target_dof = 1
    homogeneity = -1.0
    symmetry = "scalar"
    # 3 subs + 3 mults + 2 adds (r^2), rsqrt, scale, multiply-accumulate
    flops_per_pair = 13

    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        _, inv_r = self._displacements(targets, sources)
        return inv_r / _FOUR_PI

    def matrix_local(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """GEMM-based assembly ``r^2 = |x|^2 + |y|^2 - 2 x.y``.

        Roughly halves the memory traffic of :meth:`matrix` (no
        ``(nt, ns, 3)`` displacement tensor) and moves the dominant work
        into one BLAS call.  The subtraction cancels for close pairs, so
        entries with ``r^2`` below a small multiple of the coordinate
        scale — including coincident points, whose computed ``r^2`` is a
        rounding residual rather than an exact zero — are recomputed with
        the exact displacement formula; in a box-local frame only O(1e-3)
        of the entries need the repair.
        """
        t = np.asarray(targets, dtype=np.float64)
        s = np.asarray(sources, dtype=np.float64)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"targets must be (nt, 3), got {t.shape}")
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError(f"sources must be (ns, 3), got {s.shape}")
        t2 = np.einsum("id,id->i", t, t)
        s2 = np.einsum("id,id->i", s, s)
        r2 = t @ s.T
        r2 *= -2.0
        r2 += t2[:, None]
        r2 += s2[None, :]
        scale2 = (t2.max() if t2.size else 0.0) + (s2.max() if s2.size else 0.0)
        close = r2 <= 4e-3 * scale2
        if close.any():
            ti, si = np.nonzero(close)
            d = t[ti] - s[si]
            r2[ti, si] = np.einsum("id,id->i", d, d)
        with np.errstate(divide="ignore"):
            inv_r = np.where(r2 > 0.0, 1.0 / np.sqrt(r2), 0.0)
        inv_r /= _FOUR_PI
        return inv_r
