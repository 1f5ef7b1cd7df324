"""Kernel interface used by the whole package.

The kernel-independence claim of the paper (Section 1) is that the FMM
machinery only requires *kernel evaluations* — no analytic multipole
expansions.  Accordingly the interface below exposes a single mathematical
operation, :meth:`Kernel.matrix`, assembling the dense interaction matrix
between arbitrary target and source point sets, plus metadata the
implementation uses for efficiency (degrees of freedom, homogeneity degree
for operator rescaling across tree levels, flop cost for the performance
model).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Kernel(ABC):
    """A single-layer kernel ``G(x, y)`` of an elliptic PDE in 3D.

    Attributes
    ----------
    name:
        Human-readable identifier (``"laplace"``, ``"stokes"``, ...).
    dim:
        Spatial dimension; all paper experiments are in 3D.
    source_dof / target_dof:
        Components per source density / target potential.  Scalar kernels
        have 1; Stokes and Navier have 3.
    homogeneity:
        Degree ``h`` with ``G(a*x, a*y) = a**h * G(x, y)`` for ``a > 0``,
        or ``None`` for inhomogeneous kernels (modified Laplace).  Used to
        rescale precomputed translation operators between tree levels.
    symmetry:
        How ``G`` transforms under the 48 signed axis permutations ``Q``
        of the cube: ``"scalar"`` — ``G(Qx, Qy) = G(x, y)`` (Laplace,
        modified Laplace); ``"tensor"`` — ``G(Qx, Qy) = Q G(x, y) Q^T``
        with ``source_dof = target_dof = 3`` (Stokes, Navier); ``None``
        — no such rule.  Like ``homogeneity`` it only saves precompute:
        the compressed M2L factors of a kernel that declares a rule are
        computed for one offset per symmetry class and permuted onto
        the others (``docs/architecture.md``, "Operator precompute and
        cube symmetry"); with ``None`` every offset is factored itself.
    flops_per_pair:
        Estimated floating-point operations to evaluate the full
        ``target_dof x source_dof`` interaction block of one point pair;
        feeds the TCS-1 performance model.
    """

    name: str = "abstract"
    dim: int = 3
    source_dof: int = 1
    target_dof: int = 1
    homogeneity: float | None = None
    symmetry: str | None = None
    flops_per_pair: int = 0

    @abstractmethod
    def matrix(self, targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Dense interaction matrix between point sets.

        Parameters
        ----------
        targets:
            ``(nt, 3)`` evaluation points.
        sources:
            ``(ns, 3)`` singularity locations.

        Returns
        -------
        ``(nt * target_dof, ns * source_dof)`` matrix ``K`` such that the
        potentials are ``u = K @ phi`` with point-major component ordering
        (row ``t * target_dof + i`` is component ``i`` at target ``t``).
        Coincident points (``x == y``) contribute zero, the standard
        convention for excluding self-interaction in particle sums.
        """

    def matrix_local(
        self, targets: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """:meth:`matrix` for *box-local* coordinate frames.

        The planned evaluator shifts every interaction block into the
        frame of its box (coordinates of order the box half-width), which
        lets kernels substitute cancellation-sensitive fast paths — e.g.
        assembling ``r^2 = |x|^2 + |y|^2 - 2 x.y`` with one GEMM instead
        of materialising the ``(nt, ns, 3)`` displacement tensor.  The
        default is the exact reference implementation.
        """
        return self.matrix(targets, sources)

    def apply(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        density: np.ndarray,
        block: int = 2048,
    ) -> np.ndarray:
        """Matrix-free evaluation ``u = K @ phi`` blocked over targets.

        Avoids materialising the full ``O(nt * ns)`` matrix; used for the
        direct near-field (U-list) interactions and the O(N^2) baseline.

        Parameters
        ----------
        density:
            ``(ns, source_dof)`` or flat ``(ns * source_dof,)`` densities.

        Returns
        -------
        ``(nt, target_dof)`` potentials.
        """
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        sources = np.ascontiguousarray(sources, dtype=np.float64)
        phi = np.asarray(density, dtype=np.float64).reshape(-1)
        if phi.shape[0] != sources.shape[0] * self.source_dof:
            raise ValueError(
                f"density has {phi.shape[0]} entries, expected "
                f"{sources.shape[0] * self.source_dof}"
            )
        out = np.empty(targets.shape[0] * self.target_dof, dtype=np.float64)
        for start in range(0, targets.shape[0], block):
            stop = min(start + block, targets.shape[0])
            sub = self.matrix(targets[start:stop], sources)
            out[start * self.target_dof : stop * self.target_dof] = sub @ phi
        return out.reshape(targets.shape[0], self.target_dof)

    # -- helpers shared by the concrete kernels ---------------------------

    @staticmethod
    def _displacements(
        targets: np.ndarray, sources: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pairwise displacement vectors and safe inverse distances.

        Returns ``(diff, inv_r)`` with ``diff`` of shape ``(nt, ns, 3)``
        and ``inv_r`` of shape ``(nt, ns)``; ``inv_r`` is 0 where the pair
        is coincident so singular self-pairs drop out of all kernels.
        """
        targets = np.asarray(targets, dtype=np.float64)
        sources = np.asarray(sources, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[1] != 3:
            raise ValueError(f"targets must be (nt, 3), got {targets.shape}")
        if sources.ndim != 2 or sources.shape[1] != 3:
            raise ValueError(f"sources must be (ns, 3), got {sources.shape}")
        diff = targets[:, None, :] - sources[None, :, :]
        r2 = np.einsum("tsd,tsd->ts", diff, diff)
        with np.errstate(divide="ignore"):
            inv_r = np.where(r2 > 0.0, 1.0 / np.sqrt(r2), 0.0)
        return diff, inv_r

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))
