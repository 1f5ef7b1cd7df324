"""The FMM-accelerated Stokes single-layer operator.

The exterior Stokes problem with velocity boundary conditions is posed as
a first-kind integral equation ``(S phi)(x) = u(x)`` on the union of the
body surfaces, with

    ``(S phi)(x) = int G(x, y) phi(y) dS(y)``

and ``G`` the Stokeslet of Appendix A.  We discretise by Nystrom
collocation with punctured quadrature plus a local singular correction:
the omitted ``y = x`` contribution is restored as the analytic integral
of the Stokeslet over a flat disk of the node's quadrature area ``A``
(radius ``a = sqrt(A/pi)``, outward normal ``n``),

    ``int_disk G(x, y) dS(y) = a / (8 mu) * (3 I - n n^T)``,

which both recovers first-order quadrature accuracy at the singularity
and keeps the first-kind system well enough conditioned for unrestarted
Krylov convergence.  The operator's matvec is exactly one
particle-interaction evaluation over all surface quadrature points with
densities ``phi_j w_j`` — the computation the paper's parallel FMM
accelerates "tens of [times]" per time step inside the Krylov loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import coerce_density
from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels.stokes import StokesKernel
from repro.linalg.gmres import BlockGMRESResult, GMRESResult, gmres, gmres_block
from repro.parallel.pfmm import ParallelFMM


class StokesSingleLayer:
    """Single-layer Stokes operator over a collection of surfaces.

    Parameters
    ----------
    surfaces:
        The body surfaces; quadrature points are concatenated in order.
    mu:
        Fluid viscosity.
    use_fmm:
        Evaluate the matvec with the KIFMM (default) or directly — the
        direct path is the testing oracle and the small-problem fallback.
    options:
        FMM tuning; accuracy should exceed the Krylov tolerance.
    parallel_ranks:
        When > 0, each matvec runs the persistent parallel operator
        (:class:`~repro.parallel.pfmm.ParallelFMM`) over this many
        logical ranks: setup once per geometry, one overlapped apply per
        GMRES iteration — the paper's "tens of multiplications per time
        step" amortization.
    overlap:
        Overlap the equivalent-density exchange with owned-data work in
        the parallel matvecs (identical results either way).
    """

    def __init__(
        self,
        surfaces: list,
        mu: float = 1.0,
        use_fmm: bool = True,
        options: FMMOptions | None = None,
        parallel_ranks: int = 0,
        overlap: bool = True,
    ) -> None:
        if not surfaces:
            raise ValueError("need at least one surface")
        self.surfaces = surfaces
        self.kernel = StokesKernel(mu=mu)
        self.use_fmm = use_fmm
        self.options = options or FMMOptions(p=6, max_points=80)
        self.parallel_ranks = parallel_ranks
        self.overlap = overlap
        self.matvec_count = 0
        self._fmm: KIFMM | None = None
        self._pfmm: "ParallelFMM | None" = None
        self.refresh_geometry()

    def refresh_geometry(self) -> None:
        """Rebuild after surfaces moved (each time step, as in Section 3)."""
        self.points = np.vstack([s.points for s in self.surfaces])
        self.weights = np.concatenate([s.weights for s in self.surfaces])
        self.n = self.points.shape[0]
        normals = np.vstack([s.normals for s in self.surfaces])
        # singular self-patch correction: (a / 8 mu) (3 I - n n^T)
        a = np.sqrt(self.weights / np.pi)
        eye = np.eye(3)[None, :, :]
        nn = np.einsum("ni,nj->nij", normals, normals)
        self._self_blocks = (a / (8.0 * self.kernel.mu))[:, None, None] * (
            3.0 * eye - nn
        )
        # The previous geometry's operators carry over, rescaled to the
        # new bounding cube: only the first time step pays the precompute.
        previous = self._pfmm or self._fmm
        cache = previous.cache if previous is not None else None
        if self.use_fmm and self.parallel_ranks > 0:
            self._pfmm = ParallelFMM(
                self.parallel_ranks, self.kernel, self.options,
                overlap=self.overlap,
            ).setup(self.points, cache=cache)
        elif self.use_fmm:
            self._fmm = KIFMM(self.kernel, self.options).setup(
                self.points, cache=cache
            )

    def matvec(self, phi: np.ndarray) -> np.ndarray:
        """Apply the discrete single-layer operator to flat densities.

        Accepts a single density — flat ``(3n,)`` or ``(n, 3)`` — or a
        stacked block: ``(3n, nrhs)``, ``(n, 3, nrhs)``, or the 2-D
        row-major form ``(n, 3 * nrhs)`` (the trailing two axes of
        ``(n, 3, nrhs)`` flattened).  Blocks are forwarded to the
        batched multi-RHS FMM apply as views — no flatten copies — so
        one blocked matvec rides one evaluation (and, on the parallel
        path, one overlapped exchange).  Returns the result in the
        matching flat form: ``(3n,)``, ``(3n, nrhs)`` or
        ``(n, 3 * nrhs)``.
        """
        phi = np.asarray(phi, dtype=np.float64)
        wide = (
            phi.ndim == 2
            and phi.shape[0] == self.n
            and phi.shape[1] != 3
            and phi.shape[1] % 3 == 0
        )
        phi3, nrhs, single = coerce_density(
            phi.reshape(self.n, 3, -1) if wide else phi, self.n, 3
        )
        weighted = phi3 * self.weights[:, None, None]
        if self._pfmm is not None:
            u = self._pfmm.apply(weighted if not single else weighted[:, :, 0])
        elif self._fmm is not None:
            u = self._fmm.apply(weighted if not single else weighted[:, :, 0])
        else:
            u = np.empty((self.n, 3, nrhs))
            for r in range(nrhs):
                u[:, :, r] = self.kernel.apply(
                    self.points, self.points, weighted[:, :, r]
                )
            if single:
                u = u[:, :, 0]
        if single:
            u = u + np.einsum("nij,nj->ni", self._self_blocks, phi3[:, :, 0])
        else:
            u = u + np.einsum("nij,njr->nir", self._self_blocks, phi3)
        self.matvec_count += 1
        if single:
            return u.ravel()
        if wide:
            return u.reshape(self.n, 3 * nrhs)
        return u.reshape(3 * self.n, nrhs)

    def solve(
        self,
        u_bc: np.ndarray,
        tol: float = 1e-6,
        maxiter: int = 1000,
        restart: int = 80,
    ) -> GMRESResult:
        """Solve ``S phi = u_bc`` for the traction-like density."""
        return gmres(
            self.matvec,
            np.asarray(u_bc, dtype=np.float64).ravel(),
            tol=tol,
            maxiter=maxiter,
            restart=restart,
        )

    def solve_block(
        self,
        u_bc_block: np.ndarray,
        tol: float = 1e-6,
        maxiter: int = 1000,
        restart: int = 80,
    ) -> BlockGMRESResult:
        """Solve ``S phi = u`` for a block of boundary conditions.

        One lockstep :func:`~repro.linalg.gmres.gmres_block` solve whose
        every Arnoldi step is a single blocked matvec — i.e. one batched
        multi-RHS interaction evaluation for all right-hand sides.
        ``u_bc_block`` is ``(3n, nrhs)`` or ``(n, 3, nrhs)``; the
        solution block comes back as ``(3n, nrhs)`` columns.
        """
        U = np.asarray(u_bc_block, dtype=np.float64)
        if U.ndim == 3:
            U = U.reshape(3 * self.n, -1)
        return gmres_block(
            self.matvec, U, tol=tol, maxiter=maxiter, restart=restart
        )

    def body_slices(self) -> list[slice]:
        """Index ranges of each surface within the concatenated points."""
        out, start = [], 0
        for s in self.surfaces:
            out.append(slice(start, start + s.n))
            start += s.n
        return out


def evaluate_velocity(
    operator: StokesSingleLayer,
    density: np.ndarray,
    points: np.ndarray,
    use_fmm: bool = False,
    options: FMMOptions | None = None,
) -> np.ndarray:
    """Fluid velocity at off-surface points from a solved density.

    Evaluates ``u(x) = int G(x, y) phi(y) dS(y)`` at arbitrary field
    points (e.g. a visualisation slice).  With ``use_fmm`` the evaluation
    runs through a KIFMM with disjoint sources and targets; otherwise
    directly.  Points on or inside a body produce the (non-physical)
    single-layer continuation; keep them outside the surfaces.
    """
    points = np.asarray(points, dtype=np.float64)
    phi = np.asarray(density, dtype=np.float64).reshape(operator.n, 3)
    weighted = phi * operator.weights[:, None]
    if use_fmm:
        fmm = KIFMM(operator.kernel, options or operator.options)
        fmm.setup(operator.points, points)
        return fmm.apply(weighted)
    return operator.kernel.apply(points, operator.points, weighted)


def solve_single_layer(
    operator: StokesSingleLayer,
    u_bc: np.ndarray,
    tol: float = 1e-6,
    maxiter: int = 1000,
    restart: int = 80,
) -> np.ndarray:
    """Convenience wrapper returning the density as an ``(n, 3)`` array."""
    result = operator.solve(u_bc, tol=tol, maxiter=maxiter, restart=restart)
    if not result.converged:
        raise RuntimeError(
            f"GMRES failed to converge: residual {result.residual:.2e} "
            f"after {result.iterations} iterations"
        )
    return result.x.reshape(operator.n, 3)
