"""Public KIFMM API.

Typical use::

    from repro import KIFMM, LaplaceKernel

    fmm = KIFMM(LaplaceKernel())
    fmm.setup(points)              # build tree, lists, operators
    u = fmm.apply(density)         # one interaction evaluation
    u = fmm.apply(density2)        # setup is reused, as in the paper's
                                   # Krylov loops ("tens of interaction
                                   # calculations" per time step)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluator import resolve_kernels
from repro.core.m2lschedule import M2L_DTYPES, M2L_MODES, M2LSchedule
from repro.core.precompute import OperatorCache
from repro.core.surfaces import INNER_RADIUS, OUTER_RADIUS
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists
from repro.octree.tree import Octree, build_tree, check_tree_parameters
from repro.util.flops import FlopCounter
from repro.util.timing import PhaseTimer


@dataclass
class FMMOptions:
    """Tuning knobs of the method.

    Attributes
    ----------
    p:
        Surface discretisation order (points per cube edge).  Accuracy is
        controlled by ``p``; the paper's experiments target relative error
        1e-5 (p=6 reaches roughly that for the Laplace kernel — see
        ``benchmarks/bench_accuracy.py``).
    max_points:
        The ``s`` of the paper — maximum sources (or targets) per leaf.
    m2l:
        V-list translation backend: ``"dense"``, ``"rsvd"``
        (randomized-SVD-compressed operators applied as stacked BLAS-3
        GEMMs), or ``"auto"`` (default), which prices the two per tree
        level from the level's V-list statistics and the operator
        cache's measured ranks (:mod:`repro.core.m2lschedule`): ``rsvd``
        at ``p = 6`` and ``dense`` at ``p = 4``.  The paper's FFT M2L
        was measured slower than that choice on every level of the
        benchmark trees and is not executed; the performance model
        still prices it (:mod:`repro.perfmodel.costs`).
    dtype:
        Arithmetic precision of the rsvd M2L factors: ``"float64"``
        (default) or ``"float32"`` (mixed precision — single-precision
        factors and multiplies, float64 accumulation into the downward
        check buffers).  Ignored by the dense backend.
    inner, outer:
        Equivalent/check surface radius factors (Section 2.1 constraints
        require ``1 < inner < outer < 3``).
    rcond:
        SVD cutoff for the regularised inversions.
    max_depth:
        Tree refinement cut-off, 1 to 21 (the Morton key capacity).
    balance:
        Apply 2:1 tree balancing after construction (optional; the
        adaptive lists handle unbalanced trees — see
        :mod:`repro.octree.balance`).  One rank only: balancing needs
        the complete tree.
    sanitize:
        Run the planned applies under the runtime sanitizers
        (:mod:`repro.analysis.sanitize`): BufferPool lifecycle with
        NaN poisoning, finite checks at every plan phase boundary, and
        GEMM aliasing guards.  Equivalent to setting ``REPRO_SANITIZE=1``
        in the environment; intended for CI and debugging (bounded
        overhead, but not free).
    """

    p: int = 6
    max_points: int = 60
    m2l: str = "auto"
    dtype: str = "float64"
    inner: float = INNER_RADIUS
    outer: float = OUTER_RADIUS
    rcond: float = 1e-12
    max_depth: int = 21
    balance: bool = False
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        check_tree_parameters(self.max_points, self.max_depth)
        if self.m2l not in M2L_MODES:
            raise ValueError(
                f"m2l must be one of {M2L_MODES}, got {self.m2l!r}"
            )
        if self.dtype not in M2L_DTYPES:
            raise ValueError(
                f"dtype must be one of {M2L_DTYPES}, got {self.dtype!r}"
            )
        if not 1.0 < self.inner < self.outer < 3.0:
            raise ValueError(
                f"surface radii must satisfy 1 < inner < outer < 3, "
                f"got inner={self.inner}, outer={self.outer}"
            )


class KIFMM:
    """Kernel-independent fast multipole evaluator.

    The one-rank instance of the parallel operator: :meth:`setup`
    builds the tree, wraps it as a one-rank
    :class:`~repro.parallel.ptree.ParallelTree` and runs the setup every
    rank runs (:func:`repro.parallel.pfmm.setup_on_tree` — lists, M2L
    schedule, level-major execution plan, operators); :meth:`apply` is
    that rank's apply, whose exchange programs are empty.

    Parameters
    ----------
    kernel:
        Any :class:`~repro.kernels.base.Kernel`; the algorithm uses only
        kernel evaluations (the paper's central claim).
    options:
        :class:`FMMOptions`; the defaults are the paper's ``s = 60`` and
        ``p = 6`` (1e-5-ish accuracy for Laplace) with ``m2l="auto"``,
        which at that order resolves to the compressed ``rsvd``
        translations (see ``FMMOptions.m2l``).
    """

    def __init__(
        self,
        kernel: Kernel,
        options: FMMOptions | None = None,
        source_kernel: Kernel | None = None,
        target_kernel: Kernel | None = None,
        direct_kernel: Kernel | None = None,
    ) -> None:
        self.kernel = kernel
        self.options = options or FMMOptions()
        self.source_kernel = source_kernel
        self.target_kernel = target_kernel
        self.direct_kernel = direct_kernel
        self.tree: Octree | None = None
        self.lists: InteractionLists | None = None
        self.cache: OperatorCache | None = None
        self.flops = FlopCounter()
        self.timer = PhaseTimer()
        #: The one-rank :class:`~repro.parallel.pfmm.RankFMM` (``None``
        #: before setup).
        self.state = None
        self._comm = None

    def setup(
        self,
        sources: np.ndarray,
        targets: np.ndarray | None = None,
        root: tuple[np.ndarray, float] | None = None,
        cache: OperatorCache | None = None,
    ) -> "KIFMM":
        """Build the tree, interaction lists and operator cache.

        Separated from :meth:`apply` because applications evaluate many
        interactions per geometry (Section 3: "our parallel implementation
        is designed to achieve maximum efficiency in the multiplication
        phase").  Returns ``self`` for chaining.

        ``cache`` reuses a caller-supplied :class:`OperatorCache`, so
        multi-kernel BIE runs and repeated setups skip the operator
        precompute.  If its ``root_side`` differs from the tree's, a
        homogeneous kernel's operators are rescaled to the new root
        (:meth:`OperatorCache.for_root`; ``self.cache`` is then a new
        object); for an inhomogeneous kernel the sides must match — pin
        the cube via ``root``.
        """
        # Imported here: repro.parallel imports this module.
        from repro.parallel.pfmm import one_rank_tree, setup_on_tree
        from repro.parallel.simmpi import single_rank_comm

        opts = self.options
        with self.timer.phase("tree"):
            ptree = one_rank_tree(
                build_tree(
                    sources,
                    targets,
                    max_points=opts.max_points,
                    max_depth=opts.max_depth,
                    root=root,
                ),
                opts.balance,
            )
        self.tree = ptree.tree
        if cache is not None:
            self.cache = cache.for_root(self.tree.root_side)
        else:
            self.cache = OperatorCache(
                self.kernel,
                opts.p,
                self.tree.root_side,
                inner=opts.inner,
                outer=opts.outer,
                rcond=opts.rcond,
            )
        self._comm = single_rank_comm()
        self.state = state = setup_on_tree(
            self._comm, self.kernel, ptree, opts, cache=self.cache,
            timer=self.timer,
        )
        state.flops = self.flops
        self.lists = state.lists
        return self

    def _evaluate(
        self,
        density: np.ndarray,
        source_kernel: Kernel | None,
        target_kernel: Kernel | None,
        direct_kernel: Kernel | None,
    ) -> np.ndarray:
        """One evaluation: the one rank's apply."""
        if self.state is None:
            raise RuntimeError("call setup() before applying")
        return self.state.apply(
            self._comm, density, timer=self.timer,
            kernels=resolve_kernels(
                self.kernel, source_kernel, target_kernel, direct_kernel
            ),
        )

    def apply(self, density: np.ndarray) -> np.ndarray:
        """One interaction evaluation ``u = K phi``.

        Parameters
        ----------
        density:
            ``(ns, source_dof)`` or flat densities in input point order.
            Stacked blocks — ``(ns, source_dof, nrhs)`` or a flat block
            ``(ns * source_dof, nrhs)`` — evaluate all right-hand sides
            in one batched pass over the execution plan.

        Returns
        -------
        ``(nt, target_dof)`` potentials in input target order, with a
        trailing ``nrhs`` axis for stacked blocks.
        """
        return self._evaluate(
            density, self.source_kernel, self.target_kernel, self.direct_kernel
        )

    def apply_gradient(self, density: np.ndarray) -> np.ndarray:
        """Field gradient at the targets, ``grad u_i`` (forces in MD).

        Reuses this evaluator's tree/operators with the matching gradient
        target kernel; available for kernels registered in
        :func:`repro.kernels.derived.gradient_kernel_for`.  Returns
        ``(nt, 3 * target_dof)`` gradients.
        """
        from repro.kernels.derived import gradient_kernel_for

        if self.source_kernel is not None or self.target_kernel is not None:
            raise RuntimeError(
                "apply_gradient() requires default source/target kernels; "
                "construct a dedicated KIFMM with explicit kernels instead"
            )
        return self._evaluate(
            density, None, gradient_kernel_for(self.kernel), None
        )

    def matvec(self, density: np.ndarray) -> np.ndarray:
        """Flat interface for Krylov solvers: ``apply`` raveled.

        A 2-D ``(ns * source_dof, nrhs)`` block (block Krylov solvers)
        maps to the stacked ``(nt * target_dof, nrhs)`` result; the
        block is reshaped into the batched apply without copies.
        """
        out = self.apply(density)
        if out.ndim == 3:
            return out.reshape(-1, out.shape[2])
        return out.ravel()

    @property
    def m2l_schedule(self) -> M2LSchedule:
        """The resolved per-level M2L backend schedule (after setup)."""
        if self.state is None:
            raise RuntimeError("call setup() first")
        return self.state.m2l_schedule

    def statistics(self) -> dict[str, object]:
        """Tree/list/instrumentation summary for reports and benchmarks."""
        if self.state is None:
            raise RuntimeError("call setup() first")
        stats: dict[str, object] = dict(self.tree.statistics())
        stats.update({f"{k}_list": v for k, v in self.lists.counts().items()})
        stats.update(self.state.statistics())
        stats["m2l_schedule"] = self.m2l_schedule.describe()
        stats["flops"] = self.flops.by_phase()
        stats["seconds"] = self.timer.by_phase()
        return stats
