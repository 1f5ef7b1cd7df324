"""The per-box KIFMM evaluator: the parity oracle of the planned apply.

This walk was ``repro.core.evaluator.evaluate`` behind
``FMMOptions(plan="naive")`` until the option went; no rank, example or
benchmark ran it, only these tests.  It is the classical FMM control
flow box by box — upward pass bottom-up, then per box L2L, V list
(dense or rsvd), X list, one inversion, and at the leaves L2T, U and W —
over the :mod:`tests.boxview` records, sharing the operator cache and
the flop formulas with the planned path and nothing of its plan, stages
or step list.  :class:`PerBoxFMM` gives it ``KIFMM``'s call shape.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import (
    _matvec_flops,
    _rsvd_pair_flops,
    coerce_density,
    resolve_kernels,
)
from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import (
    M2LSchedule,
    resolve_m2l_schedule,
    v_stats_from_lists,
)
from repro.core.precompute import OperatorCache
from repro.kernels.base import Kernel
from repro.kernels.derived import gradient_kernel_for
from repro.octree.lists import InteractionLists, build_lists
from repro.octree.tree import Octree, build_tree
from repro.util.flops import FlopCounter
from repro.util.timing import PhaseTimer

from tests import boxview

def evaluate(
    tree: Octree,
    lists: InteractionLists,
    kernel: Kernel,
    cache: OperatorCache,
    density: np.ndarray,
    sched: M2LSchedule,
    flops: FlopCounter | None = None,
    timer: PhaseTimer | None = None,
    source_kernel: Kernel | None = None,
    target_kernel: Kernel | None = None,
    direct_kernel: Kernel | None = None,
) -> np.ndarray:
    """Evaluate ``u_i = sum_j G(x_i, y_j) phi_j`` with the KIFMM.

    Parameters
    ----------
    tree, lists:
        The computation tree and its interaction lists.
    kernel, cache:
        The *translation* kernel (builds and moves equivalent densities)
        and its operator cache (must share ``tree.root_side``).
    density:
        ``(ns, source_kernel.source_dof)`` or flat source densities in
        *original* (unsorted) point order; stacked blocks
        (``(ns, dof, nrhs)`` or ``(ns * dof, nrhs)``) are evaluated
        column by column on this reference path.
    sched:
        The resolved per-level M2L backend schedule
        (:class:`~repro.core.m2lschedule.M2LSchedule`).
    flops, timer:
        Optional instrumentation sinks.
    source_kernel:
        Kernel mapping the user's densities to check potentials (S2M and
        X-list evaluations); enables dipole/double-layer sources.  Must
        produce the translation kernel's potential type
        (``target_dof`` equal to ``kernel.target_dof``).  Defaults to
        the translation kernel.
    target_kernel:
        Kernel mapping single-layer densities of the translation kernel
        to the user's target quantity (L2T and W-list evaluations);
        enables gradient/force output.  Must consume the translation
        kernel's densities (``source_dof`` equal to
        ``kernel.source_dof``).  Defaults to the translation kernel.
    direct_kernel:
        Kernel for the near-field U-list (user density -> user target).
        Inferred when at most one of source/target kernel is custom;
        required when both are.

    Returns
    -------
    ``(nt, target_kernel.target_dof)`` values in original target order
    (trailing ``nrhs`` axis appended for stacked blocks).
    """
    src_k, trg_k, dir_k = resolve_kernels(
        kernel, source_kernel, target_kernel, direct_kernel
    )
    flops = flops if flops is not None else FlopCounter()
    timer = timer if timer is not None else PhaseTimer()
    md, qd = kernel.source_dof, kernel.target_dof
    out_dof = trg_k.target_dof
    ns, nt = tree.sources.shape[0], tree.targets.shape[0]
    pairs: dict = {}  # (level, offset) -> the moved rsvd pair
    phi3, nrhs, single = coerce_density(density, ns, src_k.source_dof)
    if not single:
        # The per-box reference path stays single-RHS: a stacked block
        # loops column by column (the planned path is the batched one).
        cols = [
            evaluate(
                tree, lists, kernel, cache,
                np.ascontiguousarray(phi3[:, :, r]),
                sched, flops=flops,
                timer=timer, source_kernel=source_kernel,
                target_kernel=target_kernel, direct_kernel=direct_kernel,
            )
            for r in range(nrhs)
        ]
        return np.stack(cols, axis=-1)
    phi = phi3[:, :, 0]
    n_surf = cache.n_surf
    nb = tree.nboxes
    boxes, levels, view = (
        boxview.boxes(tree), boxview.levels(tree), boxview.per_box(lists)
    )

    ue = np.zeros((nb, n_surf * md))
    has_ue = np.zeros(nb, dtype=bool)

    # ---------------- upward pass ----------------
    with timer.phase("up"):
        for level in range(tree.depth, -1, -1):
            for bi in levels[level]:
                b = boxes[bi]
                if b.nsrc == 0:
                    continue
                center = tree.center(bi)
                if b.is_leaf:
                    K = src_k.matrix(
                        cache.up_check_points(center, level), tree.src_points(bi)
                    )
                    check = K @ phi[tree.src_indices(bi)].reshape(-1)
                    flops.add_pairs("up", n_surf * b.nsrc, src_k.flops_per_pair)
                else:
                    check = np.zeros(n_surf * qd)
                    for ci in b.children:
                        if not has_ue[ci]:
                            continue
                        child = boxes[ci]
                        octant = (
                            (child.anchor[0] & 1)
                            | ((child.anchor[1] & 1) << 1)
                            | ((child.anchor[2] & 1) << 2)
                        )
                        M = cache.m2m_check(child.level, octant)
                        check += M @ ue[ci]
                        flops.add("up", _matvec_flops(M.shape))
                U, W = cache.uc2ue(level)
                ue[bi] = W.T @ (U.T @ check)
                has_ue[bi] = True
                flops.add("up", 2.0 * U.shape[1] * (U.shape[0] + W.shape[1]))

    # ---------------- downward pass ----------------
    dc = np.zeros((nb, n_surf * qd))
    has_dc = np.zeros(nb, dtype=bool)
    de = np.zeros((nb, n_surf * md))
    has_de = np.zeros(nb, dtype=bool)
    potential = np.zeros((nt, out_dof))

    for level in range(1, tree.depth + 1):
        for bi in levels[level]:
            b = boxes[bi]
            if b.ntrg == 0:
                continue
            center = tree.center(bi)

            # L2L from the parent's downward equivalent density.
            if has_de[b.parent]:
                octant = (
                    (b.anchor[0] & 1)
                    | ((b.anchor[1] & 1) << 1)
                    | ((b.anchor[2] & 1) << 2)
                )
                with timer.phase("eval"):
                    L = cache.l2l_check(level, octant)
                    dc[bi] += L @ de[b.parent]
                    has_dc[bi] = True
                    flops.add("eval", _matvec_flops(L.shape))

            # V list.
            backend = sched.backend(level)
            if len(view.V[bi]):
                with timer.phase("down_v"):
                    for ai in view.V[bi]:
                        if not has_ue[ai]:
                            continue
                        a = boxes[ai]
                        offset = tuple(
                            b.anchor[d] - a.anchor[d] for d in range(len(b.anchor))
                        )
                        if backend == "dense":
                            T = cache.m2l_check(level, offset)
                            dc[bi] += T @ ue[ai]
                            flops.add("down_v", _matvec_flops(T.shape))
                        else:
                            # The cache keeps each symmetry class's
                            # canonical pair only and moves another
                            # offset's afresh per call: this walk keeps
                            # the pairs it has moved.
                            if (level, offset) not in pairs:
                                pairs[level, offset] = cache.m2l_rsvd(
                                    level, offset, sched.dtype
                                )
                            uf, vf = pairs[level, offset]
                            src = ue[ai]
                            if sched.dtype == "float32":
                                src = src.astype(np.float32)  # lint: allow(dtype-width)
                            # Factor precision may be float32; the +=
                            # upcasts, keeping the accumulator float64.
                            dc[bi] += uf @ (vf @ src)
                            flops.add(
                                "down_v",
                                _rsvd_pair_flops(
                                    vf.shape[0], n_surf, md, qd
                                ),
                            )
                        has_dc[bi] = True

            # X list: direct sources -> downward check surface.
            if len(view.X[bi]):
                with timer.phase("down_x"):
                    check_pts = cache.down_check_points(center, level)
                    for ai in view.X[bi]:
                        a = boxes[ai]
                        if a.nsrc == 0:
                            continue
                        K = src_k.matrix(check_pts, tree.src_points(ai))
                        dc[bi] += K @ phi[tree.src_indices(ai)].reshape(-1)
                        has_dc[bi] = True
                        flops.add_pairs(
                            "down_x", n_surf * a.nsrc, src_k.flops_per_pair
                        )

            # One inversion per box.
            if has_dc[bi]:
                with timer.phase("eval"):
                    U, W = cache.dc2de(level)
                    de[bi] = W.T @ (U.T @ dc[bi])
                    has_de[bi] = True
                    flops.add("eval", 2.0 * U.shape[1] * (U.shape[0] + W.shape[1]))

            if not b.is_leaf:
                continue

            trg_pts = tree.trg_points(bi)
            trg_idx = tree.trg_indices(bi)
            local = np.zeros(b.ntrg * out_dof)

            # L2T: downward equivalent density -> targets.
            if has_de[bi]:
                with timer.phase("eval"):
                    K = trg_k.matrix(trg_pts, cache.down_equiv_points(center, level))
                    local += K @ de[bi]
                    flops.add_pairs("eval", b.ntrg * n_surf, trg_k.flops_per_pair)

            # U list: dense near interactions.
            if len(view.U[bi]):
                with timer.phase("down_u"):
                    for ai in view.U[bi]:
                        a = boxes[ai]
                        if a.nsrc == 0:
                            continue
                        K = dir_k.matrix(trg_pts, tree.src_points(ai))
                        local += K @ phi[tree.src_indices(ai)].reshape(-1)
                        flops.add_pairs(
                            "down_u", b.ntrg * a.nsrc, dir_k.flops_per_pair
                        )

            # W list: far (smaller) boxes' upward equivalent densities.
            if len(view.W[bi]):
                with timer.phase("down_w"):
                    for ai in view.W[bi]:
                        if not has_ue[ai]:
                            continue
                        a = boxes[ai]
                        K = trg_k.matrix(
                            trg_pts, cache.up_equiv_points(tree.center(ai), a.level)
                        )
                        local += K @ ue[ai]
                        flops.add_pairs(
                            "down_w", b.ntrg * n_surf, trg_k.flops_per_pair
                        )

            potential[trg_idx] += local.reshape(b.ntrg, out_dof)

    # Degenerate single-box tree: root is a leaf, handled by its U list —
    # but the downward loop starts at level 1, so cover it here.
    root = boxes[0]
    if root.is_leaf and root.ntrg > 0 and root.nsrc > 0:
        with timer.phase("down_u"):
            K = dir_k.matrix(tree.trg_points(0), tree.src_points(0))
            potential[tree.trg_indices(0)] += (
                K @ phi[tree.src_indices(0)].reshape(-1)
            ).reshape(root.ntrg, out_dof)
            flops.add_pairs("down_u", root.ntrg * root.nsrc, dir_k.flops_per_pair)

    return potential


class PerBoxFMM:
    """:func:`evaluate` with :class:`~repro.core.fmm.KIFMM`'s call shape:
    ``PerBoxFMM(kernel, opts, source_kernel=...).setup(pts, trg)
    .apply(phi)``, ``.flops``, ``.apply_gradient``.  Setup builds tree,
    lists and cache the way ``KIFMM.setup`` does and resolves the M2L
    schedule from the same gated V statistics the plan holds."""

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
        self.flops = FlopCounter()
        self.timer = PhaseTimer()

    def setup(
        self,
        sources: np.ndarray,
        targets: np.ndarray | None = None,
        root: tuple[np.ndarray, float] | None = None,
        cache: OperatorCache | None = None,
    ) -> "PerBoxFMM":
        opts = self.options
        self.tree = build_tree(
            sources, targets, max_points=opts.max_points,
            max_depth=opts.max_depth, root=root,
        )
        self.cache = (
            cache.for_root(self.tree.root_side) if cache is not None
            else OperatorCache(
                self.kernel, opts.p, self.tree.root_side,
                inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
            )
        )
        self.lists = build_lists(self.tree)
        self.m2l_schedule = resolve_m2l_schedule(
            opts.m2l, opts.dtype,
            stats=v_stats_from_lists(self.tree, self.lists),
            cache=self.cache, kernel=self.kernel,
        )
        return self

    def _evaluate(self, density, source_kernel, target_kernel, direct_kernel):
        return evaluate(
            self.tree, self.lists, self.kernel, self.cache, density,
            sched=self.m2l_schedule, flops=self.flops,
            timer=self.timer, source_kernel=source_kernel,
            target_kernel=target_kernel, direct_kernel=direct_kernel,
        )

    def apply(self, density: np.ndarray) -> np.ndarray:
        return self._evaluate(
            density, self.source_kernel, self.target_kernel, self.direct_kernel
        )

    def apply_gradient(self, density: np.ndarray) -> np.ndarray:
        return self._evaluate(
            density, None, gradient_kernel_for(self.kernel), None
        )
