"""The stages of a KIFMM apply, and the step list they compile to.

Implements the classical FMM control flow (Section 2: "Our algorithm has
exactly the same structure as the original FMM") with the paper's density
representations:

Upward pass (bottom-up)
    leaves: sources -> upward check potential (eq. 2.1, arrow 1);
    non-leaves: children's upward equivalent densities -> upward check
    potential (eq. 2.3, arrow 1); then one inversion per box (arrow 2).

Downward pass (top-down)
    every box accumulates its downward *check potential* from the parent
    (L2L, eq. 2.5), its V list (M2L, eq. 2.4 — dense or rsvd-compressed)
    and its X list (direct sources -> check surface), then inverts once
    (the "one inversion per box" optimisation; same mathematics as
    performing it per translation).

Leaf evaluation
    targets receive the downward equivalent density (L2T), the dense
    U-list interactions, and the W-list upward equivalent densities
    evaluated directly.

Phase naming matches the legend of the paper's Figure 4.2: ``up``,
``down_u``, ``down_v``, ``down_w``, ``down_x`` and ``eval`` (L2L + L2T +
inversions).

:class:`PlanStages` holds the level-batched stages over a precomputed
:class:`~repro.core.plan.ExecutionPlan`, each written once, and
compiles them into the step list (:mod:`repro.core.steps`) that the one
driver, :meth:`repro.parallel.pfmm.RankFMM.apply`, runs — for every
rank of the parallel algorithm and, at one rank with nothing to
exchange, for :class:`~repro.core.fmm.KIFMM` — and ``repro plancheck``
certifies.  There is no second evaluator: the box-by-box walk the
parity tests compare against is theirs (``tests/core/perbox.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.analysis import sanitize as _san
from repro.core.m2lschedule import M2LSchedule
from repro.core.plan import (
    MAX_BLOCK_ENTRIES,
    DownLevel,
    ExecutionPlan,
    NearBlocks,
    UpLevel,
    VLevel,
    VPass,
    VSplit,
)
from repro.core.precompute import OperatorCache
from repro.core.steps import BufferSpec, Step, StepList
from repro.core.surfaces import surface_grid
from repro.kernels import native
from repro.kernels.base import Kernel
from repro.util.segments import chunk_segments


def _matvec_flops(matrix_shape: tuple[int, int]) -> float:
    return 2.0 * matrix_shape[0] * matrix_shape[1]


def _rsvd_pair_flops(rank: int, n_surf: int, md: int, qd: int) -> float:
    """Real flops of one rsvd-compressed M2L pair (two stacked GEMMs).

    ``(ue @ vf.T) @ uf.T`` costs ``2 k (n_surf md) + 2 k (n_surf qd)``
    per density row.  Every factor is an integer, so the float product
    is integer-valued and the evaluator / plan-IR / cost-model totals
    stay a bitwise identity.
    """
    return 2.0 * rank * n_surf * (md + qd)


def coerce_density(
    density: np.ndarray, npts: int, dof: int
) -> tuple[np.ndarray, int, bool]:
    """Normalise a density to ``(npts, dof, nrhs)``; returns (phi, nrhs, single).

    Accepted forms: a single density as ``(npts, dof)`` or flat
    ``(npts * dof,)`` (``single=True``; callers squeeze the trailing RHS
    axis off their result), a stacked block ``(npts, dof, nrhs)``, or a
    flat block ``(npts * dof, nrhs)`` as produced by block Krylov
    solvers.  Blocks are reshaped, never copied, so a column-major
    caller pays nothing extra here.
    """
    arr = np.asarray(density, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[:2] == (npts, dof):
        return arr, arr.shape[2], False
    if arr.ndim == 2 and arr.shape == (npts, dof):
        return arr.reshape(npts, dof, 1), 1, True
    if arr.ndim == 2 and arr.shape[0] == npts * dof:
        return arr.reshape(npts, dof, arr.shape[1]), arr.shape[1], False
    if arr.ndim == 1 and arr.size == npts * dof:
        return arr.reshape(npts, dof, 1), 1, True
    raise ValueError(
        f"density shape {arr.shape} does not match {npts} points of "
        f"{dof} components (accepted: (n, dof), flat (n*dof,), stacked "
        f"(n, dof, nrhs), flat block (n*dof, nrhs))"
    )


def resolve_kernels(
    kernel: Kernel,
    source_kernel: Kernel | None,
    target_kernel: Kernel | None,
    direct_kernel: Kernel | None,
) -> tuple[Kernel, Kernel, Kernel]:
    """Resolve and validate the (source, target, direct) kernel triple.

    ``source_kernel`` maps the user's densities to check potentials
    (S2M and X-list evaluations; enables dipole/double-layer sources)
    and must produce the translation kernel's potential type.
    ``target_kernel`` maps the translation kernel's single-layer
    densities to the user's target quantity (L2T and W-list
    evaluations; enables gradient/force output) and must consume its
    densities.  ``direct_kernel`` evaluates the near-field U list (user
    density -> user target); it is inferred when at most one of the
    other two is custom and required when both are.  Each defaults to
    the translation kernel.
    """
    src_k = source_kernel if source_kernel is not None else kernel
    trg_k = target_kernel if target_kernel is not None else kernel
    if direct_kernel is not None:
        dir_k = direct_kernel
    elif src_k is kernel:
        dir_k = trg_k
    elif trg_k is kernel:
        dir_k = src_k
    else:
        raise ValueError(
            "direct_kernel is required when both source_kernel and "
            "target_kernel are custom"
        )
    if src_k.target_dof != kernel.target_dof:
        raise ValueError(
            f"source_kernel must produce {kernel.target_dof}-component "
            f"check potentials, got {src_k.target_dof}"
        )
    if trg_k.source_dof != kernel.source_dof:
        raise ValueError(
            f"target_kernel must consume {kernel.source_dof}-component "
            f"equivalent densities, got {trg_k.source_dof}"
        )
    if (dir_k.source_dof, dir_k.target_dof) != (
        src_k.source_dof,
        trg_k.target_dof,
    ):
        raise ValueError(
            f"direct_kernel must map {src_k.source_dof} -> "
            f"{trg_k.target_dof} components, got "
            f"{dir_k.source_dof} -> {dir_k.target_dof}"
        )
    return src_k, trg_k, dir_k


def _near_pairs(blocks: NearBlocks) -> int:
    """Total (target point × partner) count of a near-field block set."""
    return int(
        ((blocks.trg_stop - blocks.trg_start) * np.diff(blocks.seg)).sum()
    )


#: Region suffix by delivery code: left in place by this rank's own
#: prologue / upward pass, stored by the owner ``relay``, stored by the
#: scatter ``wait``.
_DELIVERED = ("", ":own", ":ghost")


@dataclass
class RankOperands:
    """What a rank's apply runs over, beside the plan.

    ``near`` holds the ``(U, W)`` blocks over owned and over ghost
    partners; ``v_splits`` the matching per-V-level passes.  The
    exchange arrives as ready steps — ``post`` / ``relay`` / ``wait`` of
    each payload kind and, per coarse split level, the ``vsp``
    broadcast pair — which :meth:`PlanStages.compile` only places;
    ``buffers`` declares the split regions those steps deliver.
    ``phi_kind`` and ``ue_kind`` hold, per box, the delivery code of
    the source densities / upward densities a pass reads there (index
    into ``("", ":own", ":ghost")``), so every step declares exactly
    the regions its partners live in.  At one rank every code
    is 0, the ghost blocks are empty and the exchange steps walk empty
    programs: the sequential apply.
    """

    near: dict[str, tuple[NearBlocks, NearBlocks]]
    v_splits: list[VSplit]
    post: list[Step]
    relay: list[Step]
    wait: list[Step]
    vsp: dict[int, list[Step]]
    buffers: dict[str, BufferSpec]
    phi_kind: np.ndarray
    ue_kind: np.ndarray


class PlanStages:
    """The stages of a planned apply, each written once.

    Bound to one apply's plan, operators and kernels.  The stage
    methods hold only the arithmetic; :meth:`compile` orders them into
    the step list — what each step reads, writes, releases and costs —
    that :func:`repro.core.steps.run_steps` executes and the plan
    verifier certifies.  Stages guard their GEMM stacks when the plan's
    pool is sanitizing.

    Work-array layout: densities are point-major ``phi[point, dof,
    rhs]`` over the combined source array — the rank's own sorted
    sources (the S2M positions), then the ghost boxes; upward
    equivalent densities are box-major ``ue[box, rhs]`` (a rank ships
    one box's right-hand sides as one contiguous payload); ``check`` /
    ``dc`` / ``de`` / ``pot`` are RHS-major ``[rhs, row]``.

    Stacked right-hand sides ride one pass: every stage assembles its
    shared factor — kernel matrices, translation operators — once.
    Stages that feed the regularised ``uc2ue`` / ``dc2de`` inversions
    then loop the columns over 2-D products with exactly the single-RHS
    shapes, so column ``r`` of a block apply is *bit-identical* to the
    single-RHS apply of column ``r`` (the inversions amplify round-off
    differences by ~1e6, so
    merely equivalent batched arithmetic would not stay within the
    1e-12 column-parity budget).  U and W go straight to potentials, so
    their numpy stages fold the RHS axis into one GEMM that streams the
    kernel block once; the ~1e-16 GEMM-vs-GEMV rounding gap stays far
    below that bound.

    U, W and X of a kernel with a compiled pair loop
    (:func:`repro.kernels.native.loops_for`: the ``1/r`` kernel on a host
    with a C compiler) run that loop instead, bound to the step's blocks
    when :meth:`compile` places the step — which is where their indices
    are checked, once, and again before every call of a sanitized apply.
    Its columns are the single-RHS sums bit for bit.  The numpy stage
    methods stay the path of every other kernel and the loops' oracle.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        kernel: Kernel,
        cache: OperatorCache,
        kernels: tuple[Kernel, Kernel, Kernel],
        sched: M2LSchedule,
        src_points: np.ndarray,
    ) -> None:
        self.plan = plan
        self.cache = cache
        self.src_k, self.trg_k, self.dir_k = kernels
        self.sched = sched
        self.src_points = src_points
        self.pool = plan.buffers
        self.md, self.qd = kernel.source_dof, kernel.target_dof
        self.n_surf = cache.n_surf
        # The compiled pair loops of each kernel of the triple: None for
        # a kernel without a radial profile, or on a host without a C
        # compiler, whose U / W / X steps run the numpy stages below —
        # the loops' oracle.
        self.src_loops, self.trg_loops, self.dir_loops = map(
            native.loops_for, kernels
        )

    # -- the step list -----------------------------------------------------

    def compile(self, rank: RankOperands, overlap: bool) -> StepList:
        """Order the stages of one apply into its step list.

        Up, ``post`` + ``relay``, U/W/V over owned partners, V over
        ghost partners (split levels ending in their ``vsp``
        broadcast), the downward sweep, U/W over ghost partners — with
        the scatter ``wait`` before the owned passes, or after them
        when ``overlap`` hides the in-flight exchange behind them.  The
        computation order is the same either way.

        Nothing here builds an operator: flop counts come from the
        plan's index arrays, an rsvd step's count is a thunk over the
        ranks of its factors, and a step that reads cached operators
        names them in its ``operators`` thunk, which setup runs
        (``RankFMM.build_operators``).  A U, W or X step with a compiled
        pair loop gets it bound here, with the same declarations.
        """
        plan, sched, cache = self.plan, self.sched, self.cache
        n_surf, md, qd = self.n_surf, self.md, self.qd
        sanitize = self.pool.sanitize
        src_fpp = self.src_k.flops_per_pair
        trg_fpp = self.trg_k.flops_per_pair
        matvec = _matvec_flops((n_surf * qd, n_surf * md))
        steps: list[Step] = []
        buffers: dict[str, BufferSpec] = dict(rank.buffers)

        def declare(name, rows, width, dtype="float64"):
            buffers[name] = BufferSpec(name, (int(rows), int(width)), dtype)

        def emit(name, phase, stage, run, reads, writes, flops, **more):
            steps.append(Step(
                name, phase, run, stage=stage, reads=reads, writes=writes,
                flops=flops, **more,
            ))

        def phi_of(boxes):
            return tuple(
                "phi" + _DELIVERED[k] for k in np.unique(rank.phi_kind[boxes])
            )

        def ue_of(boxes):
            kind = rank.ue_kind[boxes]
            here = np.unique(plan.levels[boxes[kind == 0]])
            return tuple(f"ue@{lvl}" for lvl in here) + tuple(
                "ue" + _DELIVERED[k] for k in np.unique(kind[kind > 0])
            )

        def up(ul: UpLevel):
            lvl = ul.level
            chk, ue = f"check@{lvl}", f"ue@{lvl}"
            declare(chk, ul.boxes.size, n_surf * qd)
            declare(ue, ul.boxes.size, n_surf * md)

            def check(b):
                return b.scratch("check", lambda: self.pool.zeros(
                    "check", (b.nrhs, ul.boxes.size, n_surf * qd)
                ))

            if ul.s2m_rows.size:
                emit(f"s2m@{lvl}", "up", "s2m",
                     lambda b: self.s2m(ul, b["phi"], check(b)),
                     ("phi",), (chk,),
                     n_surf * int(ul.s2m_seg[-1]) * src_fpp)
            if ul.m2m_groups:
                emit(f"m2m@{lvl}", "up", "m2m",
                     lambda b: self.m2m(ul, b["ue"], check(b)),
                     (f"ue@{lvl + 1}",), (chk,),
                     sum(k.size for _, k, _ in ul.m2m_groups) * matvec,
                     operators=lambda: [
                         cache.m2m_check(lvl + 1, octant)
                         for octant, _, _ in ul.m2m_groups
                     ])
            emit(f"uc2ue@{lvl}", "up", "uc2ue",
                 lambda b: self.uc2ue(ul, b["check"], b["ue"]),
                 (chk,), (ue,), ul.boxes.size * matvec, releases=(chk,),
                 operators=lambda: cache.uc2ue(lvl))

        def v_direct(vl: VLevel, sp: VSplit, vp: VPass, split):
            lvl = vl.level
            rsvd = sched.backend(lvl) == "rsvd"
            narrow = rsvd and sched.dtype == "float32"
            lo = sp.own.rows.size if split == "ghost" else 0

            def rsvd_flops():
                # The pairs, whichever layout runs them: an empty slot
                # of a block is not counted.
                return sum(
                    n * _rsvd_pair_flops(
                        cache.m2l_rsvd_rank(lvl, offset), n_surf, md, qd
                    )
                    for offset, n in vp.counts.items()
                )

            # The factors live at the reference level; the stages scale.
            key = cache.m2l_reference(lvl)[0]
            if rsvd and sched.blocked:
                stage = "v_blocked", lambda b: self.v_blocked(
                    vl, sp, vp, lo, b["ue"], b["dc"])
            else:
                stage = "v_direct", lambda b: self.v_direct(
                    vl, vp.classes, b["ue"], b["dc"])

            def operators():
                if not rsvd:
                    for offset, _, _ in vp.classes:
                        cache.m2l_check(key, offset)
                    return
                if sched.blocked:
                    for po, _, _ in vp.po_groups:
                        cache.m2l_stacks(key, po, sched.dtype)
                else:
                    for offset, _, _ in vp.classes:
                        cache.m2l_rsvd(key, offset, sched.dtype)
                rsvd_flops()  # the ranks the count reads

            emit(f"v:{split}@{lvl}", "down_v", *stage,
                 ue_of(vl.src_boxes[vp.rows]), (f"dc@{lvl}",),
                 rsvd_flops if rsvd else vp.npairs * matvec,
                 dtype="float32" if narrow else "float64", narrowing=narrow,
                 operators=operators)

        def v_pass(split):
            for vl, sp in zip(plan.v_levels, rank.v_splits):
                vp = getattr(sp, split)
                if vp.npairs:
                    v_direct(vl, sp, vp, split)
                if split == "ghost":
                    steps.extend(rank.vsp.get(vl.level, []))

        def down(dl: DownLevel):
            lvl = dl.level
            dc, de = f"dc@{lvl}", f"de@{lvl}"
            if dl.l2l_groups:
                emit(f"l2l@{lvl}", "eval", "l2l",
                     lambda b: self.l2l(dl, b["de"], b["dc"]),
                     (f"de@{lvl - 1}",), (dc,),
                     sum(k.size for _, k, _ in dl.l2l_groups) * matvec,
                     operators=lambda: [
                         cache.l2l_check(lvl, octant)
                         for octant, _, _ in dl.l2l_groups
                     ])
            if dl.x.boxes.size:
                x = partial(self.x, dl)
                if self.src_loops is not None:
                    x = self.src_loops.x(
                        dl.x, plan.centers, self.src_points,
                        cache.down_check_points(np.zeros(3), lvl), sanitize,
                    )
                emit(f"x@{lvl}", "down_x", "x",
                     lambda b: x(b["phi"], b["dc"]),
                     phi_of(dl.x.partners), (dc,),
                     n_surf * int(dl.x.seg[-1]) * src_fpp)
            if dl.dc_boxes.size:
                emit(f"dc2de@{lvl}", "eval", "dc2de",
                     lambda b: self.dc2de(dl, b["dc"], b["de"]),
                     (dc,), (de,), dl.dc_boxes.size * matvec,
                     operators=lambda: cache.dc2de(lvl))
            if dl.l2t_boxes.size:
                emit(f"l2t@{lvl}", "eval", "l2t",
                     lambda b: self.l2t(dl, b["de"], b["pot"]),
                     (de,), ("pot",),
                     int(dl.l2t_seg[-1]) * n_surf * trg_fpp)

        def near(split):
            u, w = rank.near[split]
            pairs = _near_pairs(u)
            if pairs:
                near_u = partial(self.near_u, u)
                if self.dir_loops is not None:
                    near_u = self.dir_loops.u(
                        u, plan.centers, plan.targets_sorted,
                        self.src_points, sanitize,
                    )
                emit(f"near_u:{split}", "down_u", "near_u",
                     lambda b: near_u(b["phi"], b["pot"]),
                     phi_of(u.partners), ("pot",),
                     pairs * self.dir_k.flops_per_pair)
            pairs = _near_pairs(w)
            if pairs:
                near_w = partial(self.near_w, w)
                if self.trg_loops is not None:
                    near_w = self.trg_loops.w(
                        w, plan.centers, self.w_radius(),
                        surface_grid(cache.p), plan.targets_sorted, sanitize,
                    )
                emit(f"near_w:{split}", "down_w", "near_w",
                     lambda b: near_w(b["ue"], b["pot"]),
                     ue_of(w.partners), ("pot",), n_surf * pairs * trg_fpp)

        declare("phi", plan.sources_sorted.shape[0], self.src_k.source_dof)
        declare("pot", plan.targets_sorted.shape[0], self.trg_k.target_dof)
        counts = np.bincount(plan.levels, minlength=plan.depth + 1)
        carried = {dl.level for dl in plan.down_levels}
        carried |= {vl.level for vl in plan.v_levels}
        carried |= {dl.level - 1 for dl in plan.down_levels if dl.l2l_groups}
        for lvl in carried:
            declare(f"dc@{lvl}", counts[lvl], n_surf * qd)
            declare(f"de@{lvl}", counts[lvl], n_surf * md)

        for ul in plan.up_levels:
            up(ul)
        steps += rank.post + rank.relay
        if not overlap:
            steps += rank.wait
        near("own")
        v_pass("own")
        if overlap:
            steps += rank.wait
        v_pass("ghost")
        for dl in plan.down_levels:
            down(dl)
        near("ghost")
        return StepList(steps, buffers, frozenset({"pot"}))

    # -- the stages --------------------------------------------------------

    def s2m(self, ul: UpLevel, phi: np.ndarray, check: np.ndarray) -> None:
        """Leaf sources to their boxes' upward check potentials."""
        src_k, n_surf, qd = self.src_k, self.n_surf, self.qd
        sdof = src_k.source_dof
        nrhs = check.shape[0]
        chk_pts = self.cache.up_check_points(np.zeros(3), ul.level)
        phi_cat = phi[ul.s2m_src_pos].transpose(2, 0, 1).reshape(nrhs, -1)
        max_pts = max(1, MAX_BLOCK_ENTRIES // (n_surf * qd * sdof))
        for lo, hi in chunk_segments(ul.s2m_seg, max_pts):
            p0, p1 = int(ul.s2m_seg[lo]), int(ul.s2m_seg[hi])
            K = src_k.matrix_local(chk_pts, ul.s2m_pts[p0:p1])
            cols = (ul.s2m_seg[lo:hi] - p0) * sdof
            rows = ul.s2m_rows[lo:hi]
            for r in range(nrhs):
                # The last column's products overwrite the block itself.
                vals = np.multiply(
                    K, phi_cat[r, p0 * sdof : p1 * sdof][None, :],
                    out=K if r == nrhs - 1 else None,
                )
                check[r][rows] += np.add.reduceat(vals, cols, axis=1).T

    def m2m(self, ul: UpLevel, ue: np.ndarray, check: np.ndarray) -> None:
        """Children's upward densities to their parents' check potentials."""
        for octant, kids, rows in ul.m2m_groups:
            M = self.cache.m2m_check(ul.level + 1, octant)
            if self.pool.sanitize:
                # Fancy-indexed operands materialise copies, so the
                # aliasing hazard is between the backing stacks.
                _san.guard_gemm(check, ue, M, site=f"m2m level {ul.level}")
            MT = M.T
            for r in range(check.shape[0]):
                check[r][rows] += ue[kids, r] @ MT

    def uc2ue(self, ul: UpLevel, check: np.ndarray, ue: np.ndarray) -> None:
        """One regularised inversion per source box of the level."""
        U = self.cache.uc2ue(ul.level)
        if self.pool.sanitize:
            _san.guard_gemm(ue, check, U, site=f"uc2ue level {ul.level}")
        UT = U.T
        for r in range(check.shape[0]):
            ue[ul.boxes, r] = check[r] @ UT

    def v_direct(
        self, vl: VLevel, classes: list, ue: np.ndarray, dc: np.ndarray
    ) -> None:
        """Dense or class-major rsvd M2L of some offset classes of one
        level.

        One stacked GEMM per class (dense) or two through the compressed
        factors (rsvd: the reference level's, the level factor applied
        to the narrow intermediate).  Mixed precision narrows the source
        block to the factor dtype; the ``+=`` into the float64 check
        buffers upcasts, keeping the accumulation double.
        """
        cache, pool, sched = self.cache, self.pool, self.sched
        dense = sched.backend(vl.level) == "dense"
        nrhs = dc.shape[0]
        key, scale = cache.m2l_reference(vl.level)
        for offset, src_pos, trg_pos in classes:
            sb = vl.src_boxes[src_pos]
            tb = vl.trg_boxes[trg_pos]
            if dense:
                T = cache.m2l_check(vl.level, offset)
                if pool.sanitize:
                    _san.guard_gemm(dc, ue, T, site=f"m2l level {vl.level}")
                TT = T.T
                for r in range(nrhs):
                    dc[r][tb] += ue[sb, r] @ TT
            else:
                uf, vf = cache.m2l_rsvd(key, offset, sched.dtype)
                if pool.sanitize:
                    _san.guard_gemm(dc, ue, uf,
                                    site=f"m2l-rsvd level {vl.level}")
                ufT, vfT = uf.T, vf.T
                for r in range(nrhs):
                    src = ue[sb, r]
                    if sched.dtype == "float32":
                        src = src.astype(np.float32)  # lint: allow(dtype-width)
                    mid = src @ vfT
                    if scale != 1.0:
                        mid *= scale
                    dc[r][tb] += mid @ ufT

    def v_blocked(
        self, vl: VLevel, sp: VSplit, vp: VPass, lo: int, ue: np.ndarray,
        dc: np.ndarray,
    ) -> None:
        """Rsvd M2L of one pass of a level, parent-pair blocked.

        Per direction and chunk of parent pairs: gather the source
        parents' sibling slabs (the zero sentinel row stands in for a
        child that is missing, inactive or outside the pass), eight
        GEMMs through the ``V`` stack — one per source octant, every
        target octant's factor at once — a slab reorder of the
        rank-major intermediate from ``[o_s][o_t]`` to ``[o_t][o_s]``,
        eight GEMMs through the ``UT`` stack, one slab scatter-add (a
        real target row occurs once per direction).  Adjacent child
        pairs have no slot: a full block costs the flops of its pairs.

        Stacks exist for non-negative directions
        (:meth:`~repro.core.precompute.OperatorCache.m2l_stacks`);
        the others run mirrored: octants relabel by XOR with the sign
        mask, the pass's rows are mirrored once per mask going in and
        the mask's accumulator once coming out, where a homogeneous
        kernel's level factor is applied too.  Right-hand sides loop
        outermost over identical shapes, so columns are bit-identical
        to single applies; mixed precision narrows the rows to the
        stack dtype and the scatter-add into float64 upcasts.
        """
        cache, pool, dtype = self.cache, self.pool, self.sched.dtype
        key, scale = cache.m2l_reference(vl.level)
        boxes, targets = vl.src_boxes[vp.rows], vl.trg_boxes[sp.inv_rows]
        nr, nt = boxes.size, targets.size
        wm, wq = self.n_surf * self.md, self.n_surf * self.qd
        by_mask: dict[int, list] = {}
        for po, src_rows, trg_rows in vp.po_groups:
            mask, *stacks = cache.m2l_stacks(key, po, dtype)
            octants = np.arange(8) ^ mask
            by_mask.setdefault(mask, []).append((
                stacks, np.minimum(src_rows - lo, nr)[:, octants],
                trg_rows[:, octants],
            ))
        # ~1.2 MB of source slabs per chunk keeps them and the
        # intermediate L2-resident (level 4 of the 50k-point Laplace
        # tree: 128 parent pairs 0.32 s, 205 0.36 s, 411 0.38 s).
        step = max(1, 160_000 // (8 * max(wm, wq)))
        # Plain arrays, not pool buffers: freed with the stage, they do
        # not sit under the upward pass's peak.
        ext = np.zeros((nr + 1, wm), dtype)
        acc = np.empty((nt + 1, wq))
        for r in range(dc.shape[0]):
            src = ue[boxes, r]
            total = np.zeros((nt, wq))
            for mask, groups in sorted(by_mask.items()):
                ext[:nr] = cache.reflect(src, mask)
                acc[...] = 0.0
                for (V, UT, vcut, ucut, moves), src_rows, trg_rows in groups:
                    if pool.sanitize:
                        _san.guard_gemm(acc, ext, V, UT,
                                        site=f"m2l-blocked level {vl.level}")
                    for c0 in range(0, src_rows.shape[0], step):
                        s, t = src_rows[c0 : c0 + step], trg_rows[c0 : c0 + step]
                        shape = (V.shape[0], s.shape[0])
                        x = ext[s]
                        y, yt = np.empty(shape, dtype), np.empty(shape, dtype)
                        out = np.empty(s.shape + (wq,), dtype)
                        for o in range(8):  # every octant has slots
                            a, b = vcut[o], vcut[o + 1]
                            np.matmul(V[a:b], x[:, o].T, out=y[a:b])
                        for a, b, c in moves:
                            yt[a:b] = y[c : c + b - a]
                        for o in range(8):
                            a, b = ucut[o], ucut[o + 1]
                            np.matmul(yt[a:b].T, UT[a:b], out=out[:, o])
                        acc[t] += out
                total += cache.reflect(acc[:nt], mask)
            if scale != 1.0:
                total *= scale
            dc[r][targets] += total

    def l2l(self, dl: DownLevel, de: np.ndarray, dc: np.ndarray) -> None:
        """Parents' downward densities to the level's check potentials."""
        for octant, kids, parents in dl.l2l_groups:
            L = self.cache.l2l_check(dl.level, octant)
            if self.pool.sanitize:
                _san.guard_gemm(dc, de, L, site=f"l2l level {dl.level}")
            LT = L.T
            for r in range(dc.shape[0]):
                dc[r][kids] += de[r][parents] @ LT

    def x(self, dl: DownLevel, phi: np.ndarray, dc: np.ndarray) -> None:
        """X list: partner sources straight to check potentials."""
        chk_pts = self.cache.down_check_points(np.zeros(3), dl.level)
        blocks = dl.x
        nrhs = dc.shape[0]
        for i, bi in enumerate(blocks.boxes):
            pos = blocks.src_pos[int(blocks.seg[i]) : int(blocks.seg[i + 1])]
            K = self.src_k.matrix_local(
                chk_pts, self.src_points[pos] - self.plan.centers[bi]
            )
            xs = phi[pos].transpose(2, 0, 1).reshape(nrhs, -1)
            for r in range(nrhs):
                dc[r, bi] += K @ xs[r]

    def dc2de(self, dl: DownLevel, dc: np.ndarray, de: np.ndarray) -> None:
        """One regularised inversion per box carrying downward data."""
        D = self.cache.dc2de(dl.level)
        if self.pool.sanitize:
            _san.guard_gemm(de, dc, D, site=f"dc2de level {dl.level}")
        DT = D.T
        for r in range(dc.shape[0]):
            de[r][dl.dc_boxes] = dc[r][dl.dc_boxes] @ DT

    def l2t(self, dl: DownLevel, de: np.ndarray, pot: np.ndarray) -> None:
        """Leaf boxes' downward densities to their targets."""
        trg_k, n_surf, md = self.trg_k, self.n_surf, self.md
        out_dof = trg_k.target_dof
        eq_pts = self.cache.down_equiv_points(np.zeros(3), dl.level)
        # Box row of each L2T point (the repeat is equivalent to
        # np.repeat over the leaf segments, but gathers only the
        # chunk in flight for each right-hand side).
        row_box = np.repeat(
            np.arange(dl.l2t_boxes.size), np.diff(dl.l2t_seg)
        )
        npts = int(dl.l2t_seg[-1])
        step = max(1, MAX_BLOCK_ENTRIES // (out_dof * n_surf * md))
        for p0 in range(0, npts, step):
            p1 = min(npts, p0 + step)
            K = trg_k.matrix_local(dl.l2t_pts[p0:p1], eq_pts)
            K3 = K.reshape(p1 - p0, out_dof, n_surf * md)
            boxes = dl.l2t_boxes[row_box[p0:p1]]
            tp = dl.l2t_trg_pos[p0:p1]
            for r in range(pot.shape[0]):
                pot[r][tp] += np.einsum("tqm,tm->tq", K3, de[r][boxes])

    def near_u(
        self, blocks: NearBlocks, phi: np.ndarray, pot: np.ndarray
    ) -> None:
        """U list of ``blocks``: partner sources straight to potentials."""
        plan, dir_k = self.plan, self.dir_k
        sdof, out_dof = self.src_k.source_dof, self.trg_k.target_dof
        nrhs = pot.shape[0]
        for i, bi in enumerate(blocks.boxes):
            t0, t1 = int(blocks.trg_start[i]), int(blocks.trg_stop[i])
            pos = blocks.src_pos[int(blocks.seg[i]) : int(blocks.seg[i + 1])]
            ctr = plan.centers[bi]
            trg_pts = plan.targets_sorted[t0:t1] - ctr
            ntr = t1 - t0
            step = max(1, MAX_BLOCK_ENTRIES // max(1, ntr * out_dof * sdof))
            for c0 in range(0, pos.size, step):
                c1 = min(pos.size, c0 + step)
                K = dir_k.matrix_local(
                    trg_pts, self.src_points[pos[c0:c1]] - ctr
                )
                xs = phi[pos[c0:c1]].reshape(-1, nrhs)
                pot[:, t0:t1] += (K @ xs).reshape(
                    ntr, out_dof, nrhs
                ).transpose(2, 0, 1)

    def w_radius(self) -> np.ndarray:
        """Per box, the radius of its upward equivalent surface (the W
        list's sources)."""
        cache, plan = self.cache, self.plan
        hw = cache.root_side / np.power(2.0, np.arange(plan.depth + 1)) / 2.0
        return cache.inner * hw[plan.levels]

    def near_w(
        self, blocks: NearBlocks, ue: np.ndarray, pot: np.ndarray
    ) -> None:
        """W list of ``blocks``: partner boxes' ``ue`` to potentials."""
        plan, trg_k = self.plan, self.trg_k
        out_dof = trg_k.target_dof
        nrhs = pot.shape[0]
        sgrid = surface_grid(self.cache.p)
        radius = self.w_radius()
        for i, bi in enumerate(blocks.boxes):
            t0, t1 = int(blocks.trg_start[i]), int(blocks.trg_stop[i])
            partners = blocks.src_pos[
                int(blocks.seg[i]) : int(blocks.seg[i + 1])
            ]
            ctr = plan.centers[bi]
            rad = radius[partners]
            eq_pts = (
                (plan.centers[partners] - ctr)[:, None, :]
                + rad[:, None, None] * sgrid[None, :, :]
            ).reshape(-1, 3)
            K = trg_k.matrix_local(plan.targets_sorted[t0:t1] - ctr, eq_pts)
            xs = ue[partners].transpose(0, 2, 1).reshape(-1, nrhs)
            pot[:, t0:t1] += (K @ xs).reshape(
                t1 - t0, out_dof, nrhs
            ).transpose(2, 0, 1)


def unsort_potential(
    pot: np.ndarray, trg_perm: np.ndarray, single: bool
) -> np.ndarray:
    """RHS-major sorted potentials -> a fresh array in input target order.

    ``(nt, dof)`` for a single density, ``(nt, dof, nrhs)`` for a block.
    """
    nrhs, nt, dof = pot.shape
    if single:
        potential = np.empty((nt, dof))
        potential[trg_perm] = pot[0]
    else:
        potential = np.empty((nt, dof, nrhs))
        potential[trg_perm] = pot.transpose(1, 2, 0)
    return potential
