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


def _scaled(product: np.ndarray, factor: float) -> np.ndarray:
    """A level operator's ``product`` carried to its level, in place."""
    if factor != 1.0:
        product *= factor
    return product


def _per_cache(owner, cache: OperatorCache, what: str, build):
    """``build()`` once per plan part (its ``memo``) and operator cache:
    what a stage derives from both keeps across applies."""
    memo = owner.memo.setdefault(cache, {})
    if what not in memo:
        memo[what] = build()
    return memo[what]


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
    partners; ``v_by_owner`` the matching per-V-level passes.  The
    exchange arrives as ready steps — ``post`` / ``relay`` / ``wait`` of
    each payload kind — which :meth:`PlanStages.compile` only places;
    ``buffers`` declares the split regions those steps deliver.
    ``phi_kind`` and ``ue_kind`` hold, per box, the delivery code of
    the source densities / upward densities a pass reads there (index
    into ``("", ":own", ":ghost")``), so every step declares exactly
    the regions its partners live in.  At one rank every code
    is 0, the ghost blocks are empty and the exchange steps walk empty
    programs: the sequential apply.
    """

    near: dict[str, tuple[NearBlocks, NearBlocks]]
    v_by_owner: list[VSplit]
    post: list[Step]
    relay: list[Step]
    wait: list[Step]
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
    differences by ~1e6, so merely equivalent batched arithmetic would
    not stay within the 1e-12 column-parity budget).  U and W go
    straight to potentials, so their numpy stages fold the RHS axis into
    one GEMM that streams the kernel block once; the ~1e-16 GEMM-vs-GEMV
    rounding gap stays far below that bound.

    S2M, U, W, X and L2T of a kernel with compiled pair loops
    (:func:`repro.kernels.native.loops_for`: Laplace, Stokes and Navier
    on a host with a C compiler) run those loops instead — S2M as an X
    loop, L2T as a W loop, each leaf its own partner — bound to the
    step's blocks when :meth:`compile` places the step, which is where
    their indices are checked, once, and again before every call of a
    sanitized apply.  Their columns are the single-RHS sums bit for bit.
    The numpy stage methods stay the path of every other kernel and the
    loops' oracle.

    The level operators (``m2m``, ``uc2ue``, ``l2l``, ``dc2de``) are read
    at their reference level (:meth:`~repro.core.precompute.
    OperatorCache.reference`), and the stages scale their products by
    the level factor — a power of two for the homogeneous kernels, so
    the result is the rescaled operator's bit for bit.  M2M and L2L read
    one of them per level, octant 0's, and fold each octant's
    reflection into their data (:meth:`by_octant`), as the class-major
    V stage folds each offset's symmetry.
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
        # a kernel without a profile, or on a host without a C compiler,
        # whose S2M / U / W / X / L2T steps run the numpy stages below —
        # the loops' oracle.
        self.src_loops, self.trg_loops, self.dir_loops = map(
            native.loops_for, kernels
        )

    # -- the step list -----------------------------------------------------

    def compile(self, rank: RankOperands, overlap: bool) -> StepList:
        """Order the stages of one apply into its step list.

        Up, ``post`` + ``relay``, U/W/V over owned partners, V over
        ghost partners, the downward sweep, U/W over ghost partners — with
        the scatter ``wait`` before the owned passes, or after them
        when ``overlap`` hides the in-flight exchange behind them.  The
        computation order is the same either way.

        Nothing here builds an operator: flop counts come from the
        plan's index arrays, an rsvd step's count is a thunk over the
        ranks of its factors, and a step that reads cached operators
        names them in its ``operators`` thunk, which setup runs
        (``RankFMM.build_operators``).  An S2M, U, W, X or L2T step with
        a compiled pair loop gets it bound here, with the same
        declarations.
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

        def inverse_flops(name, lvl, nboxes):
            # (check @ u) @ w: 2 k (rows + cols) at the factors' kept rank
            k = cache.inverse_rank
            return lambda: nboxes * 2.0 * k(name, lvl) * n_surf * (md + qd)

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
                s2m = partial(self.s2m, ul)
                if self.src_loops is not None:
                    s2m = self.src_loops.x(
                        ul.s2m, np.ascontiguousarray(plan.centers[ul.boxes]),
                        self.src_points,
                        cache.up_check_points(cache.origin, lvl),
                        sanitize,
                    )
                emit(f"s2m@{lvl}", "up", "s2m",
                     lambda b: s2m(b["phi"], check(b)),
                     ("phi",), (chk,),
                     n_surf * int(ul.s2m_seg[-1]) * src_fpp)
            if ul.m2m_groups:
                emit(f"m2m@{lvl}", "up", "m2m",
                     lambda b: self.m2m(ul, b["ue"], check(b)),
                     (f"ue@{lvl + 1}",), (chk,),
                     sum(k.size for _, k, _ in ul.m2m_groups) * matvec,
                     operators=lambda: [  # the stored ones, and the folds
                         cache.reference("m2m_check", lvl + 1,
                                         cache.octant_fold(octant)[0])
                         for octant, _, _ in ul.m2m_groups
                     ])
            emit(f"uc2ue@{lvl}", "up", "uc2ue",
                 lambda b: self.uc2ue(ul, b["check"], b["ue"]),
                 (chk,), (ue,), inverse_flops("uc2ue", lvl, ul.boxes.size),
                 releases=(chk,),
                 operators=lambda: cache.reference("uc2ue", lvl))

        def v_direct(vl: VLevel, sp: VSplit, vp: VPass, split):
            lvl = vl.level
            rsvd = sched.backend(lvl) == "rsvd"
            narrow = rsvd and sched.dtype == "float32"
            lo = sp.own.rows.size if split == "ghost" else 0

            def rsvd_flops():
                # The pairs, whichever layout runs them: an empty slot
                # of a block is not counted.  The ranks are fixed once
                # factored, so the sum is taken once.
                return _per_cache(vp, cache, "flops", lambda: sum(
                    n * _rsvd_pair_flops(
                        cache.m2l_rsvd_rank(lvl, offset), n_surf, md, qd
                    )
                    for offset, n in vp.counts.items()
                ))

            # The factors live at the reference level; the stages scale.
            key = cache.m2l_reference(lvl)[0]
            if rsvd and sched.blocked:
                stage = "v_blocked", lambda b: self.v_blocked(
                    vl, vp, lo, b["ue"], b["dc"])
            else:
                stage = "v_direct", lambda b: self.v_direct(
                    vl, vp, b["ue"], b["dc"])

            def operators():
                if rsvd and sched.blocked:
                    for po, _, _ in vp.po_groups:
                        cache.m2l_stacks(key, po, sched.dtype)
                else:  # one operator per symmetry class, and the folds
                    for offset, _, _ in vp.classes:
                        canonical = cache.m2l_fold(offset)[0]
                        if rsvd:
                            cache.m2l_rsvd(key, canonical, sched.dtype)
                        else:
                            cache.m2l_check(key, canonical)
                if rsvd:
                    rsvd_flops()  # the ranks the count reads

            emit(f"v:{split}@{lvl}", "down_v", *stage,
                 ue_of(vl.src_boxes[vp.rows]), (f"dc@{lvl}",),
                 rsvd_flops if rsvd else vp.npairs * matvec,
                 dtype="float32" if narrow else "float64", narrowing=narrow,
                 operators=operators)

        def v_pass(split):
            for vl, sp in zip(plan.v_levels, rank.v_by_owner):
                vp = getattr(sp, split)
                if vp.npairs:
                    v_direct(vl, sp, vp, split)

        def down(dl: DownLevel):
            lvl = dl.level
            dc, de = f"dc@{lvl}", f"de@{lvl}"
            if dl.l2l_groups:
                emit(f"l2l@{lvl}", "eval", "l2l",
                     lambda b: self.l2l(dl, b["de"], b["dc"]),
                     (f"de@{lvl - 1}",), (dc,),
                     sum(k.size for _, k, _ in dl.l2l_groups) * matvec,
                     operators=lambda: [  # the stored ones, and the folds
                         cache.reference("l2l_check", lvl,
                                         cache.octant_fold(octant)[0])
                         for octant, _, _ in dl.l2l_groups
                     ])
            if dl.x.boxes.size:
                x = partial(self.x, dl)
                if self.src_loops is not None:
                    x = self.src_loops.x(
                        dl.x, plan.centers, self.src_points,
                        cache.down_check_points(cache.origin, lvl), sanitize,
                    )
                emit(f"x@{lvl}", "down_x", "x",
                     lambda b: x(b["phi"], b["dc"]),
                     phi_of(dl.x.partners), (dc,),
                     n_surf * int(dl.x.seg[-1]) * src_fpp)
            if dl.dc_boxes.size:
                emit(f"dc2de@{lvl}", "eval", "dc2de",
                     lambda b: self.dc2de(dl, b["dc"], b["de"]),
                     (dc,), (de,),
                     inverse_flops("dc2de", lvl, dl.dc_boxes.size),
                     operators=lambda: cache.reference("dc2de", lvl))
            if dl.l2t_boxes.size:
                l2t = partial(self.l2t, dl)
                if self.trg_loops is not None:
                    l2t = self.trg_loops.w(
                        dl.l2t, plan.centers, self.surface_radius(cache.outer),
                        surface_grid(cache.p, cache.dim), plan.targets_sorted, sanitize,
                        rhs_major=True,
                    )
                emit(f"l2t@{lvl}", "eval", "l2t",
                     lambda b: l2t(b["de"], b["pot"]),
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
                        w, plan.centers, self.surface_radius(cache.inner),
                        surface_grid(cache.p, cache.dim), plan.targets_sorted, sanitize,
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
        chk_pts = self.cache.up_check_points(self.cache.origin, ul.level)
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
        """Children's upward densities to their parents' check potentials
        (:meth:`by_octant`)."""
        self.by_octant(ul, "m2m_check", ul.level + 1, ul.m2m_groups, ue,
                       check, f"m2m level {ul.level}")

    def uc2ue(self, ul: UpLevel, check: np.ndarray, ue: np.ndarray) -> None:
        """One inversion per source box of the level, through its factors."""
        (U, W), f = self.cache.reference("uc2ue", ul.level)
        if self.pool.sanitize:
            _san.guard_gemm(ue, check, U, W, site=f"uc2ue level {ul.level}")
        for r in range(check.shape[0]):
            ue[ul.boxes, r] = _scaled((check[r] @ U) @ W, f)

    def v_direct(
        self, vl: VLevel, vp: VPass, ue: np.ndarray, dc: np.ndarray
    ) -> None:
        """Dense or class-major rsvd M2L of one pass of a level: per
        offset, one stacked GEMM through its symmetry class's dense
        operator or two through its compressed factors (the reference
        level's, the level factor applied to the narrow intermediate),
        between the permuted gather and scatter-add of
        :meth:`~repro.core.precompute.OperatorCache.m2l_fold` (movement
        loops bound to the pass on first use).  Mixed precision gathers
        in the factor dtype; the scatter-add into float64 upcasts."""
        cache, sanitize, sched = self.cache, self.pool.sanitize, self.sched
        key, scale = cache.m2l_reference(vl.level)
        moves = _per_cache(vp, cache, "moves", lambda: native.move_loops().bind(
            [(o, vl.src_boxes[s], vl.trg_boxes[t]) for o, s, t in vp.classes],
            cache.m2l_fold, ue.shape[0], dc.shape[1], sanitize,
        ))
        dense = sched.backend(vl.level) == "dense"
        read = {  # once per class: (M.T,) dense, (vf.T, uf.T) rsvd
            c: (cache.m2l_check(vl.level, c).T,) if dense
            else tuple(f.T for f in cache.m2l_rsvd(key, c, sched.dtype)[::-1])
            for c in {c for c, _, _ in moves}
        }
        for canonical, gather, scatter_add in moves:
            ops = read[canonical]
            if sanitize:
                _san.guard_gemm(dc, ue, *ops, site=f"m2l level {vl.level}")
            for r in range(dc.shape[0]):
                out = gather(ue, r, ops[0].dtype) @ ops[0]
                for op in ops[1:]:  # rsvd: the level factor, then uf.T
                    out = _scaled(out, scale) @ op
                scatter_add(dc[r], out)

    def v_blocked(
        self, vl: VLevel, vp: VPass, lo: int, ue: np.ndarray, dc: np.ndarray
    ) -> None:
        """Rsvd M2L of one pass of a level, parent-pair blocked.

        Per direction and chunk of parent pairs: gather the source
        parents' sibling slabs (the zero sentinel row stands in for a
        child that is missing, inactive or outside the pass), ``2^d``
        GEMMs through the ``V`` stack — one per source octant, every
        target octant's factor at once — a slab reorder of the
        rank-major intermediate from ``[o_s][o_t]`` to ``[o_t][o_s]``,
        ``2^d`` GEMMs through the ``UT`` stack, one slab scatter-add (a
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
        boxes, targets = vl.src_boxes[vp.rows], vl.trg_boxes
        nr, nt = boxes.size, targets.size
        wm, wq = self.n_surf * self.md, self.n_surf * self.qd
        nchild = 1 << cache.dim
        by_mask: dict[int, list] = {}
        for po, src_rows, trg_rows in vp.po_groups:
            mask, *stacks = cache.m2l_stacks(key, po, dtype)
            octants = np.arange(nchild) ^ mask
            by_mask.setdefault(mask, []).append((
                stacks, np.minimum(src_rows - lo, nr)[:, octants],
                trg_rows[:, octants],
            ))
        # ~1.2 MB of source slabs per chunk keeps them and the
        # intermediate L2-resident (level 4 of the 50k-point Laplace
        # tree: 128 parent pairs 0.32 s, 205 0.36 s, 411 0.38 s).
        step = max(1, 160_000 // (nchild * max(wm, wq)))
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
                        for o in range(nchild):  # every octant has slots
                            a, b = vcut[o], vcut[o + 1]
                            np.matmul(V[a:b], x[:, o].T, out=y[a:b])
                        for a, b, c in moves:
                            yt[a:b] = y[c : c + b - a]
                        for o in range(nchild):
                            a, b = ucut[o], ucut[o + 1]
                            np.matmul(yt[a:b].T, UT[a:b], out=out[:, o])
                        acc[t] += out
                total += cache.reflect(acc[:nt], mask)
            if scale != 1.0:
                total *= scale
            dc[r][targets] += total

    def l2l(self, dl: DownLevel, de: np.ndarray, dc: np.ndarray) -> None:
        """Parents' downward densities to the level's check potentials
        (:meth:`by_octant`, over ``de`` read box-major)."""
        self.by_octant(
            dl, "l2l_check", dl.level,
            [(o, parents, kids) for o, kids, parents in dl.l2l_groups],
            de.transpose(1, 0, 2), dc, f"l2l level {dl.level}",
        )

    def by_octant(
        self, owner, name: str, level: int, groups: list, src: np.ndarray,
        dst: np.ndarray, site: str,
    ) -> None:
        """M2M or L2L of one level: ``dst[r][to] += M_o src[from, r]``
        for every octant group ``(o, from, to)`` of box rows, through the
        operator octant ``o`` is stored as (octant 0's for a kernel with
        a declared symmetry: ``M_o = R_o M_0 R_o``,
        :meth:`~repro.core.precompute.OperatorCache.octant_fold`).  Per
        stored operator and right-hand side one GEMM over the slab of its
        octants' source rows, each gathered through the octant's
        reflection; each octant's block of products is scatter-added
        back through it (movement loops bound on first use, per cache).
        With a declared symmetry a level runs one GEMM; without, one per
        octant, and the folds are the identity.  ``src`` is box-major
        ``[box, rhs, W]``, ``dst`` RHS-major ``[rhs, row, W]``."""
        cache = self.cache

        def bind():
            bound = native.move_loops().bind(
                groups, cache.octant_fold, src.shape[0], dst.shape[1],
                self.pool.sanitize,
            )
            runs: dict[int, list] = {}  # stored octant -> its slab's moves
            for (stored, gather, scatter_add), (_, rows, _) in zip(bound, groups):
                moves = runs.setdefault(stored, [])
                lo = moves[-1][3] if moves else 0
                moves.append((gather, scatter_add, lo, lo + rows.size))
            return list(runs.items())

        for stored, moves in _per_cache(owner, cache, "moves", bind):
            M, f = cache.reference(name, level, stored)
            if self.pool.sanitize:
                _san.guard_gemm(dst, src, M, site=site)
            MT = M.T
            slab = np.empty((moves[-1][3], MT.shape[0]))
            for r in range(dst.shape[0]):
                for gather, _, lo, hi in moves:
                    gather(src, r, out=slab[lo:hi])
                out = _scaled(slab @ MT, f)
                for _, scatter_add, lo, hi in moves:
                    scatter_add(dst[r], out[lo:hi])

    def x(self, dl: DownLevel, phi: np.ndarray, dc: np.ndarray) -> None:
        """X list: partner sources straight to check potentials."""
        chk_pts = self.cache.down_check_points(self.cache.origin, dl.level)
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
        """One inversion per box carrying downward data, through its factors."""
        (U, W), f = self.cache.reference("dc2de", dl.level)
        if self.pool.sanitize:
            _san.guard_gemm(de, dc, U, W, site=f"dc2de level {dl.level}")
        for r in range(dc.shape[0]):
            de[r][dl.dc_boxes] = _scaled((dc[r][dl.dc_boxes] @ U) @ W, f)

    def l2t(self, dl: DownLevel, de: np.ndarray, pot: np.ndarray) -> None:
        """Leaf boxes' downward densities to their targets."""
        trg_k, n_surf, md = self.trg_k, self.n_surf, self.md
        out_dof = trg_k.target_dof
        eq_pts = self.cache.down_equiv_points(self.cache.origin, dl.level)
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

    def surface_radius(self, factor: float) -> np.ndarray:
        """Per box, the radius of its surface of radius ``factor``: the
        upward equivalent surface (``inner``, the W list's sources) or
        the downward equivalent one (``outer``, L2T's)."""
        cache, plan = self.cache, self.plan
        hw = cache.root_side / np.power(2.0, np.arange(plan.depth + 1)) / 2.0
        return factor * hw[plan.levels]

    def near_w(
        self, blocks: NearBlocks, ue: np.ndarray, pot: np.ndarray
    ) -> None:
        """W list of ``blocks``: partner boxes' ``ue`` to potentials."""
        plan, trg_k = self.plan, self.trg_k
        out_dof = trg_k.target_dof
        nrhs = pot.shape[0]
        sgrid = surface_grid(self.cache.p, self.cache.dim)
        radius = self.surface_radius(self.cache.inner)
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
            ).reshape(-1, sgrid.shape[1])
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
