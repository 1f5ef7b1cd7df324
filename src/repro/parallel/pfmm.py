"""The three-stage parallel interaction calculation (Section 3.2).

"The interaction calculation part of our algorithm is logically separated
into three stages.  The first stage is a computation step which performs
the upward computation.  Each processor P builds the upward equivalent
densities for the LET nodes to which it contributes (ignoring the
existence of the other processors).  The second stage [communicates ghost
sources and reduces/scatters equivalent densities].  The third stage
performs the downward computation ... (ignoring the existence of the
other processors again)."

The redundant computation this design accepts near the root (every rank
computes partial upward densities and full downward passes for the
ancestors of its boxes) is reproduced faithfully; as the paper notes, the
number of such boxes is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclasses_field

import numpy as np

from repro.analysis import sanitize as _san
from repro.core.evaluator import (
    PlanStages,
    RankOperands,
    coerce_density,
    resolve_kernels,
    unsort_potential,
)
from repro.core.fftm2l import FFTM2L
from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import (
    M2LSchedule,
    coarse_split_levels,
    resolve_m2l_schedule,
    v_stats_from_plan,
)
from repro.core.plan import ExecutionPlan, NearBlocks, compile_plan
from repro.core.precompute import OperatorCache
from repro.core.steps import BufferSpec, Step, StepList, run_steps
from repro.kernels.base import Kernel
from repro.octree.lists import InteractionLists, build_lists
from repro.parallel.exchange import (
    PHASES,
    ApplyExchange,
    GhostLayout,
    Program,
    Roles,
    box_roles,
    compile_exchange,
    geo_binding,
    phi_binding,
    pue_binding,
    vsp_binding,
)
from repro.parallel.let import classify_let, gather_users
from repro.parallel.owners import assign_owners, gather_contributors
from repro.parallel.partition import partition_points
from repro.parallel.ptree import ParallelTree, parallel_build_tree
from repro.parallel.simmpi import (
    CommStats,
    PerRank,
    SimComm,
    current_recorder,
    run_spmd,
)
from repro.util.flops import FlopCounter
from repro.util.timing import PhaseTimer

#: Payload kinds of one apply, in the order every rank runs each phase.
APPLY_KINDS = ("phi", "pue")


def _global_root(
    points: np.ndarray, pad: float = 1e-6
) -> tuple[np.ndarray, float]:
    """Bounding cube over all points, matching :func:`agree_root_cube`.

    The driver holds the full point set, so it can compute the cube the
    ranks would have agreed on collectively (elementwise min/max commute
    with the Allreduce) and share one operator cache across ranks.
    """
    lo, hi = points.min(axis=0), points.max(axis=0)
    side = float((hi - lo).max())
    side = side * (1.0 + pad) if side > 0 else 1.0
    center = (lo + hi) / 2.0
    return center - side / 2.0, side


def v_split_bcast_schedule(
    lvl_boxes: np.ndarray,
    lists: InteractionLists,
    contrib_trg: np.ndarray,
    gsrc: np.ndarray,
) -> list[tuple[int, int, tuple[int, ...]]]:
    """The coarse-split broadcast schedule of one tree level.

    Pure function of the plan inputs (level boxes, interaction lists,
    target-contributor matrix, global source counts): the level's active
    V target boxes — some rank contributes targets and some V partner
    holds global sources — each assigned cyclically to one of their
    contributor ranks, who broadcasts the computed downward-check rows
    to the other contributors.  Returns ``(box, root_rank, participants)``
    rows, identical on every rank (everything derives from replicated
    matrices).  Shared by :func:`rank_setup` and the static
    communication verifier (:mod:`repro.analysis.commir`), so the
    runtime schedule and the certified one cannot drift apart.
    """
    cand = [
        int(bx) for bx in lvl_boxes
        if contrib_trg[:, bx].any()
        and any(gsrc[int(a)] > 0 for a in lists.V[int(bx)])
    ]
    schedule: list[tuple[int, int, tuple[int, ...]]] = []
    for j, bx in enumerate(cand):
        parts = tuple(
            int(r) for r in np.nonzero(contrib_trg[:, bx])[0]
        )
        schedule.append((bx, parts[j % len(parts)], parts))
    return schedule


def vsp_roles(
    level: int, schedule: list[tuple[int, int, tuple[int, ...]]]
) -> Roles:
    """Exchange roles of one split level's broadcasts: the assigned
    rank owns and alone contributes the rows, the other target
    contributors use them."""
    return [
        ((level, bx), root, [root], [r for r in parts if r != root])
        for bx, root, parts in schedule
    ]


def exchange_schedule(
    vsp_levels: list[int], napplies: int = 1, include_setup: bool = True
) -> list[tuple[str, str]]:
    """``(program name, phase)`` in the order a rank runs them:
    :func:`rank_setup` the ``geo`` phases; every apply each phase over
    :data:`APPLY_KINDS` (the ``post`` / ``relay`` / ``wait`` steps of
    :meth:`RankFMM.compile`) and then, split level by split level, the
    ``vsp`` phases."""
    calls = [("geo", phase) for phase in PHASES] if include_setup else []
    for _ in range(napplies):
        calls += [(kind, phase) for phase in PHASES for kind in APPLY_KINDS]
        calls += [
            (f"vsp@{lvl}", phase) for lvl in vsp_levels for phase in PHASES
        ]
    return calls


@dataclass
class _VSplit:
    """One V level's pairs split by source-box ownership.

    Rows/classes over sources this rank owns can be processed inside the
    overlap window (their global equivalent densities are on hand right
    after the owner relay); ghost rows wait for the scatter.

    At *coarse split levels* (box count below the rank count — see
    :func:`repro.core.m2lschedule.coarse_split_levels`) the redundant
    tree-top translations are divided instead: ``own_*`` is empty, the
    ``ghost_*`` classes are restricted to the target boxes *assigned* to
    this rank by the deterministic cyclic assignment, ``inv_rows`` lists
    the assigned positions into ``vl.trg_boxes`` (the only rows this
    rank inverse-transforms), and ``bcast`` holds the per-box
    ``(box, root_rank, participant_ranks)`` broadcast schedule that
    delivers every participant the assigned rank's downward-check rows
    (compiled into ``GhostLayout.vsp[level]``).
    ``inv_rows is None`` means the level is not split (all rows local).
    """

    own_rows: np.ndarray
    ghost_rows: np.ndarray
    own_classes: list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]
    ghost_classes: list[tuple[tuple[int, int, int], np.ndarray, np.ndarray]]
    inv_rows: np.ndarray | None = None
    bcast: list[tuple[int, int, tuple[int, ...]]] = dataclasses_field(
        default_factory=list
    )


class RankFMM:
    """One rank's persistent parallel FMM state (the setup product).

    Mirrors the sequential ``KIFMM`` setup/apply split over the rank's
    local essential tree: :func:`rank_setup` builds the parallel tree,
    the LET-local :class:`~repro.core.plan.ExecutionPlan` (partner
    gating by *global* source counts, U/X positions into the combined
    local+ghost source array), the ghost geometry, and the owned/ghost
    work splits that define the overlap window.  :meth:`apply` then runs
    one batched interaction evaluation, exchanging only densities.

    The object deliberately holds no communicator — each apply receives
    one, so the same states can be reused across ``run_spmd`` calls
    (each GMRES matvec is one such call).
    """

    def __init__(
        self,
        kernel: Kernel,
        options: FMMOptions,
        ptree: ParallelTree,
        lists: InteractionLists,
        cache: OperatorCache,
        fft: FFTM2L | None,
        plan: ExecutionPlan,
        layout: GhostLayout,
        ext_points: np.ndarray,
        u_own: NearBlocks,
        u_ghost: NearBlocks,
        w_own: NearBlocks,
        w_ghost: NearBlocks,
        v_splits: list[_VSplit],
        src_start: np.ndarray,
        src_stop: np.ndarray,
        source_kernel: Kernel | None,
        target_kernel: Kernel | None,
        direct_kernel: Kernel | None,
        m2l_schedule: M2LSchedule,
        v_compute: np.ndarray,
    ) -> None:
        self.kernel = kernel
        self.options = options
        self.ptree = ptree
        self.tree = ptree.tree
        self.lists = lists
        self.cache = cache
        self.fft = fft
        self.plan = plan
        self.layout = layout
        self.ext_points = ext_points
        self.u_own = u_own
        self.u_ghost = u_ghost
        self.w_own = w_own
        self.w_ghost = w_ghost
        self.v_splits = v_splits
        self.src_start = src_start
        self.src_stop = src_stop
        # Which boxes this rank performs V target-side work for.  Every
        # box with local targets, except at coarse split levels, where
        # only the cyclically-assigned boxes remain (the flop model's
        # ``v_targets`` mask).
        self.v_compute = v_compute
        self.m2l_schedule = m2l_schedule
        self.src_k, self.trg_k, self.dir_k = resolve_kernels(
            kernel, source_kernel, target_kernel, direct_kernel
        )
        #: Flops of this rank's applies, by phase (as ``KIFMM.flops``).
        self.flops = FlopCounter()

    def compile(
        self, overlap: bool = True, exch: ApplyExchange | None = None
    ) -> StepList:
        """This rank's apply as a step list.

        The shared stages over the owned-then-ghost splits of the
        LET-local plan (:meth:`PlanStages.compile` orders them) plus
        the exchange as steps: ``post`` / ``relay`` / ``wait`` of each
        payload kind and the ``vsp`` broadcast pair of each coarse split
        level.  ``exch`` binds those steps to one apply; the plan
        verifier compiles without it and reads only the declarations.
        """
        plan, lay = self.plan, self.layout
        width = self.cache.n_surf * self.kernel.source_dof
        partial = "ue:partial@{}".format
        # What each payload kind ships, and the split regions it
        # delivers: owner-relayed rows (own) and scattered rows (ghost).
        sent = {
            "phi": ("phi",),
            "pue": tuple(partial(ul.level) for ul in plan.up_levels),
        }
        buffers: dict[str, BufferSpec] = {}
        delivers: dict[tuple[str, str], tuple[str, ...]] = {}
        for kind, family in (("phi", "ext_phi"), ("pue", "ue")):
            program = getattr(lay, kind)
            for split, phase in (("own", "relay"), ("ghost", "wait")):
                boxes = [
                    op.ids[0] for op in getattr(program, phase)
                    if op.kind == "store"
                ]
                delivers[kind, split] = ()
                if not boxes:
                    continue
                shape = (len(boxes), width)
                if kind == "phi":
                    shape = (
                        int(sum(lay.ext_stop[bx] - lay.ext_start[bx]
                                for bx in boxes)),
                        self.src_k.source_dof,
                    )
                name = f"{family}:{split}"
                buffers[name] = BufferSpec(name, shape, "float64")
                delivers[kind, split] = (name,)

        def exchange_step(phase, kind, reads=(), writes=()) -> Step:
            # The exchange holds its own views of phi / ue / ext_phi
            # (bound in ``apply``) and times itself as pack / wait.
            return Step(
                f"{phase}:{kind}", "exchange",
                lambda b: exch.run(kind, phase),
                kind=phase, stage="ApplyExchange.run",
                reads=reads, writes=writes,
            )

        rank = RankOperands(
            near={"own": (self.u_own, self.w_own),
                  "ghost": (self.u_ghost, self.w_ghost)},
            v_splits=self.v_splits,
            post=[
                exchange_step("post", k, reads=sent[k]) for k in APPLY_KINDS
            ],
            relay=[
                exchange_step("relay", k, reads=sent[k],
                              writes=delivers[k, "own"])
                for k in APPLY_KINDS
            ],
            wait=[
                exchange_step("wait", k, writes=delivers[k, "ghost"])
                for k in APPLY_KINDS
            ],
            vsp={lvl: self._v_split_steps(exch, lvl) for lvl in lay.vsp},
            buffers=buffers,
            up_region=partial,
        )
        stages = PlanStages(
            plan, self.kernel, self.cache,
            (self.src_k, self.trg_k, self.dir_k),
            self.m2l_schedule, self.fft, self.ext_points,
        )
        return stages.compile(rank, overlap)

    def _v_split_steps(
        self, exch: ApplyExchange | None, lvl: int
    ) -> list[Step]:
        """The broadcast of one split level's downward-check rows.

        ``post`` posts the receives and, on the assigned rank, packs
        and ships the rows; ``wait`` completes, forwards along the rank
        tree and stores the other participants' rows.  At this point
        ``dc[:, bx]`` holds exactly the level's V contribution (L2L and
        X accumulate later, own classes are empty at split levels), so
        the root's rows can be assigned verbatim.
        """
        name = f"vsp@{lvl}"

        def post(b) -> None:
            exch.run(name, "post", timed="down_v")
            exch.run(name, "relay", timed="down_v")

        return [
            Step(f"post:{name}", "down_v", post, kind="post",
                 stage="ApplyExchange.run", reads=(f"dc@{lvl}",)),
            Step(f"wait:{name}", "down_v",
                 lambda b: exch.run(name, "wait", timed="down_v"),
                 kind="wait", stage="ApplyExchange.run",
                 writes=(f"dc@{lvl}",)),
        ]

    def apply(
        self,
        comm: SimComm,
        local_density: np.ndarray,
        timer: PhaseTimer | None = None,
        overlap: bool = True,
    ) -> np.ndarray:
        """One planned interaction evaluation over the LET.

        The rank driver: it sorts the density, allocates the work
        arrays, binds the exchange to them and runs the step list of
        :meth:`compile`.

        The computation order is identical with and without overlap —
        owned-data passes always run before their ghost counterparts —
        so the two modes produce bitwise identical potentials; the flag
        only decides whether the scatter wait happens before or after
        the owned passes (i.e. whether the in-flight exchange is hidden
        behind them).

        ``local_density`` may be a stacked block — ``(ns, sdof, nrhs)``
        or a flat ``(ns * sdof, nrhs)`` — in which case the whole block
        rides ONE overlapped exchange: density rows widen to
        ``sdof * nrhs`` and per-box equivalent-density payloads to
        ``nrhs`` contiguous surface vectors, so latency and coordinate
        traffic are paid once per block instead of once per column.
        """
        timer = timer if timer is not None else PhaseTimer()
        tree, plan = self.tree, self.plan
        md, qd = self.kernel.source_dof, self.kernel.target_dof
        sdof, out_dof = self.src_k.source_dof, self.trg_k.target_dof
        n_surf, nb = self.cache.n_surf, plan.nboxes
        ns, nt = tree.sources.shape[0], tree.targets.shape[0]
        n_ext = self.ext_points.shape[0]
        pool = plan.buffers
        pool.sanitize = self.options.sanitize or _san.enabled()
        phi3, nrhs, single = coerce_density(
            np.asarray(local_density, dtype=np.float64), ns, sdof
        )
        if pool.sanitize:
            _san.check_finite(phi3, "input", "local density",
                              rows_are="points")
        phi = np.ascontiguousarray(phi3[tree.src_perm])
        # The exchange payloads keep points / boxes on the leading axis
        # with all right-hand sides packed into the row: one exchange,
        # nrhs-wide.
        phi_rows = phi.reshape(ns, sdof * nrhs)
        ue_rows = pool.zeros("ue", (nb, nrhs * n_surf * md))
        ext_rows = pool.empty("ext_phi", (n_ext, sdof * nrhs))
        rec = current_recorder()
        if rec is not None:
            # No message separates these records from the upward pass,
            # so they carry the clock of its writes.
            rec.register(f"rank{comm.rank}:phi_sorted", phi_rows)
            rec.write(phi_rows, "sort-density")
            rec.register(f"rank{comm.rank}:ue", ue_rows)
            rec.write(ue_rows, "upward-partial")
            rec.register(f"rank{comm.rank}:ext_phi", ext_rows)
        live = {
            "phi": phi,
            "ue": ue_rows.reshape(nb, nrhs, n_surf * md),
            "ext_phi": ext_rows.reshape(n_ext, sdof, nrhs),
            "dc": pool.zeros("dc", (nrhs, nb, n_surf * qd)),
            "de": pool.zeros("de", (nrhs, nb, n_surf * md)),
            "pot": pool.zeros("pot", (nrhs, nt, out_dof)),
        }
        lay = self.layout
        vsp = vsp_binding(live["dc"])
        exch = ApplyExchange(comm, timer, {
            "phi": (lay.phi, phi_binding(
                phi_rows, self.src_start, self.src_stop,
                ext_rows, lay.ext_start, lay.ext_stop,
            )),
            "pue": (lay.pue, pue_binding(ue_rows)),
            **{f"vsp@{lvl}": (prog, vsp) for lvl, prog in lay.vsp.items()},
        })
        run_steps(
            self.compile(overlap, exch), live, pool, nrhs, self.flops, timer,
        )
        potential = unsort_potential(live["pot"], tree.trg_perm, single)
        if pool.sanitize:
            _san.check_escape(potential, pool, "RankFMM.apply")
        return potential


def rank_setup(
    comm: SimComm,
    kernel: Kernel,
    local_points: np.ndarray,
    options: FMMOptions | None = None,
    *,
    root: tuple[np.ndarray, float] | None = None,
    cache: OperatorCache | None = None,
    fft: FFTM2L | None = None,
    source_kernel: Kernel | None = None,
    target_kernel: Kernel | None = None,
    direct_kernel: Kernel | None = None,
    timer: PhaseTimer | None = None,
) -> RankFMM:
    """Per-rank setup of the persistent parallel operator.

    Runs once per geometry: parallel tree + lists, LET classification,
    owner assignment, the LET-local execution plan, the setup-time ghost
    *geometry* exchange, and the owned/ghost work splits.  ``cache`` and
    ``fft`` may be shared across ranks (their lazy per-level entries are
    deterministic, so concurrent population is benign); when omitted
    they are built locally from the agreed root cube.
    """
    opts = options or FMMOptions()
    timer = timer if timer is not None else PhaseTimer()
    me = comm.rank
    local_points = np.asarray(local_points, dtype=np.float64)

    with timer.phase("tree"):
        ptree = parallel_build_tree(
            comm, local_points,
            max_points=opts.max_points, max_depth=opts.max_depth, root=root,
        )
        tree = ptree.tree
        lists = build_lists(tree)
        contrib_src, contrib_trg = gather_contributors(
            comm, ptree.local_contributes_src(), ptree.local_contributes_trg()
        )
        owner = assign_owners(contrib_src | contrib_trg)
        usage = classify_let(tree, lists, ptree.local_contributes_trg())
        usage.uses_equiv &= ptree.global_nsrc > 0
        usage.uses_source &= ptree.global_nsrc > 0
        users_equiv, users_src = gather_users(comm, usage)

    if cache is None:
        cache = OperatorCache(
            kernel, opts.p, tree.root_side,
            inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
        )
    nb = tree.nboxes
    # Layout of the combined (local + ghost) source array: used boxes in
    # ascending order, each holding its *global* sources in the owner's
    # concatenation order.
    used = np.flatnonzero(usage.uses_source)
    sizes = ptree.global_nsrc[used]
    ext_start = np.zeros(nb, dtype=np.int64)
    ext_stop = np.zeros(nb, dtype=np.int64)
    stops = np.cumsum(sizes)
    ext_start[used] = stops - sizes
    ext_stop[used] = stops
    ext_total = int(stops[-1]) if used.size else 0

    # This rank's slice of each payload kind's program; positions and
    # densities circulate under the same roles.
    src_roles = box_roles(
        np.nonzero(users_src.any(axis=0))[0], owner, contrib_src, users_src
    )
    ue_roles = box_roles(
        np.nonzero(users_equiv.any(axis=0))[0], owner, contrib_src,
        users_equiv,
    )

    def my_program(kind: str, roles: Roles, scheme: str = opts.comm):
        return compile_exchange(kind, roles, scheme, only=me)[me]

    # Setup-time geometry exchange (Algorithm 1 over positions).
    ghost_pts: dict[int, np.ndarray] = {}
    geo = ApplyExchange(comm, timer, {"geo": (
        my_program("geo", src_roles), geo_binding(tree.src_points, ghost_pts)
    )})
    for phase in PHASES:
        geo.run("geo", phase)
    ext_points = np.empty((ext_total, 3))
    for b in used:
        ext_points[ext_start[b]:ext_stop[b]] = ghost_pts[int(b)]

    vsp_programs: dict[int, Program] = {}

    with timer.phase("plan"):
        plan, near = compile_plan(
            tree, lists,
            partner_nsrc=ptree.global_nsrc,
            ext_ranges=(ext_start, ext_stop),
        )

        # Ownership splits of the near-field and V-list work: owned
        # partners are computable right after the owner relay, ghost
        # partners only after the scatter completes.
        owned = owner == me
        u_own, w_own = near.blocks(owned)
        u_ghost, w_ghost = near.blocks(~owned)

        # Coarse split levels: fewer boxes than ranks, where the fully
        # redundant tree-top V translations leave ranks idle.  Each
        # active target box there is assigned to exactly one of its
        # contributor ranks (cyclic over the level's active boxes), and
        # the assigned rank broadcasts the computed downward-check rows
        # — every quantity below derives from replicated matrices, so
        # all ranks agree without communication.
        split_levels = coarse_split_levels(
            [len(tree.levels[lvl]) for lvl in range(tree.depth + 1)],
            comm.size,
        )
        # default: every box with local targets
        v_compute = near.trg_stop > near.trg_start
        v_splits: list[_VSplit] = []
        empty_idx = np.empty(0, dtype=np.int64)
        for vl in plan.v_levels:
            if vl.level in split_levels:
                lvl_boxes = np.asarray(
                    tree.levels[vl.level], dtype=np.int64
                )
                # The level's global V target set, gated like build_plan:
                # some rank contributes targets and some partner holds
                # global sources.
                schedule = v_split_bcast_schedule(
                    lvl_boxes, lists, contrib_trg, ptree.global_nsrc
                )
                assigned_rank = {
                    bx: root_r for bx, root_r, _ in schedule
                }
                bcast = [
                    (bx, root_r, parts)
                    for bx, root_r, parts in schedule if me in parts
                ]
                if bcast:
                    # The broadcast always runs the binomial shape.
                    vsp_programs[int(vl.level)] = my_program(
                        "vsp", vsp_roles(int(vl.level), schedule), "tree"
                    )
                assigned = np.fromiter(
                    (assigned_rank[int(bx)] == me for bx in vl.trg_boxes),
                    bool, vl.trg_boxes.size,
                )
                v_compute[lvl_boxes] = False
                v_compute[[bx for bx, r in assigned_rank.items()
                           if r == me]] = True
                ghost_classes = []
                used_src: list[np.ndarray] = []
                for offset, spos, tpos in vl.classes:
                    m = assigned[tpos]
                    if m.any():
                        ghost_classes.append((offset, spos[m], tpos[m]))
                        used_src.append(spos[m])
                v_splits.append(
                    _VSplit(
                        own_rows=empty_idx,
                        ghost_rows=(
                            np.unique(np.concatenate(used_src))
                            if used_src else empty_idx
                        ),
                        own_classes=[],
                        ghost_classes=ghost_classes,
                        inv_rows=np.flatnonzero(assigned),
                        bcast=bcast,
                    )
                )
                continue
            src_owned = owned[vl.src_boxes]
            own_classes, ghost_classes = [], []
            for offset, spos, tpos in vl.classes:
                m = src_owned[spos]
                if m.any():
                    own_classes.append((offset, spos[m], tpos[m]))
                if not m.all():
                    ghost_classes.append((offset, spos[~m], tpos[~m]))
            v_splits.append(
                _VSplit(
                    own_rows=np.flatnonzero(src_owned),
                    ghost_rows=np.flatnonzero(~src_owned),
                    own_classes=own_classes,
                    ghost_classes=ghost_classes,
                )
            )

    # The plan's V statistics are gated by global source counts (via
    # partner_nsrc), so every rank resolves the identical schedule.
    sched = resolve_m2l_schedule(
        opts.m2l, opts.dtype,
        stats=v_stats_from_plan(plan), cache=cache, kernel=kernel,
    )
    if fft is None and sched.needs_fft:
        fft = FFTM2L(cache)

    src_start = np.fromiter((b.src_start for b in tree.boxes), np.int64, nb)
    src_stop = np.fromiter((b.src_stop for b in tree.boxes), np.int64, nb)
    return RankFMM(
        kernel=kernel,
        options=opts,
        ptree=ptree,
        lists=lists,
        cache=cache,
        fft=fft,
        plan=plan,
        layout=GhostLayout(
            phi=my_program("phi", src_roles),
            pue=my_program("pue", ue_roles),
            vsp=vsp_programs,
            ext_start=ext_start,
            ext_stop=ext_stop,
        ),
        ext_points=ext_points,
        u_own=u_own,
        u_ghost=u_ghost,
        w_own=w_own,
        w_ghost=w_ghost,
        v_splits=v_splits,
        src_start=src_start,
        src_stop=src_stop,
        source_kernel=source_kernel,
        target_kernel=target_kernel,
        direct_kernel=direct_kernel,
        m2l_schedule=sched,
        v_compute=v_compute,
    )


@dataclass
class ParallelFMMResult:
    """Aggregate result of a driver-level parallel run."""

    potential: np.ndarray
    comm_stats: list[CommStats]
    timers: list[dict[str, float]]
    nranks: int


def _require_batched_plan(opts: FMMOptions) -> None:
    if opts.plan != "batched":
        raise ValueError(
            "the parallel operator requires plan='batched'; plan='naive' "
            "selects the sequential per-box reference (KIFMM) only"
        )


def run_parallel_fmm(
    nranks: int,
    kernel: Kernel,
    points: np.ndarray,
    density: np.ndarray,
    options: FMMOptions | None = None,
    source_kernel: Kernel | None = None,
    target_kernel: Kernel | None = None,
    direct_kernel: Kernel | None = None,
    trace=None,
    schedule_seed: int | None = None,
    napplies: int = 1,
    overlap: bool = True,
    cache: OperatorCache | None = None,
    race=None,
) -> ParallelFMMResult:
    """Convenience driver: partition, run SPMD, reassemble.

    Partitions ``points`` over ``nranks`` logical ranks with Morton-curve
    partitioning, runs the full three-stage parallel algorithm, and
    returns the potentials in the original point order together with
    per-rank communication statistics.

    The run goes through the persistent operator: one
    :func:`rank_setup` followed by ``napplies`` overlapped planned
    applies inside a single SPMD region (so a trace covers setup plus
    every apply).  ``cache`` lets the caller supply a prebuilt
    :class:`~repro.core.precompute.OperatorCache` (taken through
    :meth:`~repro.core.precompute.OperatorCache.for_root` to the points'
    bounding cube).

    ``trace`` (a :class:`repro.analysis.trace.CommTrace`) records the
    full communication event trace for
    :func:`repro.analysis.commcheck.check_trace`; ``schedule_seed``
    perturbs the rank interleaving with seeded yields (the result must
    be — and is asserted by tests to be — schedule independent).
    ``race`` (a :class:`repro.analysis.racecheck.RaceDetector`) records
    shared-array access records during the run for the offline
    happens-before analysis of ``repro racecheck``.
    """
    if napplies < 1:
        raise ValueError(f"napplies must be >= 1, got {napplies}")
    src_k, trg_k, dir_k = resolve_kernels(
        kernel, source_kernel, target_kernel, direct_kernel
    )
    opts = options or FMMOptions()
    _require_batched_plan(opts)
    points = np.asarray(points, dtype=np.float64)
    density3, nrhs, single = coerce_density(
        np.asarray(density, dtype=np.float64),
        points.shape[0], src_k.source_dof,
    )
    parts = partition_points(points, nranks)
    timers = [PhaseTimer() for _ in range(nranks)]
    corner, side = _global_root(points)
    if cache is None:
        cache = OperatorCache(
            kernel, opts.p, side,
            inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
        )
    shared_cache = cache.for_root(side)
    # "auto" may schedule fft levels; prebuild so ranks share the
    # lazily-populated tensors (rank_setup ignores it otherwise).
    shared_fft = (
        FFTM2L(shared_cache) if opts.m2l in ("fft", "auto") else None
    )

    def rank_main(comm: SimComm, idx: np.ndarray):
        state = rank_setup(
            comm, kernel, points[idx], opts,
            root=(corner, side), cache=shared_cache, fft=shared_fft,
            source_kernel=source_kernel, target_kernel=target_kernel,
            direct_kernel=direct_kernel, timer=timers[comm.rank],
        )
        dloc = density3[idx]
        if single:
            dloc = dloc[:, :, 0]
        for _ in range(napplies):
            pot = state.apply(
                comm, dloc,
                timer=timers[comm.rank], overlap=overlap,
            )
        return pot, comm.stats

    outputs = run_spmd(
        nranks, rank_main, PerRank(parts),
        trace=trace, schedule_seed=schedule_seed, race=race,
    )
    out_shape = (points.shape[0], trg_k.target_dof)
    potential = np.zeros(out_shape if single else out_shape + (nrhs,))
    for idx, (pot, _) in zip(parts, outputs):
        potential[idx] = pot
    return ParallelFMMResult(
        potential=potential,
        comm_stats=[stats for _, stats in outputs],
        timers=[t.by_phase() for t in timers],
        nranks=nranks,
    )


class ParallelFMM:
    """Persistent parallel FMM operator with a setup/apply split.

    The parallel analogue of :class:`~repro.core.fmm.KIFMM`:
    :meth:`setup` partitions the points, builds every rank's
    :class:`RankFMM` (parallel tree, LET, owners, LET-local execution
    plan, ghost geometry) and the shared operator cache — once.
    :meth:`apply` then evaluates the operator for a new density,
    exchanging only densities and equivalent densities with the
    overlapped nonblocking protocol.  Repeated applies of one operator
    are bitwise identical; GMRES drives :meth:`matvec`.

    Requires ``plan="batched"``: there is no per-box parallel path.
    """

    def __init__(
        self,
        nranks: int,
        kernel: Kernel,
        options: FMMOptions | None = None,
        *,
        overlap: bool = True,
        source_kernel: Kernel | None = None,
        target_kernel: Kernel | None = None,
        direct_kernel: Kernel | None = None,
    ) -> None:
        self.nranks = nranks
        self.kernel = kernel
        self.options = options or FMMOptions()
        self.overlap = overlap
        self.source_kernel = source_kernel
        self.target_kernel = target_kernel
        self.direct_kernel = direct_kernel
        self.src_k, self.trg_k, self.dir_k = resolve_kernels(
            kernel, source_kernel, target_kernel, direct_kernel
        )
        _require_batched_plan(self.options)
        self._states: list[RankFMM] | None = None
        self._parts: list[np.ndarray] | None = None
        self._npoints = 0
        self.cache: OperatorCache | None = None
        self.fft: FFTM2L | None = None
        self.timers = [PhaseTimer() for _ in range(nranks)]
        self.comm_stats = [CommStats() for _ in range(nranks)]
        self.napplies = 0

    def setup(
        self,
        points: np.ndarray,
        trace=None,
        schedule_seed: int | None = None,
        cache: OperatorCache | None = None,
    ) -> "ParallelFMM":
        """Build the per-rank persistent states for ``points``.

        ``cache`` (default: this operator's own from an earlier setup)
        is taken through :meth:`OperatorCache.for_root`, so operators
        computed for another bounding cube are rescaled, not rebuilt.
        """
        points = np.asarray(points, dtype=np.float64)
        opts = self.options
        corner, side = _global_root(points)
        if cache is None:
            cache = self.cache
        if cache is None:
            cache = OperatorCache(
                self.kernel, opts.p, side,
                inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
            )
        self.cache = cache.for_root(side)
        if opts.m2l in ("fft", "auto") and (
            self.fft is None or self.fft.cache is not self.cache
        ):
            self.fft = FFTM2L(self.cache)
        parts = partition_points(points, self.nranks)

        def rank_main(comm: SimComm, idx: np.ndarray):
            state = rank_setup(
                comm, self.kernel, points[idx], opts,
                root=(corner, side), cache=self.cache, fft=self.fft,
                source_kernel=self.source_kernel,
                target_kernel=self.target_kernel,
                direct_kernel=self.direct_kernel,
                timer=self.timers[comm.rank],
            )
            return state, comm.stats

        outputs = run_spmd(
            self.nranks, rank_main, PerRank(parts),
            trace=trace, schedule_seed=schedule_seed,
        )
        self._states = [state for state, _ in outputs]
        for mine, (_, stats) in zip(self.comm_stats, outputs):
            mine.merge(stats)
        self._parts = parts
        self._npoints = points.shape[0]
        return self

    def apply(
        self,
        density: np.ndarray,
        trace=None,
        schedule_seed: int | None = None,
    ) -> np.ndarray:
        """Evaluate the operator for one density (original point order).

        Stacked blocks — ``(n, source_dof, nrhs)`` or a flat
        ``(n * source_dof, nrhs)`` — evaluate every column in one
        batched SPMD pass: each rank's whole RHS block rides a single
        overlapped exchange.  Returns ``(n, target_dof)`` potentials,
        with a trailing ``nrhs`` axis for stacked blocks.
        """
        if self._states is None or self._parts is None:
            raise RuntimeError("ParallelFMM.apply before setup()")
        density3, nrhs, single = coerce_density(
            np.asarray(density, dtype=np.float64),
            self._npoints, self.src_k.source_dof,
        )
        overlap = self.overlap

        def rank_main(comm: SimComm, state: RankFMM, idx: np.ndarray):
            dloc = density3[idx]
            if single:
                dloc = dloc[:, :, 0]
            pot = state.apply(
                comm, dloc,
                timer=self.timers[comm.rank], overlap=overlap,
            )
            return pot, comm.stats

        outputs = run_spmd(
            self.nranks, rank_main, PerRank(self._states),
            PerRank(self._parts), trace=trace, schedule_seed=schedule_seed,
        )
        for mine, (_, stats) in zip(self.comm_stats, outputs):
            mine.merge(stats)
        self.napplies += 1
        out_shape = (self._npoints, self.trg_k.target_dof)
        potential = np.zeros(out_shape if single else out_shape + (nrhs,))
        for idx, (pot, _) in zip(self._parts, outputs):
            potential[idx] = pot
        return potential

    def matvec(self, flat: np.ndarray) -> np.ndarray:
        """Flat-vector apply, the shape GMRES wants.

        A 2-D ``(n * source_dof, nrhs)`` block (block Krylov solvers)
        maps to the stacked ``(n * target_dof, nrhs)`` result.
        """
        out = self.apply(np.asarray(flat))
        if out.ndim == 3:
            return out.reshape(-1, out.shape[2])
        return out.ravel()
