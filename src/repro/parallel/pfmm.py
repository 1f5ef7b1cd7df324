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

Because each stage ignores the other processors, one rank's apply *is*
the sequential algorithm over its local essential tree, and the
sequential apply is the one-rank case.  The module is organised that
way: :func:`setup_on_tree` turns a :class:`ParallelTree` — built by
:func:`parallel_build_tree` on a rank, wrapped around a sequential tree
by :func:`one_rank_tree` for :class:`~repro.core.fmm.KIFMM` — into a
:class:`RankFMM`, whose :meth:`~RankFMM.apply` is the one driver of
every planned evaluation.  At one rank no box circulates, the exchange
programs are empty and the combined source array is the sorted source
array.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import sanitize as _san
from repro.core.evaluator import (
    PlanStages,
    RankOperands,
    coerce_density,
    resolve_kernels,
    unsort_potential,
)
from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import (
    M2LSchedule,
    coarse_split_levels,
    resolve_m2l_schedule,
    v_stats_from_lists,
    v_stats_from_plan,
)
from repro.core.plan import (
    ExecutionPlan,
    NearBlocks,
    VSplit,
    compile_plan,
    split_v_level,
)
from repro.core.precompute import OperatorCache
from repro.core.steps import BufferSpec, Step, StepList, run_steps
from repro.kernels.base import Kernel
from repro.octree.balance import balance_tree
from repro.octree.lists import InteractionLists, build_lists
from repro.octree.tree import Octree, _root_cube, require_finite
from repro.parallel.exchange import (
    PHASES,
    ApplyExchange,
    GhostLayout,
    Program,
    Roles,
    box_roles,
    circulating,
    compile_exchange,
    geo_binding,
    phi_binding,
    pue_binding,
    vsp_binding,
)
from repro.parallel.let import classify_let, gather_users
from repro.parallel.owners import assign_owners, gather_contributors
from repro.parallel.partition import partition_points
from repro.parallel.procworld import MESSAGE_OVERHEAD, RankProcesses
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
    trg, idx = lists.pairs("V")
    fed = np.zeros(gsrc.size, dtype=bool)  # some V partner has sources
    fed[trg[gsrc[idx] > 0]] = True
    cand = lvl_boxes[fed[lvl_boxes] & contrib_trg[:, lvl_boxes].any(axis=0)]
    schedule: list[tuple[int, int, tuple[int, ...]]] = []
    for j, bx in enumerate(cand.tolist()):
        parts = tuple(np.flatnonzero(contrib_trg[:, bx]).tolist())
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


@dataclass(eq=False)
class RankFMM:
    """One rank's persistent FMM state (the setup product) and its apply.

    :func:`setup_on_tree` builds, over the rank's local essential tree,
    the :class:`~repro.core.plan.ExecutionPlan` (partner gating by
    *global* source counts, U/X positions into the combined local+ghost
    source array), the ghost geometry, the compiled exchange programs
    and the owned/ghost work splits that define the overlap window.
    :meth:`apply` then runs one batched interaction evaluation,
    exchanging only densities.  :class:`~repro.core.fmm.KIFMM` holds
    the one-rank instance.

    The object deliberately holds no communicator — each apply receives
    one, so the same states can be reused across ``run_spmd`` calls
    (each GMRES matvec is one such call).
    """

    kernel: Kernel
    options: FMMOptions
    ptree: ParallelTree
    lists: InteractionLists
    cache: OperatorCache
    plan: ExecutionPlan
    layout: GhostLayout
    #: The rank's sorted sources, then the ghost boxes' (the geometry
    #: of the combined source array).
    ext_points: np.ndarray
    #: ``(U, W)`` blocks over ``"own"`` and over ``"ghost"`` partners.
    near: dict[str, tuple[NearBlocks, NearBlocks]]
    v_splits: list[VSplit]
    #: The (source, target, direct) kernels an apply uses unless it
    #: names its own.
    kernels: tuple[Kernel, Kernel, Kernel]
    m2l_schedule: M2LSchedule
    #: Which boxes this rank performs V target-side work for.  Every
    #: box with local targets, except at coarse split levels, where
    #: only the cyclically-assigned boxes remain (the flop model's
    #: ``v_targets`` mask).
    v_compute: np.ndarray
    #: Flops of this rank's applies, by phase.
    flops: FlopCounter = field(default_factory=FlopCounter)

    @property
    def tree(self) -> Octree:
        return self.ptree.tree

    def statistics(self) -> dict[str, float]:
        """The plan's shape plus the near-field blocks, own and ghost."""
        (u_own, w_own), (u_ghost, w_ghost) = self.near["own"], self.near["ghost"]
        stats = self.plan.statistics()
        stats.update(
            plan_u_boxes=int(np.union1d(u_own.boxes, u_ghost.boxes).size),
            plan_u_sources=int(u_own.seg[-1] + u_ghost.seg[-1]),
            plan_w_pairs=int(w_own.src_pos.size + w_ghost.src_pos.size),
        )
        return stats

    def compile(
        self,
        overlap: bool = True,
        exch: ApplyExchange | None = None,
        kernels: tuple[Kernel, Kernel, Kernel] | None = None,
    ) -> StepList:
        """This rank's apply as a step list.

        The shared stages over the owned-then-ghost splits of the
        LET-local plan (:meth:`PlanStages.compile` orders them) plus
        the exchange as steps: ``post`` / ``relay`` / ``wait`` of each
        payload kind and the ``vsp`` broadcast pair of each coarse split
        level.  ``exch`` binds those steps to one apply; the plan
        verifier compiles without it and reads only the declarations.
        ``kernels`` replaces the state's own triple for this apply (the
        gradient apply shares the plan).
        """
        plan, lay = self.plan, self.layout
        kernels = kernels or self.kernels
        width = self.cache.n_surf * self.kernel.source_dof
        # What each payload kind ships, and the split regions it
        # delivers: owner-relayed rows (own) and scattered rows (ghost).
        sent = {
            "phi": ("phi",),
            "pue": tuple(f"ue@{ul.level}" for ul in plan.up_levels),
        }
        buffers: dict[str, BufferSpec] = {}
        delivers: dict[tuple[str, str], tuple[str, ...]] = {}
        kinds = {k: np.zeros(plan.nboxes, dtype=np.int8) for k in APPLY_KINDS}
        for kind, family in (("phi", "phi"), ("pue", "ue")):
            program = getattr(lay, kind)
            for code, (split, phase) in enumerate(
                (("own", "relay"), ("ghost", "wait")), start=1
            ):
                boxes = [
                    op.ids[0] for op in getattr(program, phase)
                    if op.kind == "store"
                ]
                delivers[kind, split] = ()
                if not boxes:
                    continue
                kinds[kind][boxes] = code
                shape = (len(boxes), width)
                if kind == "phi":
                    shape = (
                        int((lay.ext_stop[boxes] - lay.ext_start[boxes]).sum()),
                        kernels[0].source_dof,
                    )
                name = f"{family}:{split}"
                buffers[name] = BufferSpec(name, shape, "float64")
                delivers[kind, split] = (name,)

        def exchange_step(phase, kind, reads=(), writes=()) -> Step:
            # The exchange holds its own views of phi / ue (bound in
            # ``apply``) and times itself as pack / wait.
            return Step(
                f"{phase}:{kind}", "exchange",
                lambda b: exch.run(kind, phase),
                kind=phase, stage="ApplyExchange.run",
                reads=reads, writes=writes,
            )

        rank = RankOperands(
            near=self.near,
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
            phi_kind=kinds["phi"],
            ue_kind=kinds["pue"],
        )
        cache = self.cache
        if exch is not None and plan.buffers.sanitize:
            # A sanitized apply reads operators, it builds none.
            cache = cache.sealed()
        stages = PlanStages(
            plan, self.kernel, cache, kernels,
            self.m2l_schedule, self.ext_points,
        )
        return stages.compile(rank, overlap)

    def build_operators(self, timer: PhaseTimer) -> None:
        """Build every operator this rank's applies read, under the
        ``operators`` phase: each compiled step names its own."""
        with timer.phase("operators"):
            for step in self.compile().steps:
                if step.operators is not None:
                    step.operators()

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
        kernels: tuple[Kernel, Kernel, Kernel] | None = None,
    ) -> np.ndarray:
        """One planned interaction evaluation over the LET.

        The driver of every planned apply: it sorts the density into
        the head of the combined source array, allocates the work
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

        ``options.sanitize`` (or ``REPRO_SANITIZE=1``) enables the
        runtime sanitizers of :mod:`repro.analysis.sanitize`: BufferPool
        lifecycle with NaN poisoning of released scratch, finite checks
        at every phase boundary (naming the phase and box range that
        first went non-finite), GEMM aliasing guards, and a pool-escape
        check on the returned potential.
        """
        timer = timer if timer is not None else PhaseTimer()
        kernels = kernels or self.kernels
        tree, plan, lay = self.tree, self.plan, self.layout
        md, qd = self.kernel.source_dof, self.kernel.target_dof
        sdof, out_dof = kernels[0].source_dof, kernels[1].target_dof
        n_surf, nb = self.cache.n_surf, plan.nboxes
        ns, nt = tree.sources.shape[0], tree.targets.shape[0]
        pool = plan.buffers
        pool.sanitize = self.options.sanitize or _san.enabled()
        phi3, nrhs, single = coerce_density(local_density, ns, sdof)
        if pool.sanitize:
            _san.check_finite(phi3, "input", "density", rows_are="points")
        # A fresh array per apply: its head ships to peers as views.
        phi = np.empty((self.ext_points.shape[0], sdof, nrhs))
        phi[:ns] = phi3[tree.src_perm]
        # The exchange payloads keep points / boxes on the leading axis
        # with all right-hand sides packed into the row: one exchange,
        # nrhs-wide.
        phi_rows = phi.reshape(-1, sdof * nrhs)
        ue_rows = pool.zeros("ue", (nb, nrhs * n_surf * md))
        rec = current_recorder()
        if rec is not None:
            # No message separates these records from the upward pass,
            # so they carry the clock of its writes.
            rec.register(f"rank{comm.rank}:phi", phi_rows)
            rec.write(phi_rows[:ns], "sort-density")
            rec.register(f"rank{comm.rank}:ue", ue_rows)
            rec.write(ue_rows, "upward-partial")
        live = {
            "phi": phi,
            "ue": ue_rows.reshape(nb, nrhs, n_surf * md),
            "dc": pool.zeros("dc", (nrhs, nb, n_surf * qd)),
            "de": pool.zeros("de", (nrhs, nb, n_surf * md)),
            "pot": pool.zeros("pot", (nrhs, nt, out_dof)),
        }
        vsp = vsp_binding(live["dc"])
        exch = ApplyExchange(comm, timer, {
            "phi": (lay.phi, phi_binding(
                phi_rows[:ns], lay.src_start, lay.src_stop,
                phi_rows, lay.ext_start, lay.ext_stop,
            )),
            "pue": (lay.pue, pue_binding(ue_rows)),
            **{f"vsp@{lvl}": (prog, vsp) for lvl, prog in lay.vsp.items()},
        })
        run_steps(
            self.compile(overlap, exch, kernels), live, pool, nrhs,
            self.flops, timer,
        )
        potential = unsort_potential(live["pot"], tree.trg_perm, single)
        if pool.sanitize:
            _san.check_escape(potential, pool, "RankFMM.apply")
        return potential


def one_rank_tree(tree: Octree, balance: bool = False) -> ParallelTree:
    """A sequential tree as the one-rank :class:`ParallelTree`: every
    count is global.  The one place ``FMMOptions.balance`` is honoured —
    2:1 balancing rebuilds the tree from one rank's complete view."""
    if balance:
        tree = balance_tree(tree)
    topo = tree.topology
    return ParallelTree(tree=tree, global_nsrc=topo.nsrc, global_ntrg=topo.ntrg)


def rank_setup(
    comm: SimComm,
    kernel: Kernel,
    local_points: np.ndarray,
    options: FMMOptions | None = None,
    *,
    root: tuple[np.ndarray, float] | None = None,
    cache: OperatorCache | None = None,
    kernels: tuple[Kernel, Kernel, Kernel] | None = None,
    timer: PhaseTimer | None = None,
    operators: bool = True,
) -> RankFMM:
    """Per-rank setup of the persistent parallel operator: the parallel
    tree, then :func:`setup_on_tree`."""
    opts = options or FMMOptions()
    _require_one_rank_balance(opts, comm.size)
    timer = timer if timer is not None else PhaseTimer()
    with timer.phase("tree"):
        ptree = parallel_build_tree(
            comm, np.asarray(local_points, dtype=np.float64),
            max_points=opts.max_points, max_depth=opts.max_depth, root=root,
        )
        if opts.balance:
            ptree = one_rank_tree(ptree.tree, balance=True)
    return setup_on_tree(
        comm, kernel, ptree, opts,
        cache=cache, kernels=kernels, timer=timer,
        operators=operators,
    )


def setup_on_tree(
    comm: SimComm,
    kernel: Kernel,
    ptree: ParallelTree,
    opts: FMMOptions,
    *,
    cache: OperatorCache | None = None,
    kernels: tuple[Kernel, Kernel, Kernel] | None = None,
    timer: PhaseTimer | None = None,
    operators: bool = True,
) -> RankFMM:
    """Everything of a setup downstream of the tree, on every rank count.

    Runs once per geometry: lists, LET classification, owner
    assignment, the exchange programs, the setup-time ghost *geometry*
    exchange, the LET-local execution plan, the M2L schedule, the
    owned/ghost work splits and — the schedule and the plan being known
    — every operator the rank's applies read
    (:meth:`RankFMM.build_operators`), so that an apply builds none.
    ``cache`` may be shared across ranks (its entries are
    deterministic, so concurrent population is benign); when omitted it
    is built locally from the tree's root cube.  A driver that
    holds every rank's state passes ``operators=False`` and builds them
    itself, once (:meth:`ParallelFMM.setup`).  ``kernels`` is the
    resolved (source, target, direct) triple applies default to — the
    translation kernel thrice if omitted.
    """
    timer = timer if timer is not None else PhaseTimer()
    me = comm.rank
    tree = ptree.tree

    with timer.phase("lists"):
        lists = build_lists(tree)
    with timer.phase("tree"):
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
    # What circulates — positions and densities under the same roles —
    # are the used boxes some other rank contributes to or uses.  The
    # rest never leave their owner, whose passes read them in place.
    moves_src = users_src.any(axis=0) & circulating(
        owner, contrib_src, users_src
    )
    moves_ue = users_equiv.any(axis=0) & circulating(
        owner, contrib_src, users_equiv
    )
    src_roles = box_roles(
        np.nonzero(moves_src)[0], owner, contrib_src, users_src
    )
    ue_roles = box_roles(
        np.nonzero(moves_ue)[0], owner, contrib_src, users_equiv
    )
    # Layout of the combined source array: this rank's sorted sources,
    # then the circulating boxes it uses in ascending order, each
    # holding its *global* sources in the owner's concatenation order.
    src_start, src_stop = tree.topology.src_start, tree.topology.src_stop
    ghost = np.flatnonzero(usage.uses_source & moves_src)
    stops = tree.sources.shape[0] + np.cumsum(ptree.global_nsrc[ghost])
    ext_start, ext_stop = src_start.copy(), src_stop.copy()
    ext_start[ghost] = stops - ptree.global_nsrc[ghost]
    ext_stop[ghost] = stops

    def my_program(kind: str, roles: Roles) -> Program:
        return compile_exchange(kind, roles, only=me)[me]

    # Setup-time geometry exchange (Algorithm 1 over positions).
    ghost_pts: dict[int, np.ndarray] = {}
    geo = ApplyExchange(comm, timer, {"geo": (
        my_program("geo", src_roles), geo_binding(tree.src_points, ghost_pts)
    )})
    for phase in PHASES:
        geo.run("geo", phase)

    vsp_programs: dict[int, Program] = {}

    with timer.phase("plan"):
        plan, near = compile_plan(
            tree, lists,
            partner_nsrc=ptree.global_nsrc,
            ext_ranges=(ext_start, ext_stop),
        )
        # Every rank resolves the schedule of the whole tree — the
        # ranks of a process share one operator cache, which serves one
        # rsvd layout.  At one rank the plan's statistics are the tree's.
        sched = resolve_m2l_schedule(
            opts.m2l, opts.dtype,
            stats=v_stats_from_plan(plan) if comm.size == 1
            else v_stats_from_lists(
                tree, lists, ptree.global_nsrc, ptree.global_ntrg
            ),
            cache=cache, kernel=kernel,
        )

        # Ownership splits of the near-field and V-list work: owned
        # partners are computable right after the owner relay, ghost
        # partners only after the scatter completes.
        owned = owner == me

        # Coarse split levels: fewer boxes than ranks, where the fully
        # redundant tree-top V translations leave ranks idle.  Each
        # active target box there is assigned to exactly one of its
        # contributor ranks (cyclic over the level's active boxes), and
        # the assigned rank broadcasts the computed downward-check rows
        # — every quantity below derives from replicated matrices, so
        # all ranks agree without communication.
        split_levels = coarse_split_levels(
            np.diff(tree.topology.level_ptr), comm.size
        )
        # default: every box with local targets
        v_compute = near.trg_stop > near.trg_start
        v_splits: list[VSplit] = []
        for vl in plan.v_levels:
            backend = sched.backend(vl.level)
            blocked = backend == "rsvd" and sched.blocked
            if vl.level not in split_levels:
                v_splits.append(split_v_level(
                    vl, owned[vl.src_boxes],
                    np.ones(vl.trg_boxes.size, dtype=bool), blocked,
                ))
                continue
            lvl_boxes = tree.topology.level_boxes(vl.level)
            # The level's global V target set, gated like the plan:
            # some rank contributes targets and some partner holds
            # global sources.
            schedule = v_split_bcast_schedule(
                lvl_boxes, lists, contrib_trg, ptree.global_nsrc
            )
            mine = [bx for bx, root_r, _ in schedule if root_r == me]
            v_compute[lvl_boxes] = False
            v_compute[mine] = True
            split = split_v_level(
                vl, np.zeros(vl.src_boxes.size, dtype=bool),
                np.isin(vl.trg_boxes, mine), blocked,
            )
            split.bcast = [row for row in schedule if me in row[2]]
            if split.bcast:
                vsp_programs[int(vl.level)] = my_program(
                    "vsp", vsp_roles(int(vl.level), schedule)
                )
            v_splits.append(split)

    state = RankFMM(
        kernel=kernel,
        options=opts,
        ptree=ptree,
        lists=lists,
        cache=cache,
        plan=plan,
        layout=GhostLayout(
            phi=my_program("phi", src_roles),
            pue=my_program("pue", ue_roles),
            vsp=vsp_programs,
            src_start=src_start,
            src_stop=src_stop,
            ext_start=ext_start,
            ext_stop=ext_stop,
        ),
        ext_points=np.vstack(
            [plan.sources_sorted] + [ghost_pts[int(b)] for b in ghost]
        ),
        near={"own": near.blocks(owned), "ghost": near.blocks(~owned)},
        v_splits=v_splits,
        kernels=kernels or (kernel, kernel, kernel),
        m2l_schedule=sched,
        v_compute=v_compute,
    )
    if operators:
        state.build_operators(timer)
    return state


def exchange_traffic(states: list[RankFMM]) -> tuple[np.ndarray, np.ndarray]:
    """What one apply sends, per ordered rank pair: ``(messages,
    bytes)``, the second an upper bound per right-hand side.

    Read off the send ops of every rank's compiled programs: an
    equivalent-density or check-potential message is one surface
    vector, a density message at most the box's global sources.  This
    is what sizes the process world's channels, and the message counts
    are what its ``CommStats`` must read.
    """
    shape = (len(states), len(states))
    messages = np.zeros(shape, dtype=np.int64)
    nbytes = np.zeros(shape, dtype=np.int64)
    for src, st in enumerate(states):
        lay, n_surf = st.layout, st.cache.n_surf
        nsrc, sdof = st.ptree.global_nsrc, st.kernels[0].source_dof
        # Doubles per message; a density message's depend on its box.
        sized = [
            (lay.phi, None),
            (lay.pue, n_surf * st.kernel.source_dof),
            *((program, n_surf * st.kernel.target_dof)
              for program in lay.vsp.values()),
        ]
        for program, doubles in sized:
            for op in (op for phase in program for op in phase):
                if op.kind == "send":
                    messages[src, op.peer] += 1
                    nbytes[src, op.peer] += 8 * (
                        int(nsrc[op.ids[0]]) * sdof if doubles is None
                        else doubles
                    )
    return messages, nbytes


def _rank_server(states: list[RankFMM]):
    """What a rank process answers an apply with: its slice of the
    density and the overlap flag in; the potential and the apply's own
    timer, flop counter and traffic out."""

    def serve(comm: SimComm, message):
        density, overlap = message
        state, timer = states[comm.rank], PhaseTimer()
        state.flops = FlopCounter()
        potential = state.apply(comm, density, timer=timer, overlap=overlap)
        return potential, timer, state.flops, comm.stats

    return serve


def _require_nranks(nranks: int) -> None:
    if isinstance(nranks, bool) or not isinstance(
        nranks, numbers.Integral
    ) or nranks < 1:
        raise ValueError(f"nranks must be an integer >= 1, got {nranks!r}")


def _require_one_rank_balance(opts: FMMOptions, nranks: int) -> None:
    if opts.balance and nranks > 1:
        raise ValueError(
            "balance=True needs one rank's complete view of the tree "
            f"(KIFMM, or one rank); got {nranks} ranks"
        )


def _shared_setup(
    nranks: int,
    kernel: Kernel,
    points: np.ndarray,
    opts: FMMOptions,
    cache: OperatorCache | None,
):
    """What a driver holding the full point set hands every rank: the
    agreed root cube, one operator cache taken to it
    (:meth:`OperatorCache.for_root`), and the Morton partition."""
    require_finite(points, "sources")
    # The cube the ranks would agree on collectively (elementwise min/max
    # commute with the Allreduce of agree_root_cube) — and KIFMM's own.
    corner, side = _root_cube(points)
    if cache is None:
        cache = OperatorCache(
            kernel, opts.p, side,
            inner=opts.inner, outer=opts.outer, rcond=opts.rcond,
        )
    return (
        (corner, side), cache.for_root(side), partition_points(points, nranks)
    )


def _in_point_order(
    parts: list[np.ndarray], pots: list[np.ndarray], single: bool
) -> np.ndarray:
    """The ranks' ``(n_r, dof, nrhs)`` potentials as one array in the
    original point order (the RHS axis dropped for a single density)."""
    out = np.zeros((sum(map(len, parts)),) + pots[0].shape[1:])
    for idx, pot in zip(parts, pots):
        out[idx] = pot
    return out[:, :, 0] if single else out


class ParallelFMM:
    """Persistent parallel FMM operator with a setup/apply split.

    :class:`~repro.core.fmm.KIFMM` over several ranks:
    :meth:`setup` partitions the points, builds every rank's
    :class:`RankFMM` (parallel tree, LET, owners, LET-local execution
    plan, ghost geometry) on the thread world and then, in the calling
    thread, every operator of the shared cache — once.
    :meth:`apply` then evaluates the operator for a new density,
    exchanging only densities and equivalent densities with the
    overlapped nonblocking protocol.  Repeated applies of one operator
    are bitwise identical; GMRES drives :meth:`matvec`.

    Beyond one rank the applies run on rank *processes*
    (:mod:`repro.parallel.procworld`), forked from this one at the
    first apply: they inherit the states and operators copy-on-write
    and keep their work buffers from apply to apply.  ``states`` and
    ``cache`` stay this process's objects; each apply's timings, flops
    and traffic are merged into ``timers``, ``states[r].flops`` and
    ``comm_stats``.  The potentials are bit for bit those of the
    thread world, which still runs an apply given ``trace`` or
    ``schedule_seed`` (its instruments), every setup, and everything on
    a host that cannot fork.  The processes end with :meth:`close`
    (also on leaving a ``with`` block), with the next :meth:`setup`,
    and with this object.

    The verifiers drive it like any caller: one
    :class:`~repro.analysis.trace.CommTrace` (or
    :class:`~repro.analysis.racecheck.RaceDetector`) passed to
    :meth:`setup` and to every :meth:`apply` records them as the
    consecutive regions of one execution.
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
        _require_nranks(nranks)
        self.nranks = nranks
        self.kernel = kernel
        self.options = options or FMMOptions()
        self.overlap = overlap
        self.kernels = resolve_kernels(
            kernel, source_kernel, target_kernel, direct_kernel
        )
        _require_one_rank_balance(self.options, nranks)
        self._states: list[RankFMM] | None = None
        self._parts: list[np.ndarray] | None = None
        self._npoints = 0
        self.cache: OperatorCache | None = None
        self.timers = [PhaseTimer() for _ in range(nranks)]
        self.comm_stats = [CommStats() for _ in range(nranks)]
        self.napplies = 0
        self._ranks = RankProcesses(nranks)
        self._traffic: tuple[np.ndarray, np.ndarray] | None = None

    def __enter__(self) -> "ParallelFMM":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """End the rank processes; the next apply forks new ones."""
        with self._ranks.lock:
            self._ranks.stop()

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
        ``trace`` records the setup's rank threads as one region and
        ``schedule_seed`` perturbs their interleaving.
        """
        points = np.asarray(points, dtype=np.float64)
        opts = self.options
        with self._ranks.lock:
            self._ranks.stop()  # the ranks of the previous geometry
            root, self.cache, parts = _shared_setup(
                self.nranks, self.kernel, points, opts,
                cache if cache is not None else self.cache,
            )

            def rank_main(comm: SimComm, idx: np.ndarray):
                state = rank_setup(
                    comm, self.kernel, points[idx], opts,
                    root=root, cache=self.cache,
                    kernels=self.kernels, timer=self.timers[comm.rank],
                    operators=False,
                )
                return state, comm.stats

            outputs = run_spmd(
                self.nranks, rank_main, PerRank(parts),
                trace=trace, schedule_seed=schedule_seed,
            )
            self._states = [state for state, _ in outputs]
            for mine, (_, stats) in zip(self.comm_stats, outputs):
                mine.merge(stats)
            # One thread fills the shared cache: a forked rank finds
            # every operator there.
            for state, timer in zip(self._states, self.timers):
                state.build_operators(timer)
            self._traffic = exchange_traffic(self._states)
            self._parts = parts
            self._npoints = points.shape[0]
        return self

    @property
    def states(self) -> list[RankFMM]:
        """Every rank's persistent state, in rank order (after setup)."""
        if self._states is None:
            raise RuntimeError("ParallelFMM.states before setup()")
        return self._states

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

        ``trace`` and ``schedule_seed`` are the thread world's
        instruments: an apply given either runs there, and the trace
        appends it as one region.  Concurrent calls on one operator take
        turns.
        """
        if self._states is None or self._parts is None:
            raise RuntimeError("ParallelFMM.apply before setup()")
        density3, nrhs, single = coerce_density(
            density, self._npoints, self.kernels[0].source_dof
        )
        on_threads = (
            self.nranks == 1 or trace is not None
            or schedule_seed is not None or not RankProcesses.available
        )
        with self._ranks.lock:
            if on_threads:
                outputs = self._apply_on_threads(
                    density3, trace, schedule_seed
                )
            else:
                outputs = self._apply_on_processes(density3, nrhs)
            for mine, (_, stats) in zip(self.comm_stats, outputs):
                mine.merge(stats)
            self.napplies += 1
        return _in_point_order(
            self._parts, [pot for pot, _ in outputs], single
        )

    def _apply_on_threads(self, density3, trace, schedule_seed) -> list:
        """Every rank's ``(potential, traffic)`` from one SPMD region of
        rank threads over this process's states."""
        overlap = self.overlap

        def rank_main(comm: SimComm, state: RankFMM, idx: np.ndarray):
            pot = state.apply(
                comm, density3[idx],
                timer=self.timers[comm.rank], overlap=overlap,
            )
            return pot, comm.stats

        return run_spmd(
            self.nranks, rank_main, PerRank(self._states),
            PerRank(self._parts), trace=trace, schedule_seed=schedule_seed,
        )

    def _apply_on_processes(self, density3, nrhs: int) -> list:
        """The same from the rank processes, forked if none is alive or
        their channels are too small for ``nrhs`` right-hand sides."""
        messages, nbytes = self._traffic
        capacity = messages * MESSAGE_OVERHEAD + nbytes * nrhs
        if not self._ranks.fits(capacity):
            self._ranks.start(_rank_server(self._states), capacity)
        replies = self._ranks.call(
            [(density3[idx], self.overlap) for idx in self._parts]
        )
        for state, mine, (_, timer, flops, _) in zip(
            self._states, self.timers, replies
        ):
            for phase, seconds in timer.by_phase().items():
                mine.add(phase, seconds)
            state.flops.merge(flops)
        return [(pot, stats) for pot, _, _, stats in replies]

    def matvec(self, flat: np.ndarray) -> np.ndarray:
        """Flat-vector apply, the shape GMRES wants.

        A 2-D ``(n * source_dof, nrhs)`` block (block Krylov solvers)
        maps to the stacked ``(n * target_dof, nrhs)`` result.
        """
        out = self.apply(np.asarray(flat))
        if out.ndim == 3:
            return out.reshape(-1, out.shape[2])
        return out.ravel()
