"""Plan IR: compiled execution plans as a static dataflow graph.

The planned evaluators (:func:`repro.core.evaluator.evaluate_planned`
and :meth:`repro.parallel.pfmm.RankFMM.apply`) run a *fixed* sequence of
batched stages over precompiled index arrays — the program is data, so
it can be verified without being run.  This module extracts that
program: every stage of an :class:`~repro.core.plan.ExecutionPlan` (and,
for a rank of the parallel algorithm, every communication step of its
:class:`~repro.parallel.exchange.ApplyExchange`) becomes a
:class:`StageNode` that records which buffer *regions* it reads, writes
and releases, the dtype of the values it produces, and the exact flop
count the evaluator's :class:`~repro.util.flops.FlopCounter` would
charge for it.

Regions are level-granular slices of the apply-time buffers, named
``family@level`` (``"ue@3"``, ``"dc@2"``) or, on the parallel path,
``family:split`` for the exchange-defined parts (``"ue:own"``,
``"ue:ghost"``, ``"ext_phi:ghost"``); ``"phi"`` and ``"pot"`` are the
sorted input densities and output potentials.  Communication appears as
explicit ``post``/``relay``/``wait`` nodes, so the overlap schedule —
which reads may run before the scatter wait — is part of the graph.

The checks themselves live in :mod:`repro.analysis.plancheck`; this
module only defines the IR and the two extractors, plus
:func:`rebuild_deps`, which recomputes the dependency edges from node
order and the read/write sets (used after seeding defects for the
verifier's self-tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluator import _rsvd_pair_flops, resolve_kernels
from repro.core.m2lschedule import M2LSchedule, as_schedule, v_stats_from_plan
from repro.core.plan import ExecutionPlan
from repro.core.precompute import OperatorCache
from repro.kernels.base import Kernel

#: Flop phases compared against the performance model (the evaluator's
#: FlopCounter phases; ``comm``/``io`` nodes carry no flops).
FLOP_PHASES = ("up", "down_u", "down_v", "down_w", "down_x", "eval")

#: Node kinds whose writes *define* data in program order.  Regions
#: written by communication nodes (``relay``/``wait``) are defined by
#: the exchange instead — ordering reads after them is the schedule
#: check's job, not the dataflow check's.
COMPUTE_KINDS = ("input", "compute")
COMM_KINDS = ("post", "relay", "wait")


@dataclass(frozen=True)
class BufferSpec:
    """Shape and dtype of one buffer region (rows, row width)."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass
class StageNode:
    """One stage instance of a compiled plan.

    ``deps`` are indices of nodes this one depends on — reads-from and
    accumulation-order edges derived from the region sets, plus the
    ``post → relay/wait`` chain of each exchange kind.  ``dtype`` is the
    dtype of the values the node writes; a node whose output is of lower
    precision than its inputs must set ``narrowing`` explicitly (the
    static half of the mixed-precision guardrail — no plan stage does
    today, so any narrowing is a certification failure).
    """

    index: int
    name: str
    phase: str
    kind: str  # "input" | "compute" | "output" | "post" | "relay" | "wait"
    stage: str | None  # registered plan-stage class name, if any
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    releases: tuple[str, ...]
    flops: float
    dtype: str
    narrowing: bool = False
    deps: tuple[int, ...] = ()


@dataclass
class PlanIR:
    """The extracted dataflow program of one compiled plan."""

    buffers: dict[str, BufferSpec]
    nodes: list[StageNode]
    #: Regions legitimately written but never read (the output potential
    #: and, sequentially, the root upward density nothing consumes).
    live_out: frozenset[str]
    meta: dict = field(default_factory=dict)

    def flop_totals(self) -> dict[str, float]:
        totals = {p: 0.0 for p in FLOP_PHASES}
        for n in self.nodes:
            if n.phase in totals:
                totals[n.phase] += n.flops
        return totals


def rebuild_deps(ir: PlanIR) -> PlanIR:
    """Recompute ``index``/``deps`` of every node from the node order.

    Dependency edges are reads-from (every prior writer of a read
    region), accumulation order (every prior writer of a written
    region), and the communication chain (``relay:K``/``wait:K`` depend
    on ``post:K``).  Used at extraction time and again after a seeded
    reordering — a node moved *before* a region's writer genuinely loses
    the edge, which is exactly what the schedule check then reports.
    """
    writers: dict[str, list[int]] = {}
    posts: dict[str, int] = {}
    for idx, n in enumerate(ir.nodes):
        n.index = idx
        deps: set[int] = set()
        for r in n.reads:
            deps.update(writers.get(r, ()))
        for w in n.writes:
            deps.update(writers.get(w, ()))
        if n.kind == "post":
            posts[n.name.split(":", 1)[1]] = idx
        elif n.kind in ("relay", "wait"):
            kind_key = n.name.split(":", 1)[1]
            if kind_key in posts:
                deps.add(posts[kind_key])
        n.deps = tuple(sorted(deps))
        for w in n.writes:
            writers.setdefault(w, []).append(idx)
    return ir


def region_family(region: str) -> str:
    """Base buffer family of a region (``"ue:own"``/``"ue@3"`` → ``"ue"``)."""
    return region.split("@", 1)[0].split(":", 1)[0]


class _IRBuilder:
    """Accumulates buffers and nodes; deps are rebuilt at the end."""

    def __init__(self, meta: dict) -> None:
        self.buffers: dict[str, BufferSpec] = {}
        self.nodes: list[StageNode] = []
        self.live_out: set[str] = set()
        self.meta = meta

    def buffer(self, name: str, shape: tuple[int, ...], dtype: str) -> None:
        self.buffers[name] = BufferSpec(
            name=name, shape=tuple(int(s) for s in shape), dtype=dtype
        )

    def node(
        self,
        name: str,
        *,
        phase: str,
        kind: str = "compute",
        stage: str | None = None,
        reads: tuple[str, ...] = (),
        writes: tuple[str, ...] = (),
        releases: tuple[str, ...] = (),
        flops: float = 0.0,
        dtype: str = "float64",
        narrowing: bool = False,
    ) -> StageNode:
        node = StageNode(
            index=len(self.nodes), name=name, phase=phase, kind=kind,
            stage=stage, reads=tuple(reads), writes=tuple(writes),
            releases=tuple(releases), flops=float(flops), dtype=dtype,
            narrowing=narrowing,
        )
        self.nodes.append(node)
        return node

    def build(self) -> PlanIR:
        return rebuild_deps(
            PlanIR(
                buffers=self.buffers, nodes=self.nodes,
                live_out=frozenset(self.live_out), meta=self.meta,
            )
        )


def _fft_constants(p: int, n_surf: int, md: int, qd: int):
    """The FFT M2L flop formulas (mirrors ``FFTM2L.flops_per_*``)."""
    grid = 2 * p
    nfreq = grid * grid * (grid // 2 + 1)
    pair = 8.0 * qd * md * nfreq

    def per_fft(dof: int) -> float:
        return 4.0 * nfreq * n_surf * dof

    return nfreq, pair, per_fft


def _emit_up_levels(
    b: _IRBuilder, plan: ExecutionPlan, *, n_surf, qd, md, mv2, nrhs,
    src_fpp, region, stage="UpLevel",
) -> None:
    """Upward-pass nodes, shared verbatim by both extractors.

    ``region(level)`` names the per-level upward-density region —
    ``"ue@L"`` sequentially, ``"ue:partial@L"`` on a rank (where the
    partial densities are consumed by the exchange, not by V/W).
    """
    for ul in plan.up_levels:
        lvl = ul.level
        chk = f"check@{lvl}"
        b.buffer(chk, (ul.boxes.size, n_surf * qd), "float64")
        b.buffer(region(lvl), (ul.boxes.size, n_surf * md), "float64")
        if ul.s2m_rows.size:
            b.node(
                f"s2m@{lvl}", phase="up", stage=stage,
                reads=("phi",), writes=(chk,),
                flops=n_surf * int(ul.s2m_seg[-1]) * nrhs * src_fpp,
            )
        if ul.m2m_groups:
            nkids = sum(kids.size for _, kids, _ in ul.m2m_groups)
            b.node(
                f"m2m@{lvl}", phase="up", stage=stage,
                reads=(region(lvl + 1),), writes=(chk,),
                flops=nkids * nrhs * mv2,
            )
        b.node(
            f"uc2ue@{lvl}", phase="up", stage=stage,
            reads=(chk,), writes=(region(lvl),), releases=(chk,),
            flops=ul.boxes.size * nrhs * mv2,
        )


def _emit_down_level(
    b: _IRBuilder, dl, *, n_surf, mv2, nrhs, src_fpp, trg_fpp, x_reads,
) -> None:
    """One DownLevel's l2l/x/dc2de/l2t nodes (both extractors)."""
    lvl = dl.level
    if dl.l2l_groups:
        nkids = sum(kids.size for _, kids, _ in dl.l2l_groups)
        b.node(
            f"l2l@{lvl}", phase="eval", stage="DownLevel",
            reads=(f"de@{lvl - 1}",), writes=(f"dc@{lvl}",),
            flops=nkids * nrhs * mv2,
        )
    if dl.x_boxes.size:
        b.node(
            f"x@{lvl}", phase="down_x", stage="DownLevel",
            reads=x_reads, writes=(f"dc@{lvl}",),
            flops=n_surf * int(dl.x_seg[-1]) * nrhs * src_fpp,
        )
    if dl.dc_boxes.size:
        b.node(
            f"dc2de@{lvl}", phase="eval", stage="DownLevel",
            reads=(f"dc@{lvl}",), writes=(f"de@{lvl}",),
            flops=dl.dc_boxes.size * nrhs * mv2,
        )
    if dl.l2t_boxes.size:
        b.node(
            f"l2t@{lvl}", phase="eval", stage="DownLevel",
            reads=(f"de@{lvl}",), writes=("pot",),
            flops=int(dl.l2t_seg[-1]) * n_surf * nrhs * trg_fpp,
        )


def _near_pairs(blocks) -> int:
    """Total (target point × partner) count of a near-field block set."""
    if blocks.boxes.size == 0:
        return 0
    return int(
        ((blocks.trg_stop - blocks.trg_start) * np.diff(blocks.seg)).sum()
    )


def _declare_levelwise(
    b: _IRBuilder, plan: ExecutionPlan, *, n_surf, qd, md
) -> None:
    """Declare the per-level dc/de regions of the downward buffers."""
    counts = np.bincount(plan.levels, minlength=plan.depth + 1)
    levels = {dl.level for dl in plan.down_levels}
    levels |= {vl.level for vl in plan.v_levels}
    levels |= {dl.level - 1 for dl in plan.down_levels if dl.l2l_groups}
    for lvl in sorted(levels):
        b.buffer(f"dc@{lvl}", (int(counts[lvl]), n_surf * qd), "float64")
        b.buffer(f"de@{lvl}", (int(counts[lvl]), n_surf * md), "float64")


def extract_plan_ir(
    plan: ExecutionPlan,
    kernel: Kernel,
    cache: OperatorCache,
    *,
    m2l_mode: str | M2LSchedule = "fft",
    nrhs: int = 1,
    source_kernel: Kernel | None = None,
    target_kernel: Kernel | None = None,
    direct_kernel: Kernel | None = None,
) -> PlanIR:
    """The dataflow IR of one sequential execution plan.

    Mirrors the stage order, buffer lifecycle and flop accounting of
    :func:`repro.core.evaluator.evaluate_planned` exactly — the per-phase
    flop totals of the returned IR are bit-identical to the counter of a
    real apply (asserted by ``tests/analysis/test_plancheck.py``).
    ``m2l_mode`` accepts a mode string or a resolved
    :class:`~repro.core.m2lschedule.M2LSchedule`; rsvd-scheduled levels
    emit ``RsvdLevel`` nodes whose dtype records the factor precision,
    with ``narrowing=True`` for the declared float32 mixed-precision
    mode (accumulation stays float64, so the ``dc`` buffers keep their
    dtype).
    """
    sched = as_schedule(
        m2l_mode, stats=v_stats_from_plan(plan), cache=cache, kernel=kernel
    )
    src_k, trg_k, dir_k = resolve_kernels(
        kernel, source_kernel, target_kernel, direct_kernel
    )
    n_surf = cache.n_surf
    md, qd = kernel.source_dof, kernel.target_dof
    sdof, out_dof = src_k.source_dof, trg_k.target_dof
    ns = int(plan.sources_sorted.shape[0])
    nt = int(plan.targets_sorted.shape[0])
    mv2 = 2.0 * (n_surf * md) * (n_surf * qd)
    _, fft_pair, per_fft = _fft_constants(cache.p, n_surf, md, qd)

    b = _IRBuilder(
        meta={
            "mode": "sequential", "kernel": type(kernel).__name__,
            "p": cache.p, "depth": plan.depth, "m2l": sched.mode,
            "m2l_schedule": sched.describe(),
            "nrhs": nrhs, "n_surf": n_surf, "md": md, "qd": qd,
        }
    )
    b.buffer("phi", (ns, sdof), "float64")
    b.buffer("pot", (nt, out_dof), "float64")
    b.live_out.add("pot")
    b.node("input", phase="io", kind="input", writes=("phi",))

    ue_region = "ue@{}".format
    _emit_up_levels(
        b, plan, n_surf=n_surf, qd=qd, md=md, mv2=mv2, nrhs=nrhs,
        src_fpp=src_k.flops_per_pair, region=lambda lvl: ue_region(lvl),
    )
    if plan.up_levels:
        # The root-level upward density has no consumer (no V/W partners
        # exist at the tree top) — it is computed-but-dead by design.
        b.live_out.add(ue_region(min(ul.level for ul in plan.up_levels)))

    _declare_levelwise(b, plan, n_surf=n_surf, qd=qd, md=md)
    for vl in plan.v_levels:
        lvl = vl.level
        nsb, ntb = vl.src_boxes.size, vl.trg_boxes.size
        backend = sched.backend(lvl)
        if backend == "fft":
            vhat = f"vhat@{lvl}"
            nfreq, _, _ = _fft_constants(cache.p, n_surf, md, qd)
            b.buffer(vhat, (nsb * md + ntb * qd, nfreq), "complex128")
            b.node(
                f"vfwd@{lvl}", phase="down_v", stage="VLevel",
                reads=(ue_region(lvl),), writes=(vhat,),
                dtype="complex128", flops=nsb * nrhs * per_fft(md),
            )
            b.node(
                f"vhad@{lvl}", phase="down_v", stage="VLevel",
                reads=(vhat,), writes=(vhat,), dtype="complex128",
                flops=vl.npairs * nrhs * fft_pair,
            )
            b.node(
                f"vinv@{lvl}", phase="down_v", stage="VLevel",
                reads=(vhat,), writes=(f"dc@{lvl}",), releases=(vhat,),
                flops=ntb * nrhs * per_fft(qd),
            )
        elif backend == "dense":
            b.node(
                f"v@{lvl}", phase="down_v", stage="VLevel",
                reads=(ue_region(lvl),), writes=(f"dc@{lvl}",),
                flops=vl.npairs * nrhs * mv2,
            )
        else:
            # rsvd: the per-pair cost is the offset class's numerical
            # rank, so the node sums class by class, mirroring the
            # evaluator's per-class flop adds term for term.
            rflops = sum(
                len(src_pos) * nrhs
                * _rsvd_pair_flops(
                    cache.m2l_rsvd_rank(lvl, offset), n_surf, md, qd
                )
                for offset, src_pos, _ in vl.classes
            )
            b.node(
                f"v@{lvl}", phase="down_v", stage="RsvdLevel",
                reads=(ue_region(lvl),), writes=(f"dc@{lvl}",),
                dtype="float32" if sched.dtype == "float32" else "float64",
                narrowing=sched.dtype == "float32",
                flops=rflops,
            )

    for dl in plan.down_levels:
        _emit_down_level(
            b, dl, n_surf=n_surf, mv2=mv2, nrhs=nrhs,
            src_fpp=src_k.flops_per_pair, trg_fpp=trg_k.flops_per_pair,
            x_reads=("phi",),
        )

    u_pairs = _near_pairs(plan.u)
    if u_pairs:
        b.node(
            "near_u", phase="down_u", stage="NearBlocks",
            reads=("phi",), writes=("pot",),
            flops=u_pairs * nrhs * dir_k.flops_per_pair,
        )
    w_pairs = _near_pairs(plan.w)
    if w_pairs:
        w_levels = sorted({int(lv) for lv in plan.levels[plan.w.src_pos]})
        b.node(
            "near_w", phase="down_w", stage="NearBlocks",
            reads=tuple(ue_region(lv) for lv in w_levels), writes=("pot",),
            flops=n_surf * w_pairs * nrhs * trg_k.flops_per_pair,
        )
    b.node("output", phase="io", kind="output", reads=("pot",))
    return b.build()


def extract_rank_ir(state, *, nrhs: int = 1, overlap: bool = True) -> PlanIR:
    """The dataflow IR of one rank's LET-local plan plus its exchange.

    Mirrors :meth:`repro.parallel.pfmm.RankFMM.apply` in program order:
    partial upward pass, ``post``/``relay`` of both exchange kinds, the
    owned-data passes (U/W/V over owner-relayed data), the scatter
    ``wait`` — *after* the owned passes when ``overlap`` is on, before
    them otherwise — then the ghost passes and the downward sweep.
    Exchange-delivered data lives in the split regions ``"ue:own"`` /
    ``"ue:ghost"`` / ``"ext_phi:own"`` / ``"ext_phi:ghost"``, written by
    the ``relay``/``wait`` nodes; every compute read of those regions
    must be ordered after its communication writer, which is precisely
    the happens-before condition the schedule check certifies.
    """
    plan, cache, lay = state.plan, state.cache, state.layout
    kernel = state.kernel
    src_k, trg_k, dir_k = state.src_k, state.trg_k, state.dir_k
    sched = getattr(state, "m2l_schedule", None)
    if sched is None:
        # The rank's plan was built with global partner gating, so its
        # V statistics resolve the same schedule every rank (and the
        # sequential reference) sees.
        sched = as_schedule(
            state.options.m2l, dtype=state.options.dtype,
            stats=v_stats_from_plan(plan), cache=cache, kernel=kernel,
        )
    n_surf = cache.n_surf
    md, qd = kernel.source_dof, kernel.target_dof
    sdof, out_dof = src_k.source_dof, trg_k.target_dof
    ns = int(state.tree.sources.shape[0])
    nt = int(state.tree.targets.shape[0])
    mv2 = 2.0 * (n_surf * md) * (n_surf * qd)
    nfreq, fft_pair, per_fft = _fft_constants(cache.p, n_surf, md, qd)

    b = _IRBuilder(
        meta={
            "mode": "parallel", "kernel": type(kernel).__name__,
            "p": cache.p, "depth": plan.depth, "m2l": sched.mode,
            "m2l_schedule": sched.describe(),
            "nrhs": nrhs, "overlap": overlap, "n_surf": n_surf,
            "md": md, "qd": qd,
        }
    )
    b.buffer("phi", (ns, sdof), "float64")
    b.buffer("pot", (nt, out_dof), "float64")
    b.live_out.add("pot")
    b.node("input", phase="io", kind="input", writes=("phi",))

    pr = "ue:partial@{}".format
    _emit_up_levels(
        b, plan, n_surf=n_surf, qd=qd, md=md, mv2=mv2, nrhs=nrhs,
        src_fpp=src_k.flops_per_pair, region=lambda lvl: pr(lvl),
    )
    partial_regions = tuple(pr(ul.level) for ul in plan.up_levels)

    # Exchange-defined regions: owner-relayed data (own) and the scatter
    # (ghost), per payload kind.  Row counts come from the plans.
    own_phi = [bx for bx, _, _, _, selfu in lay.phi.owned if selfu]
    ghost_phi = [bx for bx, _ in lay.phi.recv_from]
    own_ue = [bx for bx, _, _, _, selfu in lay.pue.owned if selfu]
    ghost_ue = [bx for bx, _ in lay.pue.recv_from]

    def ext_rows(boxes_):
        return int(
            sum(lay.ext_stop[bx] - lay.ext_start[bx] for bx in boxes_)
        )

    if own_phi:
        b.buffer("ext_phi:own", (ext_rows(own_phi), sdof), "float64")
    if ghost_phi:
        b.buffer("ext_phi:ghost", (ext_rows(ghost_phi), sdof), "float64")
    if own_ue:
        b.buffer("ue:own", (len(own_ue), n_surf * md), "float64")
    if ghost_ue:
        b.buffer("ue:ghost", (len(ghost_ue), n_surf * md), "float64")

    b.node(
        "post:phi", phase="comm", kind="post", stage="ExchangePlan",
        reads=("phi",),
    )
    b.node(
        "post:pue", phase="comm", kind="post", stage="ExchangePlan",
        reads=partial_regions,
    )
    b.node(
        "relay:phi", phase="comm", kind="relay", stage="ExchangePlan",
        reads=("phi",), writes=("ext_phi:own",) if own_phi else (),
    )
    b.node(
        "relay:pue", phase="comm", kind="relay", stage="ExchangePlan",
        reads=partial_regions, writes=("ue:own",) if own_ue else (),
    )

    def emit_waits() -> None:
        b.node(
            "wait:phi", phase="comm", kind="wait", stage="ExchangePlan",
            writes=("ext_phi:ghost",) if ghost_phi else (),
        )
        b.node(
            "wait:pue", phase="comm", kind="wait", stage="ExchangePlan",
            writes=("ue:ghost",) if ghost_ue else (),
        )

    if not overlap:
        emit_waits()

    def emit_near(blocks, split: str, tag: str) -> None:
        pairs = _near_pairs(blocks)
        if not pairs:
            return
        if tag == "u":
            b.node(
                f"near_u:{split}", phase="down_u", stage="NearBlocks",
                reads=(f"ext_phi:{split}",), writes=("pot",),
                flops=pairs * nrhs * dir_k.flops_per_pair,
            )
        else:
            b.node(
                f"near_w:{split}", phase="down_w", stage="NearBlocks",
                reads=(f"ue:{split}",), writes=("pot",),
                flops=n_surf * pairs * nrhs * trg_k.flops_per_pair,
            )

    _declare_levelwise(b, plan, n_surf=n_surf, qd=qd, md=md)

    def emit_v_split(split: str) -> None:
        for vl, sp in zip(plan.v_levels, state.v_splits):
            lvl = vl.level
            backend = sched.backend(lvl)
            rows = sp.own_rows if split == "own" else sp.ghost_rows
            classes = sp.own_classes if split == "own" else sp.ghost_classes
            npairs = sum(len(s) for _, s, _ in classes)
            if backend == "fft":
                vhat = f"vhat@{lvl}"
                if vhat not in b.buffers:
                    nsb, ntb = vl.src_boxes.size, vl.trg_boxes.size
                    b.buffer(
                        vhat, (nsb * md + ntb * qd, nfreq), "complex128"
                    )
                if rows.size:
                    b.node(
                        f"vfwd:{split}@{lvl}", phase="down_v",
                        stage="_VSplit", reads=(f"ue:{split}",),
                        writes=(vhat,), dtype="complex128",
                        flops=rows.size * nrhs * per_fft(md),
                    )
                if npairs:
                    b.node(
                        f"vhad:{split}@{lvl}", phase="down_v",
                        stage="_VSplit", reads=(vhat,), writes=(vhat,),
                        dtype="complex128", flops=npairs * nrhs * fft_pair,
                    )
            elif backend == "dense" and npairs:
                b.node(
                    f"v:{split}@{lvl}", phase="down_v", stage="_VSplit",
                    reads=(f"ue:{split}",), writes=(f"dc@{lvl}",),
                    flops=npairs * nrhs * mv2,
                )
            elif npairs:
                rflops = sum(
                    len(src_sel) * nrhs
                    * _rsvd_pair_flops(
                        cache.m2l_rsvd_rank(lvl, offset), n_surf, md, qd
                    )
                    for offset, src_sel, _ in classes
                )
                b.node(
                    f"v:{split}@{lvl}", phase="down_v", stage="_VSplit",
                    reads=(f"ue:{split}",), writes=(f"dc@{lvl}",),
                    dtype="float32" if sched.dtype == "float32"
                    else "float64",
                    narrowing=sched.dtype == "float32",
                    flops=rflops,
                )

    # Owned-data passes (the overlap window's compute).
    emit_near(state.u_own, "own", "u")
    emit_near(state.w_own, "own", "w")
    emit_v_split("own")

    if overlap:
        emit_waits()

    # Ghost-dependent passes.  At coarse split levels the inverse
    # transform covers only this rank's assigned boxes (``inv_rows``)
    # and the level ends with the split exchange: ``post:vsp`` ships the
    # locally-computed downward-check rows, ``wait:vsp`` delivers the
    # remotely-computed ones into the same per-level region.
    emit_v_split("ghost")
    for vl, sp in zip(plan.v_levels, state.v_splits):
        lvl = vl.level
        if sched.backend(lvl) == "fft":
            ninv = (
                int(sp.inv_rows.size) if sp.inv_rows is not None
                else int(vl.trg_boxes.size)
            )
            if ninv:
                b.node(
                    f"vinv@{lvl}", phase="down_v", stage="VLevel",
                    reads=(f"vhat@{lvl}",), writes=(f"dc@{lvl}",),
                    releases=(f"vhat@{lvl}",),
                    flops=ninv * nrhs * per_fft(qd),
                )
        if getattr(sp, "bcast", None):
            b.node(
                f"post:vsp@{lvl}", phase="comm", kind="post",
                stage="CoarseSplit", reads=(f"dc@{lvl}",),
            )
            b.node(
                f"wait:vsp@{lvl}", phase="comm", kind="wait",
                stage="CoarseSplit", writes=(f"dc@{lvl}",),
            )

    x_reads = tuple(
        r for r, have in (
            ("ext_phi:own", bool(own_phi)), ("ext_phi:ghost", bool(ghost_phi))
        ) if have
    )
    for dl in plan.down_levels:
        _emit_down_level(
            b, dl, n_surf=n_surf, mv2=mv2, nrhs=nrhs,
            src_fpp=src_k.flops_per_pair, trg_fpp=trg_k.flops_per_pair,
            x_reads=x_reads,
        )

    emit_near(state.u_ghost, "ghost", "u")
    emit_near(state.w_ghost, "ghost", "w")
    b.node("output", phase="io", kind="output", reads=("pot",))
    return b.build()
