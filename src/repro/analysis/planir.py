"""Plan IR: a compiled apply as a static dataflow graph.

The planned apply (:meth:`repro.parallel.pfmm.RankFMM.apply`, for
:class:`~repro.core.fmm.KIFMM` and for every rank) runs a *fixed*
sequence of steps over precompiled index arrays — the program is data,
so it can be verified without being run.  The program is the step list
of :mod:`repro.core.steps`: each step already declares which buffer
*regions* it reads, writes and releases, the dtype of the values it
produces and its flop count per right-hand side.
:func:`extract_rank_ir` compiles that list exactly as the driver does
and copies each declaration into a :class:`StageNode`; it knows no
stage, no order and no flop formula of its own.

Regions are level-granular slices of the apply-time buffers, named
``family@level`` (``"ue@3"``, ``"dc@2"``) or ``family:split`` for the
parts the exchange delivers (``"ue:own"``, ``"ue:ghost"``,
``"phi:ghost"``); ``"phi"`` and ``"pot"`` are the sorted input
densities and output potentials.  Communication appears as explicit
``post``/``relay``/``wait`` nodes, so the overlap schedule — which
reads may run before the scatter wait — is part of the graph; at one
rank those nodes deliver nothing.

The checks themselves live in :mod:`repro.analysis.plancheck`; this
module only defines the IR and the extractor, plus
:func:`rebuild_deps`, which recomputes the dependency edges from node
order and the read/write sets (used after seeding defects for the
verifier's self-tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.steps import BufferSpec

#: Flop phases compared against the performance model (the evaluator's
#: FlopCounter phases; ``exchange``/``io`` nodes carry no flops).
FLOP_PHASES = ("up", "down_u", "down_v", "down_w", "down_x", "eval")

#: Node kinds whose writes *define* data in program order.  Regions
#: written by communication nodes (``relay``/``wait``) are defined by
#: the exchange instead — ordering reads after them is the schedule
#: check's job, not the dataflow check's.
COMPUTE_KINDS = ("input", "compute")
COMM_KINDS = ("post", "relay", "wait")


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
    stage: str | None  # the PlanStages method / exchange call it runs
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
    #: Regions legitimately written but never read (the output potential).
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


def extract_rank_ir(state, *, nrhs: int = 1, overlap: bool = True) -> PlanIR:
    """The dataflow IR of one rank's LET-local plan plus its exchange.

    Compiled by the :meth:`~repro.parallel.pfmm.RankFMM.compile` call
    :meth:`~repro.parallel.pfmm.RankFMM.apply` makes, so the per-phase
    flop totals of the returned IR are bit-identical to the counter of
    a real apply (asserted by ``tests/analysis/test_plancheck.py``):
    upward pass, ``post``/``relay`` of both exchange kinds, the
    owned-data passes (U/W/V over owner-relayed data), the scatter
    ``wait`` — *after* the owned passes when ``overlap`` is on, before
    them otherwise — then the ghost passes and the downward sweep.
    Exchange-delivered data lives in the split regions ``"ue:own"`` /
    ``"ue:ghost"`` / ``"phi:own"`` / ``"phi:ghost"``, written by the
    ``relay``/``wait`` nodes; every compute read of those regions must
    be ordered after its communication writer, which is precisely the
    happens-before condition the schedule check certifies.
    rsvd-scheduled levels record the factor precision as the node
    dtype, with ``narrowing=True`` for the declared float32
    mixed-precision mode (accumulation stays float64, so the ``dc``
    buffers keep their dtype).  ``state`` is any rank's
    :class:`~repro.parallel.pfmm.RankFMM` — ``KIFMM.state`` for the
    sequential operator.  One node per step; the sorted densities enter
    through an ``input`` node and the potentials leave through an
    ``output`` node — the driver's prologue and epilogue, which are not
    steps.
    """
    def io(name, kind, reads=(), writes=()) -> StageNode:
        return StageNode(
            index=0, name=name, phase="io", kind=kind, stage=None,
            reads=reads, writes=writes, releases=(), flops=0.0,
            dtype="float64",
        )

    program = state.compile(overlap)
    sched, kernel = state.m2l_schedule, state.kernel
    nodes = [io("input", "input", writes=("phi",))]
    nodes += [
        StageNode(
            index=0, name=step.name, phase=step.phase, kind=step.kind,
            stage=step.stage, reads=step.reads, writes=step.writes,
            releases=step.releases, flops=step.flops_per_rhs() * nrhs,
            dtype=step.dtype, narrowing=step.narrowing,
        )
        for step in program.steps
    ]
    nodes.append(io("output", "output", reads=("pot",)))
    return rebuild_deps(PlanIR(
        buffers=dict(program.buffers), nodes=nodes, live_out=program.live_out,
        meta={
            "kernel": type(kernel).__name__,
            "p": state.cache.p, "depth": state.plan.depth, "m2l": sched.mode,
            "m2l_schedule": sched.describe(),
            "nrhs": nrhs, "overlap": overlap, "n_surf": state.cache.n_surf,
            "md": kernel.source_dof, "qd": kernel.target_dof,
        },
    ))
