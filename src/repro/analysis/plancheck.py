"""Static certification of compiled execution plans.

Four checks run over the plan IR of :mod:`repro.analysis.planir` —
no apply is executed, yet together they certify the properties a run
would exhibit:

``dataflow``
    Region-granular buffer liveness: every read is preceded by a write
    (or delivered by the exchange), no read follows a release, and every
    written region is eventually read unless the IR declares it
    live-out.  Dead stores are compute work a run would silently waste.
``types``
    Dtype-flow: each node's output precision class must cover the
    precision of everything it reads and of the buffers it writes,
    unless the node is explicitly marked ``narrowing`` (only the
    declared float32 rsvd mode is — the static half of the
    mixed-precision guardrail).
``schedule``
    The dependency DAG is acyclic (every edge points backward in
    program order) and the overlap schedule is happens-before
    consistent: each exchange's ``post`` precedes its ``relay`` and
    ``wait``, and every read of an exchange-delivered region is ordered
    after the communication node that stores it.  This is the static
    counterpart of the dynamic race detector.
``flops``
    The summed per-stage flop estimates equal the
    :mod:`repro.perfmodel.costs` work volumes phase by phase — exactly,
    not approximately: every term is an integer-valued float below
    2**53, so float summation is associative here and ``==`` is the
    correct comparison.

What a step *touches* needs no static check: every apply hands a step
only the buffer families it declared
(:class:`repro.core.steps.StepBuffers`), so an undeclared access fails
at run time, in every test that applies.

There is no waiver mechanism: a finding fails certification.  The
``seed_*`` functions plant one defect each (a reordered wait, a
silently narrowed dtype, a dead store) and :func:`run_selftests`
asserts each is caught by *exactly* the intended check — the proof that
a clean certification is a property of the plan, not of a vacuous
checker.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.planir import (
    COMM_KINDS,
    COMPUTE_KINDS,
    FLOP_PHASES,
    PlanIR,
    StageNode,
    extract_rank_ir,
    rebuild_deps,
)
from repro.core.fmm import FMMOptions
from repro.perfmodel.costs import compute_work

CHECKS = ("dataflow", "types", "schedule", "flops")

#: Precision class (mantissa width) of each dtype the plans use.
_PRECISION = {"float64": 64, "float32": 32, "float16": 16}


@dataclass(frozen=True)
class Finding:
    """One certification failure, pinned to a node and region."""

    check: str
    node: str
    region: str
    message: str

    def __str__(self) -> str:
        where = f" [{self.region}]" if self.region else ""
        return f"{self.check}: {self.node}{where}: {self.message}"


@dataclass
class PlanReport:
    """The result of certifying one plan IR."""

    name: str
    findings: list[Finding]
    counts: dict[str, int]
    flop_expected: dict[str, float] = field(default_factory=dict)
    flop_actual: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def flop_deltas(self) -> dict[str, float]:
        return {
            p: self.flop_actual.get(p, 0.0) - self.flop_expected.get(p, 0.0)
            for p in FLOP_PHASES
        }

    def summary(self) -> str:
        if self.ok:
            return f"{self.name}: certified ({len(self.counts)} checks clean)"
        parts = ", ".join(
            f"{c}={n}" for c, n in sorted(self.counts.items()) if n
        )
        return f"{self.name}: FAILED ({parts})"


def _precision(dtype: str) -> int:
    return _PRECISION.get(dtype, 64)


def _comm_written(ir: PlanIR) -> dict[str, int]:
    """Region → index of the communication node that delivers it."""
    return {
        w: n.index
        for n in ir.nodes if n.kind in COMM_KINDS
        for w in n.writes
    }


def check_dataflow(ir: PlanIR) -> list[Finding]:
    """Use-before-write, use-after-release, and dead stores.

    Regions delivered by communication nodes count as defined for the
    whole program here — *ordering* reads after the delivering node is
    the schedule check's job, and splitting the two keeps each seeded
    defect attributable to exactly one check.
    """
    findings: list[Finding] = []
    comm_defined = set(_comm_written(ir))
    written: set[str] = set()
    released: dict[str, str] = {}
    read_anywhere: set[str] = set()
    for n in ir.nodes:
        for r in n.reads:
            read_anywhere.add(r)
            if r in released and r not in n.releases:
                findings.append(Finding(
                    "dataflow", n.name, r,
                    f"read after release by {released[r]}",
                ))
            elif r not in written and r not in comm_defined:
                findings.append(Finding(
                    "dataflow", n.name, r, "read before any write",
                ))
            if r not in ir.buffers:
                findings.append(Finding(
                    "dataflow", n.name, r, "read of undeclared buffer region",
                ))
        if n.kind in COMPUTE_KINDS:
            written.update(n.writes)
        for rel in n.releases:
            released[rel] = n.name
    for n in ir.nodes:
        if n.kind not in COMPUTE_KINDS:
            continue
        for w in n.writes:
            if w not in read_anywhere and w not in ir.live_out:
                findings.append(Finding(
                    "dataflow", n.name, w,
                    "dead store: region is never read and not live-out",
                ))
    return findings


def check_types(ir: PlanIR) -> list[Finding]:
    """Dtype propagation with explicit-narrowing enforcement."""
    findings: list[Finding] = []
    for n in ir.nodes:
        if n.kind not in COMPUTE_KINDS or not n.writes:
            continue
        out_prec = _precision(n.dtype)
        for r in n.reads:
            spec = ir.buffers.get(r)
            if spec is None:
                continue
            if out_prec < _precision(spec.dtype) and not n.narrowing:
                findings.append(Finding(
                    "types", n.name, r,
                    f"silent narrowing: reads {spec.dtype}, writes "
                    f"{n.dtype} without narrowing=True",
                ))
        for w in n.writes:
            spec = ir.buffers.get(w)
            if spec is None:
                findings.append(Finding(
                    "types", n.name, w, "write to undeclared buffer region",
                ))
            elif out_prec < _precision(spec.dtype) and not n.narrowing:
                findings.append(Finding(
                    "types", n.name, w,
                    f"silent narrowing: writes {n.dtype} into a "
                    f"{spec.dtype} buffer without narrowing=True",
                ))
    return findings


def check_schedule(ir: PlanIR) -> list[Finding]:
    """DAG acyclicity and happens-before of the overlap schedule."""
    findings: list[Finding] = []
    for n in ir.nodes:
        for d in n.deps:
            if d >= n.index:
                findings.append(Finding(
                    "schedule", n.name, "",
                    f"dependency cycle: edge from node {d} does not point "
                    "backward in program order",
                ))
    posts = {
        n.name.split(":", 1)[1]: n.index
        for n in ir.nodes if n.kind == "post"
    }
    for n in ir.nodes:
        if n.kind in ("relay", "wait"):
            kind_key = n.name.split(":", 1)[1]
            if kind_key not in posts:
                findings.append(Finding(
                    "schedule", n.name, "",
                    f"{n.kind} of exchange {kind_key!r} has no post",
                ))
            elif posts[kind_key] >= n.index:
                findings.append(Finding(
                    "schedule", n.name, "",
                    f"{n.kind} scheduled before post:{kind_key}",
                ))
    delivered = _comm_written(ir)
    for n in ir.nodes:
        if n.kind in COMM_KINDS:
            continue
        for r in n.reads:
            if r in delivered and delivered[r] >= n.index:
                writer = ir.nodes[delivered[r]].name
                findings.append(Finding(
                    "schedule", n.name, r,
                    f"happens-before violation: reads exchange-delivered "
                    f"region before {writer} stores it",
                ))
    return findings


def check_flops(ir: PlanIR, expected: dict[str, float]) -> list[Finding]:
    """Exact flop-budget identity against the performance model."""
    findings: list[Finding] = []
    actual = ir.flop_totals()
    for n in ir.nodes:
        if not np.isfinite(n.flops) or n.flops < 0:
            findings.append(Finding(
                "flops", n.name, "", f"invalid flop estimate {n.flops!r}",
            ))
    for phase in FLOP_PHASES:
        a, e = actual.get(phase, 0.0), expected.get(phase, 0.0)
        if a != e:
            findings.append(Finding(
                "flops", f"phase:{phase}", "",
                f"stage estimates sum to {a!r}, performance model "
                f"gives {e!r} (delta {a - e:+g})",
            ))
    return findings


def run_checks(
    ir: PlanIR,
    expected_flops: dict[str, float] | None = None,
    name: str = "plan",
) -> PlanReport:
    """All four checks over one IR; ``expected_flops`` enables the
    flop-budget identity (phases absent from the dict default to 0)."""
    findings: list[Finding] = []
    findings += check_dataflow(ir)
    findings += check_types(ir)
    findings += check_schedule(ir)
    expected = expected_flops if expected_flops is not None else {}
    if expected_flops is not None:
        findings += check_flops(ir, expected)
    counts = {c: 0 for c in CHECKS}
    for f in findings:
        counts[f.check] = counts.get(f.check, 0) + 1
    return PlanReport(
        name=name, findings=findings, counts=counts,
        flop_expected=dict(expected), flop_actual=ir.flop_totals(),
    )


# ---------------------------------------------------------------------------
# Certification entry points: build real setups (never an apply) and
# verify their extracted IR against the performance model.  The
# sequential operator is certified as its one-rank state.
# ---------------------------------------------------------------------------


def rank_states(
    kernel, points: np.ndarray, opts: FMMOptions, nranks: int, *, cache=None
) -> list:
    """Every rank's persistent state (setup only — no apply, no density),
    set up exactly as a real parallel run would."""
    from repro.parallel.pfmm import ParallelFMM

    return ParallelFMM(nranks, kernel, opts).setup(points, cache=cache).states


def rank_ir(
    state, nrhs: int = 1, overlap: bool = True
) -> tuple[PlanIR, dict[str, float]]:
    """One rank's IR and expected work volumes (``KIFMM.state`` is the
    one rank of the sequential operator).

    The expected volumes gate the rank's downward partners by *global*
    source counts and its partial upward pass by its *local* counts —
    the redundant-near-root-work accounting of the paper's three-stage
    algorithm.
    """
    ir = extract_rank_ir(state, nrhs=nrhs, overlap=overlap)
    kernel, opts = state.kernel, state.options
    topo = state.tree.topology
    expected = compute_work(
        state.tree, state.lists, kernel, opts.p, m2l=state.m2l_schedule,
        rsvd_rank=state.cache.m2l_rsvd_rank,
        global_nsrc=state.ptree.global_nsrc,
        global_ntrg=topo.ntrg,
        nrhs=nrhs, up_nsrc=topo.nsrc,
        v_targets=state.v_compute,
    ).totals()
    return ir, expected


def certify_parallel(
    kernel,
    points: np.ndarray,
    opts: FMMOptions,
    nranks: int,
    *,
    nrhs: int = 1,
    overlap: bool = True,
    name: str = "parallel",
    cache=None,
) -> list[PlanReport]:
    """Certify every rank's LET-local plan plus overlap schedule."""
    return [
        run_checks(*rank_ir(state, nrhs=nrhs, overlap=overlap),
                   name=f"{name}:rank{r}")
        for r, state in enumerate(
            rank_states(kernel, points, opts, nranks, cache=cache)
        )
    ]


# ---------------------------------------------------------------------------
# Seeded defects: each must be caught by exactly the intended check.
# ---------------------------------------------------------------------------


def seed_reordered_wait(ir: PlanIR) -> PlanIR:
    """Move a scatter wait after the first consumer of its ghost data.

    The happens-before defect of the overlap window: compute reads
    exchange-delivered rows before the receive completes.  Intended
    check: ``schedule``.
    """
    ir = copy.deepcopy(ir)
    for wi, wait in enumerate(ir.nodes):
        if wait.kind != "wait" or not wait.writes:
            continue
        regions = set(wait.writes)
        for ri, reader in enumerate(ir.nodes):
            if ri > wi and regions & set(reader.reads):
                node = ir.nodes.pop(wi)
                ir.nodes.insert(ri, node)  # ri shifted down by the pop
                return rebuild_deps(ir)
    raise ValueError(
        "IR has no wait node with a downstream ghost-data consumer "
        "(seed requires a multi-rank overlap plan)"
    )


def seed_narrowed_dtype(ir: PlanIR) -> PlanIR:
    """Silently narrow one float64 compute stage to float32.

    Models a kernel dropping precision without declaring it.  Intended
    check: ``types``.
    """
    ir = copy.deepcopy(ir)
    for n in ir.nodes:
        if (
            n.kind == "compute" and n.dtype == "float64"
            and n.reads and n.writes
        ):
            n.dtype = "float32"
            return ir
    raise ValueError("IR has no float64 compute node to narrow")


def seed_dead_store(ir: PlanIR) -> PlanIR:
    """Append a store to a scratch region nothing ever reads.

    Models plan compilation emitting work whose result is dropped.
    Intended check: ``dataflow``.
    """
    ir = copy.deepcopy(ir)
    ir.buffers["seeded_scratch"] = dataclasses.replace(
        ir.buffers["pot"], name="seeded_scratch", shape=(1, 1),
    )
    node = StageNode(
        index=0, name="seeded_dead", phase="io", kind="compute",
        stage=None, reads=("pot",), writes=("seeded_scratch",),
        releases=(), flops=0.0, dtype="float64",
    )
    ir.nodes.insert(len(ir.nodes) - 1, node)
    return rebuild_deps(ir)


SEEDS = {
    "reordered-wait": (seed_reordered_wait, "schedule"),
    "narrowed-dtype": (seed_narrowed_dtype, "types"),
    "dead-store": (seed_dead_store, "dataflow"),
}


def run_selftests(
    ir: PlanIR, expected: dict[str, float]
) -> list[tuple[str, bool, str]]:
    """Plant each seeded defect and verify exactly its check catches it.

    Returns ``(seed name, passed, detail)`` rows.  A self-test passes
    only if the seeded IR produces findings, *every* finding belongs to
    the intended check, and the unseeded IR is clean — so a checker that
    flags everything (or nothing) fails its own certification.
    """
    results: list[tuple[str, bool, str]] = []
    base = run_checks(ir, expected, name="selftest-base")
    if not base.ok:
        return [(
            "baseline", False,
            f"unseeded IR not clean: {base.findings[0]}",
        )]
    for seed_name, (seed, intended) in SEEDS.items():
        report = run_checks(seed(ir), expected, name=f"seed:{seed_name}")
        fired = {f.check for f in report.findings}
        if not report.findings:
            results.append((seed_name, False, "defect not detected"))
        elif fired != {intended}:
            results.append((
                seed_name, False,
                f"expected only {intended!r} to fire, got {sorted(fired)}",
            ))
        else:
            results.append((
                seed_name, True,
                f"caught by {intended} "
                f"({report.counts[intended]} finding(s))",
            ))
    return results
