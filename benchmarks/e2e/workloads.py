"""The six workloads: inputs from the seed, timed calls, oracle checks.

Every function here receives a parameter dict, the seed, the length of
the steady window and a :class:`~benchmarks.e2e.trace.Tracer`, and
returns the metric rows it measured.  The program under test only ever
sees the generated arrays.  Timing is taken from outside, around calls
into public functions; the only program-reported numbers read are the
ones the public API already returns (``KIFMM.statistics()``,
``ParallelFMM.timers`` / ``.comm_stats``, ``GMRESResult``,
``ServiceStats``).  Why each workload exists is recorded in
``BENCHMARK.json`` and in the README next to this file.
"""

from __future__ import annotations

import asyncio
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.bie.stokes_bie import StokesSingleLayer
from repro.bie.surfaces import RigidBody, SphereSurface, propeller_surface
from repro.core.fmm import FMMOptions, KIFMM
from repro.geometry.distributions import corner_clusters, uniform_cube
from repro.kernels.base import Kernel
from repro.kernels.direct import direct_evaluate, relative_error
from repro.kernels.laplace import LaplaceKernel
from repro.linalg.gmres import gmres
from repro.parallel.pfmm import ParallelFMM
from repro.serve.service import EvaluationService, OperatorRegistry

from benchmarks.e2e.layers import (
    evaluator_rows, ledger_sample, median_sample, probe_setup_layers,
)
from benchmarks.e2e.openloop import run_open_loop, stratified_gaps
from benchmarks.e2e.trace import Tracer

#: Point counts, rates and solver settings are fixed by the issue that
#: defined the benchmark; ``cold`` and ``min_samples`` are the repeat
#: counts, trimmed to the contract's time cap (never below 8 steady
#: samples, 2 cold repeats).  ``err_ceiling`` is 5x the value at the
#: default seed on the commit that added the benchmark.
PARAMS: dict[str, dict] = {
    "laplace_near_20k": dict(
        dist="uniform", n=20_000, ntargets=256, cold=3, min_samples=20,
        err_ceiling=1e-5,
    ),
    "laplace_far_50k": dict(
        dist="uniform", n=50_000, ntargets=256, cold=2, min_samples=8,
        err_ceiling=1e-5,
    ),
    "laplace_corner_30k": dict(
        dist="corner", n=30_000, ntargets=256, cold=3, min_samples=12,
        err_ceiling=1e-5,
    ),
    "laplace_p2_50k": dict(
        dist="uniform", n=50_000, ntargets=256, cold=2, min_samples=8,
        err_ceiling=1e-5, ranks=2, match_tol=1e-9, aux_samples=2,
    ),
    "stokes_gmres": dict(
        sphere_n=260, n_per_blade=110, n_hub=90, p=6, max_points=70,
        tol=1e-5, restart=80, cold=2, err_ceiling=1e-4, aux_samples=6,
    ),
    "serve_poisson": dict(
        n=10_000, ntargets=64, nchecked=8, cold=2, max_batch=8,
        max_delay=0.002, backlog=64, min_drains=2, unloaded_requests=8,
        rate=8.0, load_seconds=8.0, lowrate=2.0, lowrate_seconds=4.0,
        err_ceiling=2e-5, aux_samples=5,
    ),
}

#: ``--quick``: same code paths on tiny inputs, two steady samples.
QUICK: dict[str, dict] = {
    "laplace_near_20k": dict(n=2_000, ntargets=128, cold=1, min_samples=2),
    "laplace_far_50k": dict(n=3_000, ntargets=128, cold=1, min_samples=2),
    "laplace_corner_30k": dict(n=2_000, ntargets=128, cold=1, min_samples=2),
    "laplace_p2_50k": dict(
        n=3_000, ntargets=128, cold=1, min_samples=2, aux_samples=1,
    ),
    "stokes_gmres": dict(
        sphere_n=60, n_per_blade=30, n_hub=30, p=4, max_points=40, cold=1,
        err_ceiling=1e-2, aux_samples=2,
    ),
    "serve_poisson": dict(
        n=1_500, cold=1, backlog=16, min_drains=1, unloaded_requests=2,
        load_seconds=1.0, lowrate_seconds=1.0, aux_samples=2,
    ),
}


def params_for(workload: str, quick: bool, traced: bool) -> dict:
    """The parameters of one run.

    A traced run pays for its per-layer probes with fewer repeats (one
    cold repeat, half the steady samples), so that it takes about as
    long as the untraced run whose time cap it shares.
    """
    p = dict(PARAMS[workload])
    if quick:
        p.update(QUICK[workload])
    if traced:
        p["cold"] = 1
        if "min_samples" in p:
            p["min_samples"] = max(2, p["min_samples"] // 2)
        if "min_drains" in p:
            p["min_drains"] = 1
    return p


class Outcome:
    """Operations attempted and failed, and the oracle checks that ran.

    An operation is one apply, matvec, solve or request; non-finite
    output, a raised error, a dropped request, ``converged=False`` or a
    breached error ceiling counts as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.samples: dict[str, int | dict] = {}

    def op(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        self.failed += 0 if ok else count

    def check(self, name: str, value: float, limit: float) -> None:
        ok = bool(value <= limit)
        self.checks.append(
            {"name": name, "value": value, "limit": limit, "ok": ok}
        )
        self.op(ok)

    def attempt(self, call: Callable, *args):
        """Run one operation; ``None`` if it raised."""
        try:
            result = call(*args)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.op(False)
            return None
        self.op(bool(np.isfinite(result).all()))
        return result


def rel_err(approx, exact) -> float:
    """Relative 2-norm error; 1.0 (all wrong) for a missing or non-finite result."""
    if approx is None or not np.isfinite(approx).all():
        return 1.0
    return relative_error(approx, exact)


def cold_summary(setup: list[float]) -> dict[str, float]:
    """The cold repeats of one run, for the result file."""
    return {"n": len(setup), "min": min(setup),
            "median": statistics.median(setup), "max": max(setup)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(kernel: Kernel) -> None:
    """Tiny end-to-end pass so imports and BLAS start-up are not in ``setup_s``."""
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(300, 3))
    fmm = KIFMM(kernel, FMMOptions(p=3, max_points=20)).setup(pts)
    fmm.apply(np.ones((300, kernel.source_dof)))


@dataclass
class Steady:
    """Walls of the steady samples of one call.

    ``best`` is the end-to-end figure.  The hosts this runs on switch,
    every few seconds and with nothing else running, between two speed
    regimes a quarter apart; a window as long as the time cap allows
    lies mostly inside one regime, so its median reads whichever regime
    it met, while its fastest sample reads the uncontended one in nearly
    every window.  The quartiles go to the result file.
    """

    plain: list[float] = field(default_factory=list)
    kept: list[float] = field(default_factory=list)
    ledger: list[dict] = field(default_factory=list)
    #: seconds each kind of sample spent in the harness, outside the call
    around: dict[bool, float] = field(default_factory=lambda: {True: 0.0, False: 0.0})

    @property
    def walls(self) -> list[float]:
        return self.plain + self.kept

    @property
    def best(self) -> float:
        return min(self.walls)

    @property
    def median(self) -> float:
        return statistics.median(self.walls)

    @property
    def overhead_share(self) -> float:
        """What keeping a sample adds to it, as a share of the sample.

        Kept samples store a span and read the program's counters; the
        time that takes, beyond what a plain sample spends around its
        call, is taken with the clock.  The difference of the two kinds'
        walls would say the same if the host held still: it swings by a
        tenth either way between neighbouring samples.
        """
        extra = self.around[True] / len(self.kept) - self.around[False] / len(self.plain)
        return extra * len(self.kept) / sum(self.kept)

    def summary(self) -> dict[str, float]:
        q1, _, q3 = statistics.quantiles(self.walls, n=4)
        return {"n": len(self.walls), "min": self.best, "q1": q1,
                "median": self.median, "q3": q3}

    def rows(self) -> dict[str, float]:
        """``apply_s`` and the rate it amounts to."""
        rows = {"apply_s": self.best, "throughput_per_s": 1.0 / self.best}
        if self.plain and self.kept:
            rows["trace.overhead_share"] = self.overhead_share
        return rows


def steady(
    tracer: Tracer,
    out: Outcome,
    span_name: str,
    call: Callable[[], np.ndarray],
    seconds: float,
    min_samples: int,
    before: Callable[[], object] | None = None,
    after: Callable[[float, object], dict] | None = None,
    st: Steady | None = None,
) -> Steady:
    """Repeat ``call`` for ``seconds`` and at least ``min_samples`` times.

    A traced run keeps the span of every other sample and reads the
    program's counters around it (``before``/``after``); the samples in
    between run exactly as in an untraced run.  ``st`` extends an
    earlier block of samples of the same call.
    """
    st = st or Steady()
    stop = time.perf_counter() + seconds
    i = 0
    while i < min_samples or time.perf_counter() < stop:
        keep = tracer.enabled and i % 2 == 0
        t0 = time.perf_counter()
        state = before() if keep and before else None
        with tracer.span(span_name, keep=keep) as s:
            out.attempt(call)
        (st.kept if keep else st.plain).append(s.seconds)
        if keep and after:
            st.ledger.append(after(s.seconds, state))
        st.around[keep] += time.perf_counter() - t0 - s.seconds
        i += 1
    return st


def kifmm_hooks(fmm: KIFMM):
    """``before``/``after`` that read one apply's phases off ``fmm``."""

    def before() -> None:
        fmm.timer.reset()
        fmm.flops.reset()

    def after(wall: float, _state) -> dict:
        return ledger_sample(fmm, wall)

    return before, after


# -- Laplace, sequential ---------------------------------------------------


def laplace_inputs(p: dict, seed: int):
    """Points, densities and sampled check targets; the p2 workload
    draws exactly what ``laplace_far_50k`` draws."""
    rng = np.random.default_rng(seed)
    make = corner_clusters if p["dist"] == "corner" else uniform_cube
    pts = make(p["n"], rng)
    phi = rng.standard_normal(p["n"])
    idx = rng.choice(p["n"], size=p["ntargets"], replace=False)
    return rng, pts, phi, idx


def laplace_cold_and_steady(
    p: dict, seed: int, seconds: float, tracer: Tracer, out: Outcome,
    layer: str, build: Callable, hooks: Callable,
) -> tuple[dict[str, float], SimpleNamespace]:
    """What the Laplace apply workloads share, one rank or two.

    ``build(kernel, opts, pts)`` returns a set-up operator with an
    ``apply``; ``hooks(op)`` the pair that reads one apply's ledger off
    it.  Returns the end-to-end rows and what the traced rows need.
    """
    kernel, opts = LaplaceKernel(), FMMOptions()
    rng, pts, phi, idx = laplace_inputs(p, seed)
    exact = direct_evaluate(kernel, pts[idx], pts, phi)
    warm_up(kernel)

    # Each cold repeat is followed by its share of the steady samples,
    # so that the samples span the whole run, not its last seconds: the
    # longer the span, the likelier it meets the host's fast regime.
    setup, first, st = [], [], Steady()
    cold = p["cold"]
    op = u = None
    for _ in range(cold):
        del op, u  # one operator alive at a time, as a user would hold
        with tracer.span(f"{layer}.setup") as s1:
            op = build(kernel, opts, pts)
        with tracer.span(f"{layer}.apply") as s2:
            u = out.attempt(op.apply, phi)
        setup.append(s1.seconds + s2.seconds)
        first.append(s2.seconds)
        steady(
            tracer, out, f"{layer}.apply", lambda: op.apply(phi),
            seconds / cold, -(-p["min_samples"] // cold), *hooks(op), st=st,
        )
    err = rel_err(None if u is None else u[idx], exact)
    out.check("rel_err", err, p["err_ceiling"])
    out.samples = {"setup": cold_summary(setup), "apply": st.summary()}
    rows = st.rows()
    rows.update({"setup_s": min(setup), "oracle.rel_err": err})
    rows["peak_rss_mb"] = peak_rss_mb()
    rows["core.precompute.first_apply_excess_s"] = min(first) - st.best
    return rows, SimpleNamespace(
        kernel=kernel, opts=opts, rng=rng, pts=pts, phi=phi, op=op, u=u,
        st=st, setup_call_s=s1.seconds,
    )


def run_sequential(
    p: dict, seed: int, seconds: float, tracer: Tracer, out: Outcome
) -> dict[str, float]:
    rows, run = laplace_cold_and_steady(
        p, seed, seconds, tracer, out, "core.fmm",
        lambda kernel, opts, pts: KIFMM(kernel, opts).setup(pts), kifmm_hooks,
    )
    if tracer.enabled:
        rows.update(evaluator_rows(run.st.ledger))
        rows.update(
            probe_setup_layers(tracer, run.kernel, run.pts, run.opts, run.rng)
        )
    return rows


# -- Laplace, two ranks -----------------------------------------------------

RANK_PHASES = {
    "parallel.pfmm.up_s": "up",
    "parallel.pfmm.down_u_s": "down_u",
    "parallel.pfmm.down_v_s": "down_v",
    "parallel.pfmm.eval_s": "eval",
    "parallel.exchange.pack_s": "pack",
    "parallel.exchange.wait_s": "wait",
}
COMPUTE_PHASES = ("up", "down_u", "down_v", "down_w", "down_x", "eval")


def pfmm_hooks(pf: ParallelFMM):
    """Per-apply deltas of ``ParallelFMM.timers`` and ``.comm_stats``."""

    def before():
        return (
            [t.by_phase() for t in pf.timers],
            [
                (c.messages_sent, c.bytes_sent, c.recv_wait_seconds)
                for c in pf.comm_stats
            ],
        )

    def after(wall: float, state) -> dict:
        phases0, comm0 = state
        ranks = [
            {k: v - old.get(k, 0.0) for k, v in t.by_phase().items()}
            for t, old in zip(pf.timers, phases0)
        ]
        comm = [
            (c.messages_sent - m, c.bytes_sent - b, c.recv_wait_seconds - w)
            for c, (m, b, w) in zip(pf.comm_stats, comm0)
        ]
        return {"wall": wall, "ranks": ranks, "comm": comm}

    return before, after


def parallel_rows(ledger: list[dict]) -> dict[str, float]:
    """``parallel.*`` from the ledger sample with the median wall.

    Ranks run side by side, so the apply is as long as its slowest rank:
    the phase rows are those of the rank with the largest phase total,
    and ``unattributed_s`` (thread launch and join, scattering the
    density, assembling the potential) closes them to ``apply_s``.
    """
    mid = median_sample(ledger)
    critical = max(mid["ranks"], key=lambda r: sum(r.values()))
    rows = {name: critical.get(ph, 0.0) for name, ph in RANK_PHASES.items()}
    rows["parallel.pfmm.apply_s"] = mid["wall"]
    rows["parallel.pfmm.unattributed_s"] = mid["wall"] - sum(rows[n] for n in RANK_PHASES)
    rows["parallel.simmpi.messages_per_apply"] = sum(c[0] for c in mid["comm"])
    rows["parallel.simmpi.bytes_per_apply"] = sum(c[1] for c in mid["comm"])
    rows["parallel.simmpi.recv_wait_s"] = max(c[2] for c in mid["comm"])
    compute = [sum(r.get(ph, 0.0) for ph in COMPUTE_PHASES) for r in mid["ranks"]]
    rows["parallel.pfmm.imbalance"] = max(compute) / statistics.fmean(compute)
    return rows


def timed_applies(
    tracer: Tracer, out: Outcome, name: str, call: Callable, n: int
) -> float:
    """Fastest of ``n`` kept applies after one unrecorded warm call."""
    out.attempt(call)
    walls = []
    for _ in range(n):
        with tracer.span(name) as s:
            out.attempt(call)
        walls.append(s.seconds)
    return min(walls)


def run_parallel(
    p: dict, seed: int, seconds: float, tracer: Tracer, out: Outcome
) -> dict[str, float]:
    rows, run = laplace_cold_and_steady(
        p, seed, seconds, tracer, out, "parallel.pfmm",
        lambda kernel, opts, pts: ParallelFMM(
            p["ranks"], kernel, opts, overlap=True
        ).setup(pts),
        pfmm_hooks,
    )
    kernel, opts, pts, phi, pf = run.kernel, run.opts, run.pts, run.phi, run.op

    # The single-thread answer on the same inputs, in the same process.
    # It shares the operator cache, so it costs a tree and one apply.
    with tracer.span("core.fmm.setup"):
        seq = KIFMM(kernel, opts).setup(pts, cache=pf.cache)
    with tracer.span("core.fmm.apply"):
        useq = out.attempt(seq.apply, phi)
    out.check("matches_sequential", rel_err(run.u, useq), p["match_tol"])
    if not tracer.enabled:
        return rows

    rows.update(parallel_rows(run.st.ledger))
    rows["parallel.pfmm.setup_s"] = run.setup_call_s

    # Three ratios, each between operators timed in turn over the same
    # seconds, fastest sample against fastest sample, so that a slow
    # spell of the host lands on numerator and denominator alike.
    one = ParallelFMM(1, kernel, opts, overlap=True)
    one.cache = pf.cache
    one.setup(pts)
    out.attempt(one.apply, phi)
    before, after = kifmm_hooks(seq)
    seq_ledger = []
    best = {"one": float("inf"), "on": float("inf"), "off": float("inf")}
    for _ in range(p["aux_samples"]):
        before()
        with tracer.span("core.fmm.apply") as s:
            out.attempt(seq.apply, phi)
        seq_ledger.append(after(s.seconds, None))
        for name, op, overlap in (("one", one, True), ("on", pf, True), ("off", pf, False)):
            op.overlap = overlap
            with tracer.span("parallel.pfmm.apply") as s:
                out.attempt(op.apply, phi)
            best[name] = min(best[name], s.seconds)
    rows.update(evaluator_rows(seq_ledger))
    seq_best = min(sample["wall"] for sample in seq_ledger)
    rows["parallel.efficiency_p2"] = seq_best / (p["ranks"] * best["on"])
    # ROADMAP anomaly 1a: one rank, zero messages, against the sequential apply.
    rows["parallel.p1_overhead"] = best["one"] / seq_best
    # ROADMAP anomaly 1b: the same operator with the overlap switched off.
    rows["parallel.overlap_gain"] = best["off"] / best["on"]
    rows.update(probe_setup_layers(tracer, kernel, pts, opts, run.rng))
    return rows


# -- Stokes boundary integral equation, GMRES -------------------------------


def stokes_inputs(p: dict, seed: int):
    """The sedimentation example's two bodies; the seed sets the sphere's
    rigid motion, and with it the right-hand side."""
    rng = np.random.default_rng(seed)
    falling = RigidBody(
        SphereSurface(np.array([0.6, 0.0, 2.2]), radius=0.4, n=p["sphere_n"]),
        velocity=rng.standard_normal(3),
        angular_velocity=rng.standard_normal(3),
    )
    propeller = RigidBody(
        propeller_surface(
            np.zeros(3), nblades=3, blade_length=0.8,
            n_per_blade=p["n_per_blade"], n_hub=p["n_hub"],
        ),
        angular_velocity=np.array([0.0, 0.0, -2.0]),
        prescribed=True,
    )
    bodies = [falling, propeller]
    u_bc = np.vstack([b.surface_velocity() for b in bodies])
    return rng, [b.surface for b in bodies], u_bc.ravel()


def run_stokes(
    p: dict, seed: int, seconds: float, tracer: Tracer, out: Outcome
) -> dict[str, float]:
    del seconds  # one solve is the unit of work, whatever the window
    opts = FMMOptions(p=p["p"], max_points=p["max_points"])
    rng, surfaces, b = stokes_inputs(p, seed)
    oracle = StokesSingleLayer(surfaces, use_fmm=False)
    exact_first = oracle.matvec(b)
    warm_up(oracle.kernel)

    setup, first = [], []
    op = y = None
    for _ in range(p["cold"]):
        del op, y
        with tracer.span("bie.stokes_bie.StokesSingleLayer") as s1:
            op = StokesSingleLayer(surfaces, options=opts)
        with tracer.span("bie.stokes_bie.matvec") as s2:
            y = out.attempt(op.matvec, b)
        setup.append(s1.seconds + s2.seconds)
        first.append(s2.seconds)
    out.check("first_matvec_err", rel_err(y, exact_first), p["err_ceiling"])

    matvec_s: list[float] = []

    def timed_matvec(x: np.ndarray) -> np.ndarray:
        with tracer.span("bie.stokes_bie.matvec") as s:
            y = op.matvec(x)
        matvec_s.append(s.seconds)
        out.op(bool(np.isfinite(y).all()))
        return y

    with tracer.span("linalg.gmres.gmres") as solve:
        res = gmres(
            timed_matvec, b, tol=p["tol"], restart=p["restart"], maxiter=1000
        )
    out.op(res.converged)
    residual = rel_err(oracle.matvec(res.x), b)
    out.check("rel_err", residual, p["err_ceiling"])

    matvecs = Steady(plain=matvec_s)
    out.samples = {"setup": cold_summary(setup), "apply": matvecs.summary(), "solve": 1}
    rows = {
        "setup_s": min(setup),
        "apply_s": matvecs.best,
        "throughput_per_s": len(matvec_s) / solve.seconds,
        "oracle.rel_err": residual,
        "peak_rss_mb": peak_rss_mb(),
    }
    if not tracer.enabled:
        return rows

    rows["linalg.gmres.solve_s"] = solve.seconds
    rows["linalg.gmres.iters"] = res.iterations
    rows["linalg.gmres.matvecs"] = len(matvec_s)
    rows["linalg.gmres.self_s"] = solve.seconds - sum(matvec_s)
    with tracer.span("bie.stokes_bie.refresh_geometry") as s:
        op.refresh_geometry()
    rows["bie.refresh_geometry_s"] = s.seconds

    # The operator keeps its KIFMM private, so the evaluator ledger is
    # read off an identical one built here from its public attributes.
    weighted = b.reshape(op.n, 3) * op.weights[:, None]
    with tracer.span("core.fmm.setup"):
        probe = KIFMM(op.kernel, opts).setup(op.points)
    with tracer.span("core.fmm.apply") as s:
        out.attempt(probe.apply, weighted)
    st = steady(
        tracer, out, "core.fmm.apply", lambda: probe.apply(weighted),
        0.0, p["aux_samples"], *kifmm_hooks(probe),
    )
    rows.update(evaluator_rows(st.ledger))
    rows["trace.overhead_share"] = st.overhead_share
    rows["core.precompute.first_apply_excess_s"] = s.seconds - st.best
    rows.update(probe_setup_layers(tracer, op.kernel, op.points, opts, rng))
    return rows


# -- Serving: backlog, unloaded requests, Poisson load -----------------------


def run_serve(
    p: dict, seed: int, seconds: float, tracer: Tracer, out: Outcome
) -> dict[str, float]:
    kernel, opts = LaplaceKernel(), FMMOptions()
    rng = np.random.default_rng(seed)
    n, backlog, nsingle = p["n"], p["backlog"], p["unloaded_requests"]
    pts = uniform_cube(n, rng)
    nload = round(p["rate"] * p["load_seconds"]) if tracer.enabled else 0
    nlow = round(p["lowrate"] * p["lowrate_seconds"]) if tracer.enabled else 0
    dens = rng.standard_normal((max(backlog, nload), n))
    due = np.cumsum(stratified_gaps(p["rate"], nload, rng))
    due_low = np.cumsum(stratified_gaps(p["lowrate"], nlow, rng))
    checked = frozenset(
        rng.choice(backlog, size=p["nchecked"], replace=False).tolist()
    )
    tidx = rng.choice(n, size=p["ntargets"], replace=False)
    block8 = np.ascontiguousarray(dens[:8].T).reshape(n, 1, 8)
    warm_up(kernel)

    setup, first = [], []
    registry = op = None
    for _ in range(p["cold"]):
        del registry, op
        with tracer.span("serve.service.register") as s1:
            registry = OperatorRegistry()
            key = registry.register(kernel, pts, opts)
        op = registry.get(key)
        with tracer.span("core.fmm.apply") as s2:
            out.attempt(op.apply, dens[0])
        with tracer.span("core.fmm.apply") as s3:
            out.attempt(op.apply, block8)
        setup.append(s1.seconds + s2.seconds + s3.seconds)
        first.append(s2.seconds)

    async def session():
        service = EvaluationService(
            registry, max_batch=p["max_batch"], max_delay=p["max_delay"]
        )
        await service.start()
        stats = service.stats
        try:
            # Capacity: a full backlog at t=0, drained.  Unloaded latency:
            # one caller that waits for each reply.  The two alternate
            # until the window is used up, so both span the whole run.
            drains, single, drain_batches = [], [], 0
            stop = time.perf_counter() + seconds
            while len(drains) < p["min_drains"] or time.perf_counter() < stop:
                b0 = stats.batches
                drains.append(await run_open_loop(
                    service, key, dens[:backlog], np.zeros(backlog), tracer,
                    "drain", keep=checked,
                ))
                drain_batches += stats.batches - b0
                for i in range(nsingle):
                    single.append(await run_open_loop(
                        service, key, dens[i : i + 1], np.zeros(1), tracer, "single"
                    ))
            load = low = None
            batches = batched = 0
            if tracer.enabled:
                # Independent users: open loop at a rate between the
                # unbatched and the batched capacity, then far below both.
                b0, r0 = stats.batches, stats.batched_requests
                load = await run_open_loop(
                    service, key, dens[:nload], due, tracer, "load"
                )
                batches, batched = stats.batches - b0, stats.batched_requests - r0
                low = await run_open_loop(
                    service, key, dens[:nlow], due_low, tracer, "lowrate"
                )
        finally:
            await service.stop()
        return drains, drain_batches, single, load, batches, batched, low

    drains, drain_batches, single, load, batches, batched, low = asyncio.run(
        session()
    )
    for phase in (*drains, *single, load, low):
        if phase is not None:
            out.op(True, len(phase.late) - phase.failed)
            out.op(False, phase.failed)

    worst = 0.0
    for i in sorted(checked):
        exact = direct_evaluate(kernel, pts[tidx], pts, dens[i])
        got = drains[0].responses.get(i)
        worst = max(worst, rel_err(None if got is None else got[tidx], exact))
    out.check("rel_err", worst, p["err_ceiling"])

    unloaded = Steady(plain=[lat for ph in single for lat in ph.latency] or [0.0])
    drain_wall = min(d.wall for d in drains)
    out.samples = {
        "setup": cold_summary(setup), "drains": len(drains),
        "unloaded": unloaded.summary(),
    }
    rows = {
        "setup_s": min(setup),
        "apply_s": unloaded.best,
        "throughput_per_s": backlog / drain_wall,
        "oracle.rel_err": worst,
        "peak_rss_mb": peak_rss_mb(),
    }
    if not tracer.enabled:
        return rows

    lat = np.asarray(load.latency)
    rows["serve.p50_s"] = float(np.median(lat))
    rows["serve.p90_s"] = float(np.percentile(lat, 90.0))
    rows["serve.lowrate_p50_s"] = statistics.median(low.latency)
    rows["serve.mean_batch"] = batched / batches
    rows["serve.batches"] = batches
    rows["serve.backlog_end"] = load.backlog_end
    rows["serve.gen_late_p50_s"] = statistics.median(load.late)
    rows["serve.gen_late_max_s"] = max(load.late)

    st = steady(
        tracer, out, "core.fmm.apply", lambda: op.apply(dens[0]),
        0.0, 2 * p["aux_samples"], *kifmm_hooks(op),
    )
    rows.update(evaluator_rows(st.ledger))
    rows["trace.overhead_share"] = st.overhead_share
    block = timed_applies(
        tracer, out, "core.fmm.apply", lambda: op.apply(block8), p["aux_samples"]
    )
    rows["core.evaluator.apply_nrhs8_s"] = block
    rows["core.evaluator.nrhs8_speedup"] = 8.0 * st.best / block
    rows["serve.overhead_s"] = drain_wall / (drain_batches / len(drains)) - block
    rows["core.precompute.first_apply_excess_s"] = min(first) - st.best
    rows.update(probe_setup_layers(tracer, kernel, pts, opts, rng))
    return rows


RUNNERS: dict[str, Callable] = {
    "laplace_near_20k": run_sequential,
    "laplace_far_50k": run_sequential,
    "laplace_corner_30k": run_sequential,
    "laplace_p2_50k": run_parallel,
    "stokes_gmres": run_stokes,
    "serve_poisson": run_serve,
}
