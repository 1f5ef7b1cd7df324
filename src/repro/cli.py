"""Command-line interface.

Examples::

    python -m repro evaluate --kernel stokes --n 20000 --check
    python -m repro accuracy --kernel laplace --n 3000 --orders 2,4,6
    python -m repro scaling --mode fixed --kernel laplace \
        --n 3200000 --model-n 100000 --procs 1,16,256,1024
    python -m repro scaling --mode isogranular --kernel stokes \
        --grain 200000 --procs 1,64,1024 --cap 200000
    python -m repro commcheck --ranks 4 --n 600 --schedules 5
    python -m repro racecheck --ranks 4 --schedules 5 --applies 2
    python -m repro racecheck --seed-race
    python -m repro plancheck --json plancheck.json
    python -m repro lint src/
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from repro.core.error import estimate_error
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.m2lschedule import M2L_DTYPES, M2L_MODES
from repro.geometry import corner_clusters, sphere_grid_points, uniform_cube
from repro.kernels import (
    LaplaceKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    StokesKernel,
)
from repro.util.tables import format_table

_KERNELS = {
    "laplace": LaplaceKernel,
    "modified_laplace": ModifiedLaplaceKernel,
    "stokes": StokesKernel,
    "navier": NavierKernel,
}

_WORKLOADS = {
    "uniform": lambda n, rng: uniform_cube(n, rng),
    "spheres": lambda n, rng: sphere_grid_points(n),
    "corners": lambda n, rng: corner_clusters(n, rng),
}


def _make_kernel(name: str):
    try:
        return _KERNELS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}"
        ) from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise SystemExit(f"expected comma-separated integers, got {text!r}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    kernel = _make_kernel(args.kernel)
    rng = np.random.default_rng(args.seed)
    pts = _WORKLOADS[args.workload](args.n, rng)
    density = rng.random((pts.shape[0], kernel.source_dof))
    opts = FMMOptions(p=args.p, max_points=args.s, m2l=args.m2l,
                      dtype=args.dtype)
    fmm = KIFMM(kernel, opts)
    t0 = time.perf_counter()
    fmm.setup(pts)
    t_setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    potential = fmm.apply(density)
    t_eval = time.perf_counter() - t0
    stats = fmm.tree.statistics()
    print(f"kernel={kernel.name} N={pts.shape[0]} p={args.p} s={args.s} "
          f"m2l={args.m2l} dtype={args.dtype}")
    print(f"m2l schedule: {fmm.m2l_schedule.describe()}")
    print(f"tree: {stats['nboxes']} boxes, {stats['nleaves']} leaves, "
          f"depth {stats['depth']}")
    print(f"setup: {t_setup:.2f}s   evaluation: {t_eval:.2f}s")
    if args.gradient:
        t0 = time.perf_counter()
        grad = fmm.apply_gradient(density)
        print(f"gradient evaluation: {time.perf_counter() - t0:.2f}s "
              f"(|grad| mean {np.linalg.norm(grad, axis=1).mean():.4g})")
    if args.check:
        err = estimate_error(fmm, density, potential, nsamples=args.samples,
                             rng=rng)
        print(f"relative error vs direct summation "
              f"({args.samples} samples): {err:.2e}")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    kernel = _make_kernel(args.kernel)
    rng = np.random.default_rng(args.seed)
    pts = _WORKLOADS[args.workload](args.n, rng)
    density = rng.random((pts.shape[0], kernel.source_dof))
    rows = []
    for p in _parse_ints(args.orders):
        fmm = KIFMM(kernel, FMMOptions(p=p, max_points=args.s)).setup(pts)
        t0 = time.perf_counter()
        potential = fmm.apply(density)
        dt = time.perf_counter() - t0
        err = estimate_error(fmm, density, potential, nsamples=args.samples,
                             rng=rng)
        rows.append((p, err, dt))
    print(format_table(("p", "rel. error", "eval seconds"), rows,
                       title=f"accuracy sweep, kernel={kernel.name}, "
                             f"N={pts.shape[0]}"))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.octree import build_lists, build_tree
    from repro.perfmodel import TCS1, simulate_run
    from repro.perfmodel.costs import compute_work
    from repro.perfmodel.experiments import isogranular_scaling

    kernel = _make_kernel(args.kernel)
    rng = np.random.default_rng(args.seed)
    procs = _parse_ints(args.procs)
    headers = ("P", "Total", "Ratio", "Comm", "Up", "Down", "Avg GF/s",
               "Peak GF/s", "Tree")
    if args.mode == "fixed":
        n_model = min(args.n, args.model_n)
        pts = _WORKLOADS[args.workload](n_model, rng)
        tree = build_tree(pts, max_points=args.s)
        lists = build_lists(tree)
        work = compute_work(tree, lists, kernel, args.p)
        reports = [
            simulate_run(tree, lists, kernel, args.p, P, TCS1, work=work,
                         grain_scale=args.n / pts.shape[0], n_override=args.n)
            for P in procs
        ]
        title = (f"fixed-size scaling (TCS-1 model), N={args.n}, "
                 f"model tree at {pts.shape[0]}")
    else:
        gen = _WORKLOADS[args.workload]
        reports = isogranular_scaling(
            kernel, lambda n: gen(n, rng), args.grain, procs, p=args.p,
            max_points=args.s, model_cap=args.cap,
        )
        title = (f"isogranular scaling (TCS-1 model), "
                 f"grain={args.grain}/proc, cap={args.cap}")
    rows = [
        (r.P, r.total, round(r.ratio, 1), r.comm, r.up, r.down,
         r.gflops_avg, r.gflops_peak, r.tree_seconds)
        for r in reports
    ]
    print(format_table(headers, rows, title=title))
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    """Project tree-top exchange cost to thousands of simulated ranks.

    Builds a real model tree, then sweeps simulated processor counts in
    powers of two, comparing the flat owner gather/scatter (the paper's
    Algorithm 1 as published, priced by the model only — no rank runs
    it; per-box fan-in grows O(P) at the critical rank) against the
    hierarchical exchange the ranks run (segmented binomial collectives
    plus the coarse-level V split, O(log P) fan-in).  ``--out`` writes
    ``BENCH_scaling.json``;
    ``--min-speedup`` / ``--max-crossover`` turn the report into CI
    assertions.
    """
    import json

    from repro.octree import build_lists, build_tree
    from repro.perfmodel import TCS1
    from repro.perfmodel.simulate import project_scaling

    kernel = _make_kernel(args.kernel)
    rng = np.random.default_rng(args.seed)
    pts = _WORKLOADS[args.workload](args.n, rng)
    tree = build_tree(pts, max_points=args.s)
    lists = build_lists(tree)
    report = project_scaling(
        tree, lists, kernel, args.p, TCS1,
        max_ranks=args.max_ranks, nrhs=args.nrhs,
    )
    rows = [
        (pt["P"], pt["shared_boxes"], pt["flat_total"], pt["tree_total"],
         round(pt["speedup"], 2), pt["flat_max_rank_msgs"],
         pt["tree_max_rank_msgs"])
        for pt in report["points"]
    ]
    print(format_table(
        ("P", "shared", "flat s", "tree s", "speedup",
         "flat msgs/rank", "tree msgs/rank"),
        rows,
        title=f"tree-top projection (TCS-1 model), kernel={kernel.name}, "
              f"model tree N={pts.shape[0]}, depth={report['depth']}",
    ))
    cross = report["crossover_rank"]
    print(f"flat->hierarchical crossover rank: "
          f"{cross if cross is not None else 'none'}")
    print(f"modelled tree-top improvement at P={args.max_ranks}: "
          f"{report['speedup_at_max']:.1f}x "
          f"(max fan-in {report['msgs_flat_at_max']} -> "
          f"{report['msgs_tree_at_max']} msgs/rank)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"project: JSON report written to {args.out}")
    failed = False
    if args.max_crossover is not None and (
        cross is None or cross > args.max_crossover
    ):
        print(f"project: FAILED (crossover rank {cross} not within "
              f"{args.max_crossover})")
        failed = True
    if args.min_speedup is not None and (
        report["speedup_at_max"] < args.min_speedup
    ):
        print(f"project: FAILED (speedup {report['speedup_at_max']:.2f}x "
              f"below {args.min_speedup:.2f}x at P={args.max_ranks})")
        failed = True
    return 1 if failed else 0


def _block_density(rng, n: int, kernel, nrhs: int) -> np.ndarray:
    """A single density or an ``nrhs``-column stacked block."""
    if nrhs <= 1:
        return rng.random((n, kernel.source_dof))
    return rng.random((n, kernel.source_dof, nrhs))


def _traced_run(args, kernel, pts, density, opts, trace, seed, overlap):
    """One ``ParallelFMM`` setup and ``--applies`` applies at
    ``--ranks``, each a region of ``trace`` under schedule ``seed``:
    the operator and its last potential (``None`` without applies)."""
    from repro.parallel.pfmm import ParallelFMM

    op = ParallelFMM(args.ranks, kernel, opts, overlap=overlap)
    op.setup(pts, trace=trace, schedule_seed=seed)
    potential = None
    for _ in range(args.applies):
        potential = op.apply(density, trace=trace, schedule_seed=seed)
    return op, potential


def _cmd_commcheck(args: argparse.Namespace) -> int:
    """Run the parallel FMM under perturbed schedules; verify the traces.

    The CI "analysis" job runs this as the commcheck smoke: a multi-rank
    evaluation per schedule seed, each trace checked for leaked
    messages, deadlock structure, collective divergence and FIFO order,
    the set compared for observable determinism, and the potentials
    asserted bitwise identical across schedules.
    """
    from repro.analysis import CommTrace, check_trace, compare_traces
    from repro.parallel.simmpi import CommStats

    if args.traces:
        # Offline mode: no live run — analyze saved traces (files, or
        # directories of *.jsonl).  Exit 2 on missing/empty inputs so
        # "nothing analyzed" never reads as "certified".
        from repro.analysis.commcheck import main as commcheck_main

        return commcheck_main(args.traces)

    kernel = _make_kernel(args.kernel)
    rng = np.random.default_rng(args.seed)
    pts = _WORKLOADS[args.workload](args.n, rng)
    density = _block_density(rng, pts.shape[0], kernel, args.nrhs)
    opts = FMMOptions(p=args.p, max_points=args.s, m2l=args.m2l,
                      dtype=args.dtype)
    failed = False
    traces: list[CommTrace] = []
    reference = None
    for i in range(args.schedules):
        trace = CommTrace()
        op, potential = _traced_run(
            args, kernel, pts, density, opts, trace, args.seed + i,
            overlap=args.overlap == "on",
        )
        report = check_trace(trace, stats=op.comm_stats)
        total = CommStats.total(op.comm_stats)
        print(f"schedule {i}: {report.summary()}")
        print(f"  traffic: {total.messages_sent} msgs / {total.bytes_sent} B "
              f"sent, {total.messages_received} msgs / "
              f"{total.bytes_received} B received")
        if args.collectives:
            print("  collectives:")
            for prim in CommStats.COLLECTIVES:
                calls = getattr(total, f"{prim}_calls")
                nbytes = getattr(total, f"{prim}_bytes")
                print(f"    {prim:>9}: {calls} calls / {nbytes} B")
            phases = sorted(total.by_phase.items())
            if phases:
                print("  p2p bytes by phase: "
                      + ", ".join(f"{ph}={b}" for ph, b in phases))
        failed |= not report.ok
        traces.append(trace)
        if reference is None:
            reference = potential
        elif not np.array_equal(reference, potential):
            print(f"schedule {i}: potentials differ from schedule 0 "
                  f"(nondeterministic result)")
            failed = True
    cross = compare_traces(traces)
    print(cross.summary())
    failed |= not cross.ok
    if args.save_trace:
        traces[0].to_jsonl(args.save_trace)
        print(f"trace of schedule 0 written to {args.save_trace}")
    print("commcheck:", "FAILED" if failed else "all schedules clean")
    return 1 if failed else 0


def _seeded_race_main(comm) -> None:
    """Deliberate use-after-send, run under a race detector: rank 0
    mutates a buffer it just sent.

    The simulated MPI passes payloads by reference, so rank 1's read of
    the received array is a cross-rank access on rank 0's allocation.
    The only edge between the ranks is the send itself — which predates
    the write — so the pair is concurrent and the detector must flag it
    naming channel ``0->1 tag='race'``.
    """
    from repro.parallel.simmpi import current_recorder

    rec = current_recorder()
    if comm.rank == 0:
        buf = np.arange(8.0)
        rec.register("seeded:buf", buf)
        comm.isend(1, buf, tag="race")
        rec.write(buf, "mutate-after-send")
        buf[:4] = -1.0
    elif comm.rank == 1:
        payload = comm.irecv(0, tag="race").wait()
        rec.read(payload, "read-received-payload")
    comm.allreduce(np.zeros(1))


def _cmd_racecheck(args: argparse.Namespace) -> int:
    """Happens-before race certification of the overlapped parallel path.

    Replays the persistent-operator apply at ``--ranks`` under perturbed
    schedules with the access recorder installed, for overlap on *and*
    off, and certifies every execution race-free (no waiver mechanism
    exists: any reported pair fails the run).  ``--seed-race`` instead
    runs a deliberately racy SPMD fixture and verifies the detector
    flags it — the self-test that proves the certification can fail.
    """
    from repro.analysis import RaceDetector

    if args.seed_race:
        from repro.parallel.simmpi import run_spmd

        det = RaceDetector()
        run_spmd(max(2, args.ranks), _seeded_race_main, trace=det)
        report = det.report()
        print(report.summary())
        if report.ok:
            print("racecheck: seeded race NOT detected — detector broken")
            return 1
        print("racecheck: seeded race detected (self-test passed)")
        return 0

    kernel = _make_kernel(args.kernel)
    rng = np.random.default_rng(args.seed)
    pts = _WORKLOADS[args.workload](args.n, rng)
    density = _block_density(rng, pts.shape[0], kernel, args.nrhs)
    opts = FMMOptions(p=args.p, max_points=args.s, m2l=args.m2l,
                      dtype=args.dtype)
    failed = False
    for overlap in (True, False):
        for i in range(args.schedules):
            det = RaceDetector()
            _traced_run(args, kernel, pts, density, opts, det,
                        args.seed + i, overlap)
            report = det.report()
            print(f"overlap={'on' if overlap else 'off'} schedule {i}: "
                  f"{report.summary()}")
            failed |= not report.ok
    print("racecheck:", "FAILED" if failed
          else "all schedules certified race-free (zero waivers)")
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the micro-batching evaluation service under synthetic load.

    The CI "serve" smoke runs this at small N: it builds one shared
    operator, drives the asyncio front door with Poisson arrivals, and
    reports per-request p50/p95/p99 latency, throughput and batch
    occupancy.  ``--p99-bound`` turns the report into an assertion
    (non-zero exit on a p99 excursion or any dropped request).
    """
    from repro.serve import EvaluationService, OperatorRegistry, run_load

    kernel = _make_kernel(args.kernel)
    rng = np.random.default_rng(args.seed)
    pts = _WORKLOADS[args.workload](args.n, rng)
    registry = OperatorRegistry()
    key = registry.register(
        kernel, pts,
        FMMOptions(p=args.p, max_points=args.s, m2l=args.m2l,
                   dtype=args.dtype),
    )
    service = EvaluationService(
        registry, max_batch=args.max_batch, max_delay=args.max_delay
    )
    report = run_load(
        service, key, nrequests=args.requests, rate=args.rate,
        seed=args.seed,
    )
    print(f"serve: kernel={kernel.name} N={pts.shape[0]} p={args.p} "
          f"key={key} max_batch={args.max_batch} "
          f"max_delay={args.max_delay * 1e3:.1f}ms")
    print(f"requests: {report.requests} issued, {report.completed} "
          f"completed, {report.dropped} dropped")
    print(f"batches: {report.batches} "
          f"(mean occupancy {report.mean_batch:.2f} RHS/apply)")
    print(f"throughput: {report.throughput:.1f} req/s over "
          f"{report.duration:.2f}s")
    print(f"latency: p50 {report.p50 * 1e3:.2f}ms  "
          f"p95 {report.p95 * 1e3:.2f}ms  p99 {report.p99 * 1e3:.2f}ms")
    failed = report.dropped > 0
    if failed:
        print("serve: FAILED (dropped requests)")
    if args.p99_bound is not None and report.p99 > args.p99_bound:
        print(f"serve: FAILED (p99 {report.p99:.3f}s exceeds bound "
              f"{args.p99_bound:.3f}s)")
        failed = True
    if not failed:
        print("serve: ok")
    return 1 if failed else 0


def _cmd_plancheck(args: argparse.Namespace) -> int:
    """Statically certify every CI plan configuration — no apply runs.

    Sweeps the full configuration matrix (kernels × m2l modes × nrhs ×
    sequential + every rank count × overlap on/off), extracts each
    compiled plan's dataflow IR and certifies buffer liveness,
    dtype-flow, overlap-schedule happens-before consistency and the
    exact flop-budget identity against the performance model.  There is
    no waiver mechanism: any finding fails the run.  Unless
    ``--no-selftest`` is given, the seeded-defect self-tests (reordered
    wait, silently narrowed dtype, dead store) also run, each required
    to be caught by exactly the intended check.  ``--json`` writes the
    machine-readable report (per-check counts, flop-budget deltas).
    """
    import json

    from repro.analysis.plancheck import (
        rank_ir,
        rank_states,
        run_checks,
        run_selftests,
    )
    from repro.core.precompute import OperatorCache
    from repro.octree.tree import _root_cube

    rng = np.random.default_rng(args.seed)
    pts = _WORKLOADS[args.workload](args.n, rng)
    kernels = [k for k in args.kernels.split(",") if k]
    ranks_list = _parse_ints(args.ranks)
    nrhs_list = _parse_ints(args.nrhs)
    failed = False
    configs: list[dict] = []
    selftest_ir = None

    def record(report, config: dict) -> None:
        nonlocal failed
        configs.append({
            **config,
            "ok": report.ok,
            "counts": report.counts,
            "flop_deltas": report.flop_deltas(),
            "findings": [str(f) for f in report.findings],
        })
        print(report.summary())
        for f in report.findings:
            print(f"  {f}")
        failed |= not report.ok

    for kname in kernels:
        kernel = _make_kernel(kname)
        corner, side = _root_cube(pts)
        # One operator cache per kernel: every backend's operators
        # (pseudoinverses, dense/rsvd translations) are keyed
        # independently, so all configurations can share it.
        shared_cache = OperatorCache(kernel, args.p, side)
        for m2l, dtype in (("dense", "float64"), ("rsvd", "float64"),
                           ("rsvd", "float32"), ("auto", "float64")):
            conf = f"{m2l}-{dtype}" if dtype != "float64" else m2l
            opts = FMMOptions(p=args.p, max_points=args.s, m2l=m2l,
                              dtype=dtype)
            # The sequential operator is the rank operator at one rank.
            fmm = KIFMM(kernel, opts).setup(pts, cache=shared_cache)
            for nrhs in nrhs_list:
                ir, expected = rank_ir(fmm.state, nrhs=nrhs)
                name = f"{kname}/{conf}/sequential/nrhs{nrhs}"
                record(run_checks(ir, expected, name=name), {
                    "kernel": kname, "m2l": m2l, "dtype": dtype,
                    "mode": "sequential",
                    "depth": ir.meta["depth"], "p": args.p, "nrhs": nrhs,
                    "ranks": 1, "overlap": None,
                })
            for nranks in ranks_list:
                states = rank_states(
                    kernel, pts, opts, nranks, cache=shared_cache,
                )
                for nrhs in nrhs_list:
                    for overlap in (True, False):
                        for r, state in enumerate(states):
                            ir, expected = rank_ir(
                                state, nrhs=nrhs, overlap=overlap,
                            )
                            ov = "on" if overlap else "off"
                            name = (f"{kname}/{conf}/ranks{nranks}/"
                                    f"overlap-{ov}/nrhs{nrhs}/rank{r}")
                            record(run_checks(ir, expected, name=name), {
                                "kernel": kname, "m2l": m2l,
                                "dtype": dtype,
                                "mode": "parallel",
                                "depth": ir.meta["depth"], "p": args.p,
                                "nrhs": nrhs, "ranks": nranks,
                                "rank": r, "overlap": overlap,
                            })
                            if selftest_ir is None and overlap:
                                selftest_ir = (ir, expected)

    selftests: list[dict] = []
    if not args.no_selftest:
        if selftest_ir is None:
            print("plancheck: no multi-rank overlap IR for self-tests")
            failed = True
        else:
            for name, ok, detail in run_selftests(*selftest_ir):
                print(f"selftest {name}: {'ok' if ok else 'FAILED'} "
                      f"({detail})")
                selftests.append(
                    {"seed": name, "ok": ok, "detail": detail}
                )
                failed |= not ok

    if args.json:
        payload = {
            "n": int(pts.shape[0]), "p": args.p, "s": args.s,
            "configs": configs, "selftests": selftests,
            "ok": not failed,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"plancheck: JSON report written to {args.json}")
    print("plancheck:", "FAILED" if failed
          else f"all {len(configs)} plan configurations certified "
               f"(zero waivers)")
    return 1 if failed else 0


def _cmd_commir(args: argparse.Namespace) -> int:
    """Statically certify the full communication schedule — no apply.

    Compiles the complete message schedule (every p2p send/receive
    post/completion with source, destination and structured tag, in
    per-rank program order — the programs the ranks themselves
    interpret) from the plan inputs for each requested rank count —
    including counts far beyond what the simulated runtime can execute,
    e.g. P=4096 — and certifies matching, tag discipline,
    deadlock-freedom and payload conservation against the roles.  The
    schedule depends only on the point set and the rank count, so each
    rank count is one certified schedule and one reported row.

    For rank counts small enough to execute (``--conform-ranks``), a
    traced run on ``--conform-n`` points per listed kernel, overlap on
    and off, cross-checks conformance: the dynamic trace must equal
    each rank's program op for op.  The seeded-defect self-tests
    (dropped relay, reused tag, swapped post/wait, starved user) run at
    ``--selftest-ranks`` unless ``--no-selftest``.  There is no waiver
    mechanism.
    """
    import json
    import time

    from repro.analysis.commcheck_static import (
        run_checks,
        run_selftests,
        traced_run,
    )
    from repro.analysis.commir import (
        extract_comm_ir,
        gc_paused,
        static_plan_inputs,
    )
    from repro.core.precompute import OperatorCache
    from repro.octree.tree import _root_cube

    rng = np.random.default_rng(args.seed)
    kernels = [k for k in args.kernels.split(",") if k]
    ranks_list = _parse_ints(args.ranks)
    if not ranks_list or not kernels:
        print("commir: nothing to certify (empty --ranks or --kernels)")
        return 2
    pts = _WORKLOADS[args.workload](args.n, rng)
    conform_pts = _WORKLOADS[args.workload](args.conform_n, rng)
    conform_ranks = set(_parse_ints(args.conform_ranks))
    t_start = time.time()
    failed = False
    configs: list[dict] = []

    def record(report, config: dict) -> None:
        nonlocal failed
        configs.append({
            **config,
            "ok": report.ok,
            "counts": report.counts,
            "messages": report.nmessages,
            "ops": report.nops,
            "findings": [str(f) for f in report.findings],
        })
        print(report.summary())
        for f in report.findings:
            print(f"  {f}")
        failed |= not report.ok

    for nranks in ranks_list:
        inputs = static_plan_inputs(
            pts, nranks, options=FMMOptions(p=args.p, max_points=args.s)
        )
        # The collector stays paused from extraction to certification:
        # resuming it in between costs a full scan of the live IR (at
        # P=4096, millions of ops), resuming it once the IR is freed (by
        # reference count) costs nothing.
        with gc_paused():
            report = run_checks(
                extract_comm_ir(inputs), name=f"ranks{nranks}"
            )
        record(report, {"ranks": nranks})

    # One operator cache per kernel serves every traced run: they all
    # solve on the same points, hence the same root cube.
    side = _root_cube(conform_pts)[1]
    traced = []
    for kname in kernels:
        kernel = _make_kernel(kname)
        traced.append((
            kname, kernel,
            rng.random((conform_pts.shape[0], kernel.source_dof)),
            OperatorCache(kernel, args.p, side),
        ))
    for nranks in sorted(conform_ranks):
        inputs = static_plan_inputs(
            conform_pts, nranks,
            options=FMMOptions(p=args.p, max_points=args.s),
        )
        ir = extract_comm_ir(inputs)
        for kname, kernel, density, cache in traced:
            for overlap in (True, False):
                trace = traced_run(
                    kernel, conform_pts, density,
                    FMMOptions(p=args.p, max_points=args.s),
                    nranks, schedule_seed=args.seed,
                    overlap=overlap, cache=cache,
                )
                ov = "on" if overlap else "off"
                report = run_checks(
                    ir, traces=(trace,),
                    name=f"conform/{kname}/ranks{nranks}/overlap-{ov}",
                )
                record(report, {
                    "kernel": kname, "ranks": nranks, "overlap": overlap,
                    "conformance": True,
                })

    selftests: list[dict] = []
    if not args.no_selftest:
        from repro.analysis.commcheck_static import SEEDS

        # The seeded defects need a schedule deep enough to host them
        # (an interior relay node needs a box with >= 4 gather
        # participants); probe increasing rank counts until every seed
        # is plantable.
        st_ir = None
        cand = args.selftest_ranks
        for _ in range(5):
            st_inputs = static_plan_inputs(
                conform_pts, cand,
                options=FMMOptions(p=args.p, max_points=args.s),
            )
            ir = extract_comm_ir(st_inputs)
            try:
                for seed_fn, _intended in SEEDS.values():
                    seed_fn(ir)
            except ValueError:
                cand *= 2
                continue
            st_ir = ir
            break
        if st_ir is None:
            print(f"commir: no rank count up to {cand // 2} hosts the "
                  f"seeded defects on this workload")
            return 1
        if cand != args.selftest_ranks:
            print(f"commir: self-tests host at ranks={cand}")
        for name, ok, detail in run_selftests(st_ir):
            print(f"selftest {name}: {'ok' if ok else 'FAILED'} "
                  f"({detail})")
            selftests.append({"seed": name, "ok": ok, "detail": detail})
            failed |= not ok

    elapsed = time.time() - t_start
    if args.json:
        payload = {
            "n": int(pts.shape[0]), "p": args.p, "s": args.s,
            "elapsed_s": elapsed,
            "configs": configs, "selftests": selftests,
            "ok": not failed,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"commir: JSON report written to {args.json}")
    nconform = sum(1 for c in configs if c.get("conformance"))
    print("commir:", "FAILED" if failed
          else f"all {len(configs) - nconform} schedules certified, "
               f"{nconform} traced runs conform "
               f"(zero waivers) in {elapsed:.1f}s")
    return 1 if failed else 0


def _cmd_dpor(args: argparse.Namespace) -> int:
    """Exhaustively model-check the schedule space at tiny rank counts.

    Builds the static communication IR for each requested rank count
    and explores *every* reachable scheduler interleaving (memoized
    over program-counter states): no reachable deadlock, persistence
    certified at every state, and the exact interleaving count
    reported.  An end-to-end harness then re-solves the same problem
    under several randomized runtime schedules and asserts bitwise
    identical potentials.
    """
    import json

    from repro.analysis.commir import extract_comm_ir, static_plan_inputs
    from repro.analysis.dpor import bitwise_determinism, explore

    rng = np.random.default_rng(args.seed)
    ranks_list = _parse_ints(args.ranks)
    if not ranks_list:
        print("dpor: nothing to explore (empty --ranks)")
        return 2
    if args.n <= 0:
        print(f"dpor: need a positive point count, got {args.n}")
        return 2
    pts = _WORKLOADS[args.workload](args.n, rng)
    kernel = _make_kernel(args.kernel)
    density = rng.random((pts.shape[0], kernel.source_dof))
    failed = False
    rows: list[dict] = []
    for nranks in ranks_list:
        inputs = static_plan_inputs(
            pts, nranks, options=FMMOptions(p=args.p, max_points=args.s)
        )
        report = explore(extract_comm_ir(inputs), max_states=args.max_states)
        print(f"ranks{nranks}: {report.summary()}")
        for d in report.deadlocks:
            print(f"  deadlock: {d}")
        for v in report.persistence_violations:
            print(f"  persistence: {v}")
        rows.append({
            "ranks": nranks, "ok": report.ok,
            "states": report.nstates,
            "interleavings": str(report.ninterleavings),
            "classes": report.nclasses,
            "deadlocks": report.deadlocks,
            "persistence_violations": report.persistence_violations,
        })
        failed |= not report.ok
        same, diff = bitwise_determinism(
            kernel, pts, density,
            FMMOptions(p=args.p, max_points=args.s),
            nranks, seeds=tuple(range(args.seed, args.seed
                                      + args.schedules)),
        )
        print(f"ranks{nranks}: bitwise determinism across "
              f"{args.schedules} schedules: "
              f"{'ok' if same else f'FAILED (max diff {diff:g})'}")
        rows.append({
            "ranks": nranks, "bitwise": same,
            "schedules": args.schedules,
        })
        failed |= not same
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "ok": not failed}, fh, indent=2)
        print(f"dpor: JSON report written to {args.json}")
    print("dpor:", "FAILED" if failed
          else "schedule space exhaustively verified")
    return 1 if failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import main as lint_main

    argv = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kernel-independent FMM (SC'03 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--kernel", default="laplace",
                       choices=sorted(_KERNELS))
        p.add_argument("--workload", default="uniform",
                       choices=sorted(_WORKLOADS))
        p.add_argument("--p", type=int, default=6,
                       help="surface order (accuracy)")
        p.add_argument("--s", type=int, default=60,
                       help="max points per leaf")
        p.add_argument("--seed", type=int, default=0)

    def m2l_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m2l", default="auto", choices=M2L_MODES,
                       help="V-list translation backend (auto picks per "
                            "tree level)")
        p.add_argument("--dtype", default="float64", choices=M2L_DTYPES,
                       help="rsvd factor precision (float32 = mixed "
                            "precision; ignored by dense)")

    pe = sub.add_parser("evaluate", help="run one interaction evaluation")
    common(pe)
    pe.add_argument("--n", type=int, default=10_000)
    m2l_flags(pe)
    pe.add_argument("--check", action="store_true",
                    help="verify against direct summation")
    pe.add_argument("--gradient", action="store_true",
                    help="also evaluate field gradients "
                         "(scalar kernels only)")
    pe.add_argument("--samples", type=int, default=200)
    pe.set_defaults(func=_cmd_evaluate)

    pa = sub.add_parser("accuracy", help="error vs surface order sweep")
    common(pa)
    pa.add_argument("--n", type=int, default=3000)
    pa.add_argument("--orders", default="2,4,6")
    pa.add_argument("--samples", type=int, default=200)
    pa.set_defaults(func=_cmd_accuracy)

    ps = sub.add_parser("scaling", help="TCS-1 scalability tables")
    common(ps)
    ps.add_argument("--mode", default="fixed",
                    choices=("fixed", "isogranular"))
    ps.add_argument("--n", type=int, default=3_200_000,
                    help="fixed-size problem size")
    ps.add_argument("--model-n", type=int, default=100_000,
                    help="model tree size for fixed mode")
    ps.add_argument("--grain", type=int, default=200_000)
    ps.add_argument("--cap", type=int, default=200_000)
    ps.add_argument("--procs", default="1,4,16,64,256,1024")
    ps.set_defaults(func=_cmd_scaling)

    pj = sub.add_parser(
        "project",
        help="project the tree-top exchange to thousands of simulated "
             "ranks: flat owner gather/scatter vs hierarchical binomial "
             "collectives + coarse V split",
    )
    common(pj)
    pj.add_argument("--n", type=int, default=20_000,
                    help="model tree size")
    pj.add_argument("--max-ranks", type=int, default=4096,
                    help="largest simulated processor count (powers of "
                         "two are swept up to this)")
    pj.add_argument("--nrhs", type=int, default=1,
                    help="modelled multi-RHS block width")
    pj.add_argument("--out", default="BENCH_scaling.json", metavar="PATH",
                    help="JSON report path (empty string disables)")
    pj.add_argument("--min-speedup", type=float, default=None,
                    help="fail (exit 1) if the modelled tree-top "
                         "improvement at --max-ranks is below this factor")
    pj.add_argument("--max-crossover", type=int, default=None,
                    help="fail (exit 1) unless the flat->hierarchical "
                         "crossover rank exists and is at most this")
    pj.set_defaults(func=_cmd_project, p=4, s=60)

    pc = sub.add_parser(
        "commcheck",
        help="run the parallel FMM under perturbed schedules and verify "
             "the communication traces race- and deadlock-free",
    )
    common(pc)
    pc.add_argument("--n", type=int, default=600)
    pc.add_argument("--ranks", type=int, default=4)
    pc.add_argument("--schedules", type=int, default=5,
                    help="number of perturbed schedules to fuzz")
    m2l_flags(pc)
    pc.add_argument("--applies", type=int, default=1,
                    help="persistent-operator applies per schedule (setup "
                         "once, apply N times, each a region of one trace)")
    pc.add_argument("--overlap", default="on", choices=("on", "off"),
                    help="overlap the equivalent-density exchange with "
                         "owned-data compute in the planned applies")
    pc.add_argument("--nrhs", type=int, default=1,
                    help="stack this many densities into one multi-RHS "
                         "block per apply (the whole block rides one "
                         "overlapped exchange)")
    pc.add_argument("--save-trace", default=None, metavar="PATH",
                    help="write schedule 0's event trace as JSON lines")
    pc.add_argument("--collectives", action="store_true",
                    help="print the per-primitive collective summary "
                         "(allreduce/allgather call and byte counts)")
    pc.add_argument("--traces", nargs="+", default=None, metavar="PATH",
                    help="offline mode: analyze saved *.jsonl traces "
                         "(files or directories) instead of running; "
                         "exits 2 if a path is missing or a directory "
                         "holds no trace files")
    pc.set_defaults(func=_cmd_commcheck, p=4, s=40)

    pr = sub.add_parser(
        "racecheck",
        help="replay the overlapped parallel apply under the "
             "happens-before race detector and certify it race-free",
    )
    common(pr)
    pr.add_argument("--n", type=int, default=600)
    pr.add_argument("--ranks", type=int, default=4)
    pr.add_argument("--schedules", type=int, default=5,
                    help="perturbed schedules per overlap mode")
    m2l_flags(pr)
    pr.add_argument("--applies", type=int, default=2,
                    help="persistent-operator applies per schedule")
    pr.add_argument("--nrhs", type=int, default=1,
                    help="stack this many densities into one multi-RHS "
                         "block per apply")
    pr.add_argument("--seed-race", action="store_true",
                    help="run the deliberately racy fixture instead and "
                         "verify the detector flags it (self-test)")
    pr.set_defaults(func=_cmd_racecheck, p=4, s=40)

    pv = sub.add_parser(
        "serve",
        help="run the micro-batching asyncio evaluation service under a "
             "synthetic Poisson load and report latency percentiles",
    )
    common(pv)
    pv.add_argument("--n", type=int, default=2000)
    m2l_flags(pv)
    pv.add_argument("--requests", type=int, default=64,
                    help="number of synthetic evaluation requests")
    pv.add_argument("--rate", type=float, default=500.0,
                    help="mean Poisson arrival rate, requests/second")
    pv.add_argument("--max-batch", type=int, default=8,
                    help="largest multi-RHS block one apply serves")
    pv.add_argument("--max-delay", type=float, default=0.002,
                    help="seconds the batcher waits for followers after "
                         "the first request of a batch")
    pv.add_argument("--p99-bound", type=float, default=None,
                    help="fail (exit 1) if p99 latency exceeds this many "
                         "seconds — the CI smoke assertion")
    pv.set_defaults(func=_cmd_serve, p=4, s=60)

    pp = sub.add_parser(
        "plancheck",
        help="statically certify the compiled execution plans (dataflow, "
             "dtype-flow, overlap schedule, flop budget) without running "
             "an apply",
    )
    common(pp)
    pp.add_argument("--n", type=int, default=600)
    pp.add_argument("--kernels", default="laplace,stokes",
                    help="comma-separated kernels to sweep")
    pp.add_argument("--ranks", default="2,4",
                    help="comma-separated rank counts for the parallel "
                         "configurations (sequential always runs)")
    pp.add_argument("--nrhs", default="1,8",
                    help="comma-separated multi-RHS block widths")
    pp.add_argument("--no-selftest", action="store_true",
                    help="skip the seeded-defect self-tests")
    pp.add_argument("--json", default=None, metavar="PATH",
                    help="write the machine-readable certification report "
                         "(per-check counts, flop-budget deltas)")
    pp.set_defaults(func=_cmd_plancheck, p=4, s=40)

    pci = sub.add_parser(
        "commir",
        help="statically certify the complete message schedule "
             "(matching, tags, deadlock-freedom, payload conservation, "
             "trace conformance) without running an apply — works at "
             "rank counts like 4096",
    )
    common(pci)
    pci.add_argument("--n", type=int, default=20000)
    pci.add_argument("--kernels", default="laplace,stokes",
                     help="comma-separated kernels of the traced "
                          "conformance runs (the schedule itself takes "
                          "no kernel)")
    pci.add_argument("--ranks", default="2,4,8,64,4096",
                     help="comma-separated rank counts to certify")
    pci.add_argument("--conform-ranks", default="2,4,8",
                     help="rank counts for the dynamic-trace "
                          "conformance cross-check (must be small "
                          "enough to execute)")
    pci.add_argument("--conform-n", type=int, default=600,
                     help="point count of the traced conformance runs")
    pci.add_argument("--selftest-ranks", type=int, default=32,
                     help="rank count hosting the seeded-defect "
                          "self-tests (needs boxes with deep gather "
                          "trees)")
    pci.add_argument("--no-selftest", action="store_true",
                     help="skip the seeded-defect self-tests")
    pci.add_argument("--json", default=None, metavar="PATH",
                     help="write the machine-readable certification "
                          "report")
    pci.set_defaults(func=_cmd_commir, p=4, s=40)

    pd = sub.add_parser(
        "dpor",
        help="exhaustively explore every scheduler interleaving of the "
             "static communication IR at tiny rank counts; prove "
             "deadlock-freedom and observable determinism over the "
             "full schedule space",
    )
    common(pd)
    pd.add_argument("--n", type=int, default=120)
    pd.add_argument("--ranks", default="2,3",
                    help="comma-separated rank counts to explore "
                         "(state space grows fast; keep tiny)")
    pd.add_argument("--max-states", type=int, default=2_000_000,
                    help="abort exploration beyond this many scheduler "
                         "states")
    pd.add_argument("--schedules", type=int, default=4,
                    help="randomized runtime schedules for the bitwise "
                         "determinism harness")
    pd.add_argument("--json", default=None, metavar="PATH",
                    help="write the machine-readable report")
    pd.set_defaults(func=_cmd_dpor, p=4, s=40)

    pl = sub.add_parser(
        "lint", help="run the repo-invariant AST lint over source trees"
    )
    pl.add_argument("paths", nargs="*", default=["src"])
    pl.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog with rationales")
    pl.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
