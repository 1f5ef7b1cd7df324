"""Command-line interface.

Examples::

    python -m repro evaluate --kernel stokes --n 20000 --check
    python -m repro accuracy --kernel laplace --n 3000 --orders 2,4,6
    python -m repro scaling --mode fixed --kernel laplace \
        --n 3200000 --model-n 100000 --procs 1,16,256,1024
    python -m repro scaling --mode isogranular --kernel stokes \
        --grain 200000 --procs 1,64,1024 --cap 200000
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
    powers of two over the runtime's roles (its partition, owners and
    users), comparing the flat owner gather/scatter (the paper's
    Algorithm 1 as published; per-box fan-in grows O(P) at the critical
    rank) against the binomial trees the ranks run (O(log P) fan-in,
    counted rank by rank) plus a coarse-level V split.  The ranks run
    the binomial exchange with a redundant tree-top V; the flat exchange
    and the split are priced by the model only.  ``--out`` writes
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
    sequential + every rank count × overlap on/off), plus the sequential
    plans of the plane's Laplace and Stokes kernels over the workload's
    points projected to ``dim = 2``, extracts each
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
    from repro.kernels import Laplace2DKernel, Stokes2DKernel
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

    # The plane: the one plan compiler and cost model at dim = 2.
    plane = np.ascontiguousarray(pts[:, :2])
    sweeps = [(k, _make_kernel(k), pts, ranks_list) for k in kernels] + [
        ("laplace2d", Laplace2DKernel(), plane, []),
        ("stokes2d", Stokes2DKernel(), plane, []),
    ]
    for kname, kernel, points, kernel_ranks in sweeps:
        corner, side = _root_cube(points)
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
            fmm = KIFMM(kernel, opts).setup(points, cache=shared_cache)
            for nrhs in nrhs_list:
                ir, expected = rank_ir(fmm.state, nrhs=nrhs)
                name = f"{kname}/{conf}/sequential/nrhs{nrhs}"
                record(run_checks(ir, expected, name=name), {
                    "kernel": kname, "dim": kernel.dim, "m2l": m2l,
                    "dtype": dtype, "mode": "sequential",
                    "depth": ir.meta["depth"], "p": args.p, "nrhs": nrhs,
                    "ranks": 1, "overlap": None,
                })
            for nranks in kernel_ranks:
                states = rank_states(
                    kernel, points, opts, nranks, cache=shared_cache,
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
                                "kernel": kname, "dim": kernel.dim,
                                "m2l": m2l,
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

    For rank counts small enough to execute (``--conform-ranks``), one
    real setup on ``--conform-n`` points (rank threads, no apply, the
    ``--kernel``; the schedule takes none, so none is swept)
    cross-checks conformance: the exchange programs every rank holds
    must be its certified program, op for op.  The seeded-defect
    self-tests
    (dropped relay, reused tag, swapped post/wait, starved user) run at
    ``--selftest-ranks`` unless ``--no-selftest``.  There is no waiver
    mechanism.
    """
    import json
    import time

    from repro.analysis.commcheck_static import run_checks, run_selftests
    from repro.analysis.commir import (
        extract_comm_ir,
        gc_paused,
        static_plan_inputs,
    )
    from repro.analysis.plancheck import rank_states

    rng = np.random.default_rng(args.seed)
    ranks_list = _parse_ints(args.ranks)
    if not ranks_list:
        print("commir: nothing to certify (empty --ranks)")
        return 2
    pts = _WORKLOADS[args.workload](args.n, rng)
    conform_pts = _WORKLOADS[args.workload](args.conform_n, rng)
    conform_ranks = set(_parse_ints(args.conform_ranks))
    opts = FMMOptions(p=args.p, max_points=args.s)
    kernel = _make_kernel(args.kernel)
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
        inputs = static_plan_inputs(pts, nranks, options=opts)
        # The collector stays paused from extraction to certification:
        # resuming it in between costs a full scan of the live IR (at
        # P=4096, millions of ops), resuming it once the IR is freed (by
        # reference count) costs nothing.
        with gc_paused():
            report = run_checks(
                extract_comm_ir(inputs), name=f"ranks{nranks}"
            )
        record(report, {"ranks": nranks})

    for nranks in sorted(conform_ranks):
        ir = extract_comm_ir(static_plan_inputs(conform_pts, nranks, opts))
        states = rank_states(kernel, conform_pts, opts, nranks)
        report = run_checks(
            ir, states=states, name=f"conform/ranks{nranks}"
        )
        record(report, {"ranks": nranks, "conformance": True})

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
            ir = extract_comm_ir(
                static_plan_inputs(conform_pts, cand, options=opts)
            )
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
               f"{nconform} rank setups conform "
               f"(zero waivers) in {elapsed:.1f}s")
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
             "collectives + coarse V split (the ranks run the binomial "
             "exchange with a redundant tree-top V; the split is "
             "modelled only)",
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
             "conformance of the ranks' programs) without running an "
             "apply — works at "
             "rank counts like 4096",
    )
    common(pci)
    pci.add_argument("--n", type=int, default=20000)
    pci.add_argument("--ranks", default="2,3,4,8,64,4096",
                     help="comma-separated rank counts to certify")
    pci.add_argument("--conform-ranks", default="2,4,8",
                     help="rank counts whose real setup's programs "
                          "must be the certified ones (must be small "
                          "enough to execute)")
    pci.add_argument("--conform-n", type=int, default=600,
                     help="point count of the conformance setups")
    pci.add_argument("--selftest-ranks", type=int, default=128,
                     help="rank count hosting the seeded-defect "
                          "self-tests (needs boxes with deep gather "
                          "trees)")
    pci.add_argument("--no-selftest", action="store_true",
                     help="skip the seeded-defect self-tests")
    pci.add_argument("--json", default=None, metavar="PATH",
                     help="write the machine-readable certification "
                          "report")
    pci.set_defaults(func=_cmd_commir, p=4, s=40)

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
