"""Throughput of ``setup()`` vs repeated ``apply()`` (PR tracking bench).

The paper's parallel implementation "is designed to achieve maximum
efficiency in the multiplication phase" (Section 3): one geometry setup
is amortised over tens of interaction evaluations inside Krylov loops.
This bench records, for Laplace and Stokes at N in {2k, 20k}:

- ``setup()`` wall-clock (tree + lists + operators + execution plan),
- mean ``apply()`` wall-clock and points/second, per evaluator phase,
- the speedup of the planned ("batched") evaluator over the seed's
  per-box ("naive") path on identical inputs.

Results land in ``BENCH_apply.json`` at the repository root so the
performance trajectory is tracked across PRs.  Run directly::

    python benchmarks/bench_apply_throughput.py [--quick] [--out PATH]

or through pytest (uses --quick sizes)::

    python -m pytest benchmarks/bench_apply_throughput.py -q

With ``--nrhs 1,4,8,16`` the bench instead sweeps multi-RHS block
widths: for each ``nrhs`` it measures one batched block apply against
``nrhs`` looped single-RHS applies on the same operator (best-of-3
within the process — run-to-run CPU speed varies far more than
in-process repeats), records per-phase timings of the batched apply and
the worst column relative error, pulls in the parallel-rank sweep from
``bench_parallel_apply``, and writes ``BENCH_multirhs.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import relative_error
from repro.util.tables import format_table

_ROOT = Path(__file__).resolve().parent.parent
_KERNELS = {"laplace": LaplaceKernel, "stokes": StokesKernel}


def roundoff_bound(fmm: KIFMM) -> float:
    """How far two correct evaluators of ``fmm`` may sit apart.

    The planned and the per-box path sum the same terms in different
    orders, and every difference of one ulp in a check potential passes
    through the regularised ``uc2ue`` / ``dc2de`` inversions, whose
    condition number grows with ``p`` (Laplace 2e5 / 1e9 / 3e11 and
    Stokes 5e5 / 2e10 / 9e11 at p = 4 / 6 / 8).  Measured over p in
    {4, 6, 8}, rcond in {1e-12, 1e-9, 1e-6}, N in {2k, 20k} and both
    kernels, the disagreement is 0.003-0.011 x eps x that condition
    number — six decades on one line — so the bound is 0.1 x eps x
    cond.  A fixed 1e-10 only ever held at p = 4 (the parity tests'
    1e-12 at N = 3k is p = 4 too); this bench runs the default p = 6,
    where BENCH_apply.json has always recorded 7e-10 to 3e-8.  A gating
    difference would show at the method's own truncation error (1e-7
    Laplace, 1e-5 Stokes at p = 6) or far above it.
    """
    cache, zero = fmm.cache, np.zeros(3)
    forward = fmm.kernel.matrix(
        cache.up_check_points(zero, 0), cache.up_equiv_points(zero, 0)
    )
    cond = np.linalg.norm(forward, 2) * np.linalg.norm(cache.uc2ue(0), 2)
    return float(0.1 * np.finfo(np.float64).eps * cond)


def _measure(kernel_name: str, n: int, plan: str, napply: int) -> dict:
    """Setup once, apply ``napply`` times; return timings and phases."""
    kernel = _KERNELS[kernel_name]()
    rng = np.random.default_rng(2003)
    pts = rng.random((n, 3))
    phi = rng.standard_normal((n, kernel.source_dof))
    fmm = KIFMM(kernel, FMMOptions(plan=plan))
    t0 = time.perf_counter()
    fmm.setup(pts)
    t_setup = time.perf_counter() - t0
    u = fmm.apply(phi)  # warm operator caches / plan buffers
    fmm.timer.reset()
    t0 = time.perf_counter()
    for _ in range(napply):
        fmm.apply(phi)
    t_apply = (time.perf_counter() - t0) / napply
    phases = {
        k: round(v / napply, 6)
        for k, v in sorted(fmm.timer.by_phase().items())
        if k not in ("tree", "plan")
    }
    return {
        "kernel": kernel_name,
        "n": n,
        "plan": plan,
        "m2l": "fft",
        "applies": napply,
        "setup_seconds": round(t_setup, 4),
        "apply_seconds": round(t_apply, 4),
        "points_per_second": round(n / t_apply, 1),
        "phase_seconds": phases,
        "roundoff_bound": float(f"{roundoff_bound(fmm):.3e}"),
        "_potential": u,
    }


def run(quick: bool = False, out: Path | None = None) -> dict:
    sizes = [2_000] if quick else [2_000, 20_000]
    napply = 1 if quick else 3
    results = []
    for kernel_name in ("laplace", "stokes"):
        for n in sizes:
            batched = _measure(kernel_name, n, "batched", napply)
            # One naive apply is enough: it is the slow reference.
            naive = _measure(kernel_name, n, "naive", 1)
            agree = relative_error(
                batched.pop("_potential"), naive.pop("_potential")
            )
            batched["speedup_vs_naive"] = round(
                naive["apply_seconds"] / batched["apply_seconds"], 2
            )
            batched["relative_error_vs_naive"] = float(f"{agree:.3e}")
            results.append(batched)
            results.append(naive)
    report = {
        "bench": "apply_throughput",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "results": results,
    }
    rows = [
        (
            r["kernel"],
            r["n"],
            r["plan"],
            r["setup_seconds"],
            r["apply_seconds"],
            r["points_per_second"],
            r.get("speedup_vs_naive", ""),
        )
        for r in results
    ]
    print(format_table(
        ("kernel", "N", "plan", "setup s", "apply s", "pts/s", "speedup"),
        rows,
        title="apply() throughput (fft M2L, defaults p=6, s=60)",
    ))
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    return report


def _measure_multirhs(
    kernel_name: str, n: int, nrhs: int, opts: FMMOptions, repeats: int,
) -> dict:
    """One batched block apply vs ``nrhs`` looped single applies.

    Both paths run on the same warmed operator.  The two arms are
    interleaved (loop, batch, loop, batch, ...) and each takes its
    best-of-``repeats``, so a CPU-speed drift mid-measurement hits both
    arms alike instead of biasing their ratio.
    """
    kernel = _KERNELS[kernel_name]()
    rng = np.random.default_rng(2003)
    pts = rng.random((n, 3))
    block = rng.standard_normal((n, kernel.source_dof, nrhs))
    cols = [np.ascontiguousarray(block[:, :, r]) for r in range(nrhs)]
    fmm = KIFMM(kernel, opts)
    t0 = time.perf_counter()
    fmm.setup(pts)
    t_setup = time.perf_counter() - t0
    fmm.apply(block)  # warm block-width plan buffers and operator caches
    fmm.apply(cols[0])  # warm single-width plan buffers

    t_loop = t_batch = np.inf
    singles = out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        outs = [fmm.apply(c) for c in cols]
        t = time.perf_counter() - t0
        if t < t_loop:
            t_loop = t
            singles = [np.array(o, copy=True) for o in outs]
        t0 = time.perf_counter()
        o = fmm.apply(block)
        t = time.perf_counter() - t0
        if t < t_batch:
            t_batch = t
            out = np.array(o, copy=True)
    fmm.timer.reset()
    fmm.apply(block)  # one clean apply for the per-phase split
    phases = {
        k: round(v, 6)
        for k, v in sorted(fmm.timer.by_phase().items())
        if k not in ("tree", "plan")
    }
    parity = max(
        relative_error(out[:, :, r], s) for r, s in enumerate(singles)
    )
    return {
        "kernel": kernel_name,
        "n": n,
        "nrhs": nrhs,
        "p": opts.p,
        "max_points": opts.max_points,
        "repeats": repeats,
        "setup_seconds": round(t_setup, 4),
        "batched_seconds": round(t_batch, 4),
        "looped_seconds": round(t_loop, 4),
        "speedup_vs_looped": round(t_loop / t_batch, 2),
        "rhs_per_second": round(nrhs / t_batch, 1),
        "max_column_rel_error": float(f"{parity:.3e}"),
        "phase_seconds": phases,
    }


def run_multirhs(
    quick: bool = False,
    out: Path | None = None,
    nrhs_list: tuple[int, ...] = (1, 4, 8, 16),
) -> dict:
    """Multi-RHS sweep: sequential Laplace plus the parallel-rank sweep."""
    try:
        from benchmarks.bench_parallel_apply import multirhs_sweep
    except ImportError:  # direct `python benchmarks/...` invocation
        from bench_parallel_apply import multirhs_sweep

    n = 2_000 if quick else 20_000
    # leaf capacity 120 balances near-field GEMM width against M2L work
    # for batched blocks at this size; see docs/architecture.md
    opts = (FMMOptions(p=4, max_points=60) if quick
            else FMMOptions(p=6, max_points=120))
    repeats = 1 if quick else 3
    sequential = [
        _measure_multirhs("laplace", n, nrhs, opts, repeats)
        for nrhs in nrhs_list
    ]
    pw = 8 if 8 in nrhs_list else max(nrhs_list)
    parallel = multirhs_sweep(quick=quick, nrhs_list=(pw,))
    report = {
        "bench": "multirhs",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "sequential": sequential,
        "parallel": parallel,
    }
    rows = [
        (
            r["nrhs"],
            r["batched_seconds"],
            r["looped_seconds"],
            r["speedup_vs_looped"],
            r["rhs_per_second"],
            r["max_column_rel_error"],
        )
        for r in sequential
    ]
    print(format_table(
        ("nrhs", "batched s", "looped s", "speedup", "rhs/s", "col err"),
        rows,
        title=(f"batched multi-RHS apply vs looped singles "
               f"(Laplace, N={n}, p={opts.p}, s={opts.max_points})"),
    ))
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    return report


def test_apply_throughput():
    """Bench smoke: the planned path must beat per-box and agree with it."""
    report = run(quick=True)
    for r in report["results"]:
        if r["plan"] == "batched":
            assert r["relative_error_vs_naive"] < r["roundoff_bound"]
            assert r["speedup_vs_naive"] > 1.0


def test_multirhs():
    """Bench smoke: batched blocks beat looped singles, columns agree."""
    report = run_multirhs(quick=True, nrhs_list=(1, 8))
    for r in report["sequential"]:
        assert r["max_column_rel_error"] < 1e-12
    wide = report["sequential"][-1]
    assert wide["nrhs"] == 8
    assert wide["speedup_vs_looped"] > 1.05
    for r in report["parallel"]:
        assert r["max_column_rel_error"] < 1e-12
        assert r["speedup_vs_looped"] > 1.0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small sizes, one apply per config")
    ap.add_argument("--out", type=Path, default=_ROOT / "BENCH_apply.json")
    ap.add_argument("--nrhs", type=str, default=None, metavar="LIST",
                    help="comma-separated block widths: run the multi-RHS "
                         "sweep and write BENCH_multirhs.json instead")
    args = ap.parse_args()
    if args.nrhs is not None:
        widths = tuple(int(w) for w in args.nrhs.split(","))
        run_multirhs(quick=args.quick, out=_ROOT / "BENCH_multirhs.json",
                     nrhs_list=widths)
    else:
        run(quick=args.quick, out=args.out)
