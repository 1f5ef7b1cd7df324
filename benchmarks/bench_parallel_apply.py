"""Persistent parallel operator: amortization and overlap (PR bench).

The tentpole claims of the setup/apply split, measured for real on the
simulated-MPI runtime: a :class:`~repro.parallel.pfmm.ParallelFMM` sets
up once (parallel tree, LET, owners, LET-local execution plan, ghost
geometry) and each subsequent ``apply`` exchanges only densities through
the overlapped nonblocking protocol.  For ranks in {1, 2, 4} this bench
records:

- setup wall-clock and the amortized per-apply wall-clock (>= 3 applies),
- overlap on vs off: identical potentials, compared ``wait``-phase
  seconds,
- the relative error against a sequential ``KIFMM`` apply.

Results land in ``BENCH_papply.json`` at the repository root so the
performance trajectory is tracked across PRs.  Run directly::

    python benchmarks/bench_parallel_apply.py [--quick] [--out PATH]

or through pytest (uses --quick sizes)::

    python -m pytest benchmarks/bench_parallel_apply.py -q

With ``--nrhs 8`` (a comma-separated width list) the bench instead
measures blocked multi-RHS applies on the persistent operator: one
overlapped exchange carries the whole block, timed against ``nrhs``
looped single-RHS applies on the same operator.  (The sequential half
of the multi-RHS claim is carried by the end-to-end ledger rows
``core.evaluator.apply_nrhs8_s`` / ``nrhs8_speedup``.)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.fmm import KIFMM, FMMOptions
from repro.kernels import LaplaceKernel
from repro.parallel.pfmm import ParallelFMM
from repro.util.tables import format_table

_ROOT = Path(__file__).resolve().parent.parent


def _wait_seconds(op: ParallelFMM) -> float:
    return float(np.mean([t.by_phase().get("wait", 0.0) for t in op.timers]))


def _measure_ranks(
    nranks: int, pts: np.ndarray, phi: np.ndarray, opts: FMMOptions,
    napply: int,
) -> dict:
    kernel = LaplaceKernel()
    op = ParallelFMM(nranks, kernel, opts, overlap=True)
    t0 = time.perf_counter()
    op.setup(pts)
    t_setup = time.perf_counter() - t0
    pot = op.apply(phi)  # warm the plan buffers and operator entries
    for t in op.timers:
        t.reset()
    t0 = time.perf_counter()
    for _ in range(napply):
        op.apply(phi)
    t_apply = (time.perf_counter() - t0) / napply
    wait_on = _wait_seconds(op) / napply

    off = ParallelFMM(nranks, kernel, opts, overlap=False)
    off.cache = op.cache  # same operators, fair timing
    off.setup(pts)
    off.apply(phi)
    for t in off.timers:
        t.reset()
    t0 = time.perf_counter()
    for _ in range(napply):
        pot_off = off.apply(phi)
    t_apply_off = (time.perf_counter() - t0) / napply
    wait_off = _wait_seconds(off) / napply
    assert np.array_equal(pot, pot_off), "overlap must not change bits"

    seq = KIFMM(kernel, opts).setup(pts).apply(phi)
    err = float(np.linalg.norm(seq - pot) / np.linalg.norm(seq))
    return {
        "ranks": nranks,
        "n": int(pts.shape[0]),
        "applies": napply,
        "setup_seconds": round(t_setup, 4),
        "apply_seconds": round(t_apply, 4),
        "apply_seconds_no_overlap": round(t_apply_off, 4),
        "wait_seconds_overlap_on": round(wait_on, 5),
        "wait_seconds_overlap_off": round(wait_off, 5),
        "relative_error_vs_sequential": float(f"{err:.3e}"),
    }


def run(quick: bool = False, out: Path | None = None) -> dict:
    n = 2_000 if quick else 20_000
    napply = 3
    rng = np.random.default_rng(2003)
    pts = rng.random((n, 3))
    phi = rng.standard_normal((n, 1))
    opts = FMMOptions(p=4 if quick else 6, max_points=40 if quick else 60)
    results = [
        _measure_ranks(nranks, pts, phi, opts, napply)
        for nranks in (1, 2, 4)
    ]
    report = {
        "bench": "parallel_apply",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "results": results,
    }
    rows = [
        (
            r["ranks"],
            r["setup_seconds"],
            r["apply_seconds"],
            r["apply_seconds_no_overlap"],
            r["wait_seconds_overlap_on"],
            r["wait_seconds_overlap_off"],
        )
        for r in results
    ]
    print(format_table(
        ("ranks", "setup s", "apply s", "no-overlap s",
         "wait on", "wait off"),
        rows,
        title=f"persistent ParallelFMM apply (N={n}, Laplace)",
    ))
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    return report


def _measure_multirhs_ranks(
    nranks: int, pts: np.ndarray, block: np.ndarray, opts: FMMOptions,
    repeats: int,
) -> dict:
    """Blocked apply vs looped single applies on one persistent operator."""
    from repro.kernels.direct import relative_error

    kernel = LaplaceKernel()
    nrhs = block.shape[2]
    cols = [np.ascontiguousarray(block[:, :, r]) for r in range(nrhs)]
    op = ParallelFMM(nranks, kernel, opts, overlap=True)
    op.setup(pts)
    op.apply(block)  # warm block-width plan buffers and operator caches
    op.apply(cols[0])  # warm single-width plan buffers

    # interleave the arms so CPU-speed drift hits both ratios alike
    t_loop = t_batch = np.inf
    singles = out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        outs = [op.apply(c) for c in cols]
        t = time.perf_counter() - t0
        if t < t_loop:
            t_loop = t
            singles = [np.array(o, copy=True) for o in outs]
        t0 = time.perf_counter()
        o = op.apply(block)
        t = time.perf_counter() - t0
        if t < t_batch:
            t_batch = t
            out = np.array(o, copy=True)
    parity = max(
        relative_error(out[:, :, r], s) for r, s in enumerate(singles)
    )
    return {
        "ranks": nranks,
        "n": int(pts.shape[0]),
        "nrhs": nrhs,
        "p": opts.p,
        "max_points": opts.max_points,
        "repeats": repeats,
        "batched_seconds": round(t_batch, 4),
        "looped_seconds": round(t_loop, 4),
        "speedup_vs_looped": round(t_loop / t_batch, 2),
        "rhs_per_second": round(nrhs / t_batch, 1),
        "max_column_rel_error": float(f"{parity:.3e}"),
    }


def multirhs_sweep(
    quick: bool = False,
    nrhs_list: tuple[int, ...] = (8,),
    ranks: tuple[int, ...] | None = None,
) -> list[dict]:
    """Blocked-vs-looped results per (ranks, nrhs); printed as a table."""
    n = 2_000 if quick else 20_000
    rng = np.random.default_rng(2003)
    pts = rng.random((n, 3))
    opts = FMMOptions(p=4 if quick else 6, max_points=40 if quick else 60)
    repeats = 1 if quick else 2
    if ranks is None:
        ranks = (2,) if quick else (2, 4)
    results = [
        _measure_multirhs_ranks(
            nranks, pts, rng.standard_normal((n, 1, nrhs)), opts, repeats
        )
        for nranks in ranks
        for nrhs in nrhs_list
    ]
    rows = [
        (
            r["ranks"],
            r["nrhs"],
            r["batched_seconds"],
            r["looped_seconds"],
            r["speedup_vs_looped"],
            r["max_column_rel_error"],
        )
        for r in results
    ]
    print(format_table(
        ("ranks", "nrhs", "batched s", "looped s", "speedup", "col err"),
        rows,
        title=(f"blocked parallel apply vs looped singles "
               f"(Laplace, N={n}, overlap on)"),
    ))
    return results


def test_parallel_apply():
    """Bench smoke: the parallel operator reproduces the sequential one."""
    report = run(quick=True)
    for r in report["results"]:
        assert r["relative_error_vs_sequential"] < 1e-12


def test_parallel_multirhs():
    """Bench smoke: blocked applies beat looped singles, columns agree."""
    for r in multirhs_sweep(quick=True, nrhs_list=(4,)):
        assert r["max_column_rel_error"] < 1e-12
        assert r["speedup_vs_looped"] > 1.0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small size, coarser discretisation")
    ap.add_argument("--out", type=Path, default=_ROOT / "BENCH_papply.json")
    ap.add_argument("--nrhs", type=str, default=None, metavar="LIST",
                    help="comma-separated block widths: run the blocked "
                         "multi-RHS sweep instead of the amortization bench")
    args = ap.parse_args()
    if args.nrhs is not None:
        widths = tuple(int(w) for w in args.nrhs.split(","))
        multirhs_sweep(quick=args.quick, nrhs_list=widths)
    else:
        run(quick=args.quick, out=args.out)
