"""The SC'03 parallel algorithm, three ways.

1. For real: the three-stage compute/communicate/compute algorithm runs
   on logical ranks (simulated MPI: setup on rank threads, the apply on
   rank processes), exchanging actual messages; results are verified
   against the sequential evaluator.
2. Measured: strong scaling of the persistent operator on this host's
   cores — beyond one rank its applies run on rank processes — next to
   what the performance model predicts for the same tree.
3. At scale: the TCS-1 performance model extrapolates the same
   data structures to the paper's 3.2M-particle fixed-size experiment
   (Table 4.1).

Run:  OPENBLAS_NUM_THREADS=1 python examples/parallel_scaling.py
(one BLAS thread per rank, so that ranks are what uses the cores)
"""

import os
import time

import numpy as np

from repro import KIFMM, FMMOptions, LaplaceKernel
from repro.geometry import corner_clusters, uniform_cube
from repro.kernels.direct import relative_error
from repro.parallel import ParallelFMM
from repro.perfmodel import TCS1, simulate_run
from repro.perfmodel.costs import compute_work
from repro.octree import build_lists, build_tree
from repro.util.tables import format_table


def main() -> None:
    rng = np.random.default_rng(3)
    kernel = LaplaceKernel()
    opts = FMMOptions(p=4, max_points=50)

    # ---- part 1: real message-passing runs ----
    n = 6000
    pts = corner_clusters(n, rng)
    phi = rng.standard_normal((n, 1))
    seq = KIFMM(kernel, opts).setup(pts).apply(phi)

    print(f"Real simulated-MPI runs (N={n}, corner-clustered):")
    rows = []
    for nranks in (1, 2, 4, 8):
        t0 = time.perf_counter()
        with ParallelFMM(nranks, kernel, opts) as op:
            pot = op.setup(pts).apply(phi)
        dt = time.perf_counter() - t0
        err = relative_error(pot, seq)
        nbytes = sum(s.bytes_sent for s in op.comm_stats)
        msgs = sum(s.messages_sent for s in op.comm_stats)
        rows.append((nranks, dt, err, msgs, nbytes / 1e3))
    print(format_table(
        ("ranks", "wall s", "err vs sequential", "messages", "KB exchanged"),
        rows,
    ))

    # ---- part 2: measured strong scaling on this host's cores ----
    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    n = 30_000
    pts = uniform_cube(n, rng)
    phi = rng.standard_normal((n, 1))
    tree = build_tree(pts, max_points=opts.max_points)
    lists = build_lists(tree)
    work = compute_work(tree, lists, kernel, opts.p)
    print(f"\nMeasured strong scaling, N={n} uniform, {cores} core(s) "
          f"(best of 3 applies; model: TCS-1 on the same tree):")
    rows, base, model_base = [], None, None
    for nranks in range(1, cores + 1):
        with ParallelFMM(nranks, kernel, opts) as op:
            op.setup(pts).apply(phi)  # forks the ranks, warms their buffers
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                op.apply(phi)
                best = min(best, time.perf_counter() - t0)
        model = simulate_run(
            tree, lists, kernel, opts.p, nranks, TCS1, work=work
        ).total
        base, model_base = base or best, model_base or model
        rows.append((
            nranks, best, base / best, base / best / nranks,
            model_base / model,
        ))
    print(format_table(
        ("ranks", "apply s", "speedup", "efficiency", "model speedup"),
        rows,
    ))

    # ---- part 3: TCS-1 model at paper scale ----
    n_model = 120_000
    print(f"\nTCS-1 model, fixed-size 3.2M particles "
          f"(tree measured at {n_model:,}):")
    pts_big = corner_clusters(n_model, rng)
    tree = build_tree(pts_big, max_points=60)
    lists = build_lists(tree)
    work = compute_work(tree, lists, kernel, 6)
    scale = 3_200_000 / pts_big.shape[0]
    rows = []
    for P in (1, 16, 64, 256, 1024):
        r = simulate_run(tree, lists, kernel, 6, P, TCS1, work=work,
                         grain_scale=scale, n_override=3_200_000)
        rows.append((P, r.total, r.up, r.down, r.comm, r.gflops_avg))
    print(format_table(
        ("P", "Total s", "Up s", "Down s", "Comm s", "aggregate GF/s"),
        rows,
    ))


if __name__ == "__main__":
    main()
