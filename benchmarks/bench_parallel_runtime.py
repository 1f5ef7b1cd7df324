"""The in-process parallel runtime, measured for real.

Runs the full three-stage SC'03 algorithm (Morton partitioning, global
tree array via Allreduce, LETs, owners, Algorithm 1 exchanges) through
``ParallelFMM`` at 1/2/4/8 logical ranks — setup on rank threads, the
apply on rank processes beyond one rank — reporting per-phase time,
communication volumes (setup and one apply) and correctness against the
sequential evaluator.  This complements the machine-model benches:
volumes here are exchanged, not estimated.

Run:  python -m pytest benchmarks/bench_parallel_runtime.py -q -s
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.geometry import corner_clusters
from repro.kernels import LaplaceKernel
from repro.kernels.direct import relative_error
from repro.parallel import ParallelFMM
from repro.util.tables import format_table

N = 4000
RANKS = (1, 2, 4, 8)


def _run_all():
    rng = np.random.default_rng(48)
    pts = corner_clusters(N, rng)
    phi = rng.standard_normal((N, 1))
    opts = FMMOptions(p=4, max_points=40)
    seq = KIFMM(LaplaceKernel(), opts).setup(pts).apply(phi)
    rows, errs = [], []
    for nr in RANKS:
        with ParallelFMM(nr, LaplaceKernel(), opts) as op:
            pot = op.setup(pts).apply(phi)
        total_bytes = sum(s.bytes_sent for s in op.comm_stats)
        total_msgs = sum(s.messages_sent for s in op.comm_stats)
        timers = [t.by_phase() for t in op.timers]
        up = float(np.mean([t["up"] for t in timers]))
        down = float(np.mean([
            sum(v for k, v in t.items()
                if k.startswith("down") or k == "eval")
            for t in timers
        ]))
        comm = float(np.mean([
            t.get("pack", 0.0) + t.get("wait", 0.0) for t in timers
        ]))
        rows.append((nr, up, comm, down, total_msgs, total_bytes / 1e3))
        errs.append(relative_error(pot, seq))
    return rows, errs


def test_parallel_runtime(benchmark):
    rows, errs = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    print()
    print(format_table(
        ("ranks", "up sec", "pack+wait sec", "down sec", "messages", "KB sent"),
        rows,
        title=f"Simulated-MPI parallel runtime (N={N}, corner-clustered)",
    ))
    assert max(errs) < 1e-9, "parallel must equal sequential"
    bytes_sent = [r[5] for r in rows]
    assert bytes_sent[0] == 0.0
    assert all(b > 0 for b in bytes_sent[1:])
    assert bytes_sent[3] > bytes_sent[1], "more ranks exchange more ghosts"
