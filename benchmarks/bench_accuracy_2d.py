"""Accuracy of the method in the plane (Section 2 poses it for d = 2, 3).

Same protocol as ``bench_accuracy.py`` in the plane: sweep the surface
order for all 2D kernels against direct summation, plus a timing check
that the FMM beats O(N^2) at moderate N.  The 2D kernels run the one
``KIFMM`` — quadtree, square surfaces, plan and evaluator are the 3D
code at ``dim = 2`` — under the default ``m2l="auto"``; the ``dense``
column is the uncompressed M2L, the reference for the backend's error.

Run: ``python -m pytest benchmarks/bench_accuracy_2d.py -q -s``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import (
    Laplace2DKernel,
    ModifiedLaplace2DKernel,
    Stokes2DKernel,
)
from repro.kernels.direct import direct_evaluate
from repro.util.tables import format_table

KERNELS = {
    "laplace2d": Laplace2DKernel(),
    "modified_laplace2d": ModifiedLaplace2DKernel(lam=1.0),
    "stokes2d": Stokes2DKernel(),
}
P_SWEEP = (4, 6, 8, 10, 12)
N = 4000


def _sweep(kernel):
    rng = np.random.default_rng(60)
    pts = rng.uniform(-1, 1, size=(N, 2))
    phi = rng.random((N, kernel.source_dof))
    sample = rng.choice(N, size=400, replace=False)
    exact = direct_evaluate(kernel, pts[sample], pts, phi)
    rows = []
    for p in P_SWEEP:
        errs = {}
        for m2l in ("auto", "dense"):
            fmm = KIFMM(kernel, FMMOptions(p=p, max_points=40, m2l=m2l))
            fmm.setup(pts)
            t0 = time.perf_counter()
            u = fmm.apply(phi)
            dt = time.perf_counter() - t0
            errs[m2l] = float(
                np.linalg.norm(u[sample] - exact) / np.linalg.norm(exact)
            )
            if m2l == "auto":
                seconds = dt
        rows.append((p, errs["auto"], errs["dense"], seconds))
    return rows


@pytest.mark.parametrize("name", list(KERNELS))
def test_accuracy_sweep_2d(benchmark, name):
    kernel = KERNELS[name]
    rows = benchmark.pedantic(_sweep, args=(kernel,), rounds=1, iterations=1)
    print()
    print(format_table(
        ("p", "rel. error", "dense M2L", "eval seconds"),
        rows,
        title=f"2D accuracy sweep / {name} (N={N}, vs direct summation)",
    ))
    errs = {r[0]: r[1] for r in rows}
    assert errs[8] < errs[4]
    assert errs[8] < 1e-5
    # The dense column falls strictly through p = 12: the inversions,
    # applied as their SVD factors, add no round-off floor.
    dense = [r[2] for r in rows]
    assert all(b < a for a, b in zip(dense, dense[1:])), dense
