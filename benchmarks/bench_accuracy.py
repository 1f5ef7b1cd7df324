"""Accuracy study — the paper's 1e-5 relative-error operating point.

Section 4: "the relative error in all experiments is 1e-5"; the
companion paper [25] controls accuracy through the surface order p.  This
bench sweeps p for every kernel, measuring the error against direct
summation and the *measured* wall time per interaction evaluation — the
accuracy/cost trade-off of the actual Python implementation (no machine
model involved).  The default ``m2l="auto"`` runs every kernel; Laplace
also runs the uncompressed ``dense`` M2L, whose error has no rsvd
tolerance under it.

It also runs the cells of the accuracy contract
(``tests/core/test_accuracy_contract.py``: ``auto`` within 1.2x of
``dense``, and under a ceiling) too heavy for the test suite: p = 10
for the scalar and the plane's kernels, and p = 8 for the 3D tensor
kernels, whose dense M2L there holds 316 operators of 888^2 (2 GB).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import (
    LaplaceKernel,
    ModifiedLaplaceKernel,
    NavierKernel,
    StokesKernel,
)
from repro.kernels.direct import direct_evaluate, relative_error
from repro.util.tables import format_table
from tests.core.test_accuracy_contract import KERNELS as CONTRACT_KERNELS
from tests.core.test_accuracy_contract import RATIO, contract_cells

KERNELS = {
    "laplace": LaplaceKernel(),
    "modified_laplace": ModifiedLaplaceKernel(lam=1.0),
    "stokes": StokesKernel(),
    "navier": NavierKernel(),
}
P_SWEEP = (2, 4, 6, 8, 10)
N = 3000


def _sweep(kernel, m2l="auto"):
    rng = np.random.default_rng(45)
    pts = rng.uniform(-1, 1, size=(N, 3))
    phi = rng.random((N, kernel.source_dof))  # densities in [0,1], as in §4
    sample = rng.choice(N, size=400, replace=False)
    exact = direct_evaluate(kernel, pts[sample], pts, phi)
    rows = []
    for p in P_SWEEP:
        fmm = KIFMM(kernel, FMMOptions(p=p, max_points=60, m2l=m2l))
        fmm.setup(pts)
        t0 = time.perf_counter()
        u = fmm.apply(phi)
        dt = time.perf_counter() - t0
        # subtract the self-interaction the "exact" sampling excludes:
        # both sides exclude coincident pairs, so compare directly
        err = relative_error(u[sample], exact)
        rows.append((p, err, dt))
    return rows


@pytest.mark.parametrize("name", list(KERNELS))
def test_accuracy_sweep(benchmark, name):
    kernel = KERNELS[name]
    rows = benchmark.pedantic(_sweep, args=(kernel,), rounds=1, iterations=1)
    print()
    print(format_table(
        ("p", "rel. error", "eval seconds"),
        rows,
        title=f"Accuracy sweep / {name} (N={N}, vs direct summation)",
    ))
    errs = [r[1] for r in rows]
    assert errs[-1] < errs[0], "error must decrease with p"
    assert errs[2] < 1e-4, "p=6 should deliver the paper's accuracy regime"
    if name == "laplace":
        assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_laplace_dense_sweep(benchmark):
    """Laplace under the dense M2L: the error falls strictly through
    p = 10, with no round-off floor from the inversions."""
    rows = benchmark.pedantic(
        _sweep, args=(LaplaceKernel(), "dense"), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ("p", "rel. error", "eval seconds"),
        rows,
        title=f"Accuracy sweep / laplace, dense M2L (N={N})",
    ))
    errs = [r[1] for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 1e-8


def test_paper_operating_point(benchmark):
    """p=6, s=60, Laplace: the configuration of the paper's experiments."""
    kernel = LaplaceKernel()
    rng = np.random.default_rng(46)
    pts = rng.uniform(-1, 1, size=(5000, 3))
    phi = rng.random((5000, 1))

    fmm = KIFMM(kernel, FMMOptions(p=6, max_points=60)).setup(pts)
    u = benchmark.pedantic(fmm.apply, args=(phi,), rounds=1, iterations=1)
    sample = rng.choice(5000, size=300, replace=False)
    exact = direct_evaluate(kernel, pts[sample], pts, phi)
    err = relative_error(u[sample], exact)
    print(f"\nLaplace p=6 s=60: relative error = {err:.2e} (paper: 1e-5)")
    assert err < 1e-5


#: The contract's heavy cells: ``(p, ceiling)`` per kernel, the ceiling
#: twice the worst measured cell, rounded up.
HEAVY = {
    "laplace": (10, 3e-9),
    "modified_laplace": (10, 3e-9),
    "stokes": (8, 4e-6),
    "navier": (8, 3e-6),
    "laplace2d": (10, 2e-9),
    "stokes2d": (10, 7e-8),
}


@pytest.mark.parametrize("name", list(HEAVY))
def test_contract_heavy_cells(benchmark, name):
    p, ceiling = HEAVY[name]
    cells = benchmark.pedantic(
        contract_cells, args=(CONTRACT_KERNELS[name], p),
        rounds=1, iterations=1,
    )
    print()
    print(format_table(
        ("points", "seed", "density", "auto", "dense", "auto / dense"),
        [(*cell, auto, dense, auto / dense) for cell, auto, dense in cells],
        title=f"Accuracy contract / {name}, p = {p}",
    ))
    assert all(auto <= RATIO * dense for _, auto, dense in cells), cells
    assert all(auto <= ceiling for _, auto, _ in cells), cells
