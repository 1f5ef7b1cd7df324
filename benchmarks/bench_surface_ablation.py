"""Ablation: equivalent/check surface radii and inversion regularisation.

DESIGN.md's design choices 1 and 2: the surfaces sit at ``inner = 1.05``
and ``outer = 2.95`` box half-widths (the kifmm3d constants), and the
first-kind density solves use a truncated-SVD pseudo-inverse with
relative cutoff ``rcond``, applied as its two factors.  This bench
sweeps both and measures the resulting end-to-end accuracy — evidence
for the defaults.  ``rcond`` is not an :class:`FMMOptions` field, so the
sweep passes it to the :class:`OperatorCache` it sets up with; it varies
the inversion cutoff only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.error import estimate_error
from repro.core.fmm import FMMOptions, KIFMM
from repro.core.precompute import OperatorCache
from repro.kernels import LaplaceKernel
from repro.util.tables import format_table

N = 2500


def _error_for(inner, outer, rcond):
    rng = np.random.default_rng(51)
    pts = rng.uniform(-1, 1, size=(N, 3))
    phi = rng.random((N, 1))
    kernel = LaplaceKernel()
    cache = OperatorCache(kernel, 6, 2.0, inner=inner, outer=outer, rcond=rcond)
    fmm = KIFMM(
        kernel, FMMOptions(p=6, max_points=50, inner=inner, outer=outer),
    ).setup(pts, cache=cache)
    return estimate_error(fmm, phi, nsamples=200, rng=rng)


def test_radius_sweep(benchmark):
    configs = [
        (1.05, 2.95),  # the kifmm3d defaults
        (1.05, 1.30),  # check surface far too tight
        (1.30, 2.95),  # looser equivalent surface
        (1.80, 2.20),  # both mid-range
    ]

    def sweep():
        return [(i, o, _error_for(i, o, 1e-12)) for i, o in configs]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ("inner", "outer", "rel. error"),
        rows,
        title=f"surface radius ablation (Laplace, p=6, N={N})",
    ))
    errs = {(i, o): e for i, o, e in rows}
    # the default well-separated pair beats a nearly-coincident pair
    assert errs[(1.05, 2.95)] < errs[(1.05, 1.30)]
    assert errs[(1.05, 2.95)] < 1e-5


def test_rcond_sweep(benchmark):
    rconds = (1e-4, 1e-8, 1e-12, 1e-15)

    def sweep():
        return [(rc, _error_for(1.05, 2.95, rc)) for rc in rconds]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(
        ("rcond", "rel. error"),
        rows,
        title=f"pseudo-inverse regularisation ablation (Laplace, p=6, N={N})",
    ))
    errs = dict(rows)
    # over-truncation hurts; the default is in the flat optimum
    assert errs[1e-12] < errs[1e-4]
    assert errs[1e-12] < 1e-5
