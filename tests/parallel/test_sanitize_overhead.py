"""Sanitized parallel applies: clean, exact, and cheap.

Acceptance bar of the sanitizer suite: the full Laplace and Stokes
parallel applies run clean under ``FMMOptions.sanitize`` at 1, 2 and 4
ranks, produce bit-identical potentials to the unsanitized run, and the
sanitized wall-clock stays under 2x the unsanitized one.
"""

import time

import numpy as np
import pytest

from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel, StokesKernel
from repro.parallel.pfmm import ParallelFMM

from tests.conftest import clustered_cloud


CASES = [
    pytest.param(LaplaceKernel(), 1, id="laplace-1"),
    pytest.param(LaplaceKernel(), 2, id="laplace-2"),
    pytest.param(LaplaceKernel(), 4, id="laplace-4"),
    pytest.param(StokesKernel(), 1, id="stokes-1"),
    pytest.param(StokesKernel(), 2, id="stokes-2"),
    pytest.param(StokesKernel(), 4, id="stokes-4"),
]


@pytest.mark.parametrize("kernel, nranks", CASES)
def test_sanitized_parallel_apply_is_clean_and_exact(rng, kernel, nranks):
    pts = clustered_cloud(rng, 400)
    phi = rng.standard_normal((400, kernel.source_dof))
    opts = FMMOptions(p=4, max_points=30)
    plain = ParallelFMM(nranks, kernel, opts).setup(pts).apply(phi)
    sanitized = ParallelFMM(
        nranks, kernel, FMMOptions(p=4, max_points=30, sanitize=True)
    ).setup(pts).apply(phi)
    assert np.isfinite(sanitized).all()
    assert np.array_equal(plain, sanitized), (
        "sanitizers must observe, never perturb"
    )


def test_sanitizer_overhead_under_two_x(rng):
    """Wall-clock bound on the 4-rank overlapped Laplace apply.

    Takes the best of three runs per mode so thread-scheduling noise
    in the simulated-MPI runtime does not dominate the ratio.
    """
    pts = clustered_cloud(rng, 600)
    phi = rng.standard_normal((600, 1))

    def best_of(opts):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with ParallelFMM(4, LaplaceKernel(), opts) as op:
                op.setup(pts)
                op.apply(phi)
                op.apply(phi)
            times.append(time.perf_counter() - start)
        return min(times)

    plain = best_of(FMMOptions(p=4, max_points=30))
    sanitized = best_of(FMMOptions(p=4, max_points=30, sanitize=True))
    assert sanitized < 2.0 * plain, (
        f"sanitized {sanitized:.3f}s vs plain {plain:.3f}s "
        f"({sanitized / plain:.2f}x, bound 2x)"
    )
