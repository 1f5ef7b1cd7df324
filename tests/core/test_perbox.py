"""The planned apply against the per-box oracle at the default order.

The parity suites compare the two at ``p = 4``, where a fixed 1e-12
holds.  This is the check at the method's defaults (``p = 6``), with a
tolerance that follows the conditioning instead of a constant.
"""

import numpy as np
import pytest

from repro.core.fmm import KIFMM
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import relative_error

from tests.core.perbox import PerBoxFMM


def roundoff_bound(fmm: KIFMM) -> float:
    """How far two correct evaluators of ``fmm`` may sit apart.

    The planned and the per-box path sum the same terms in different
    orders, and every difference of one ulp in a check potential passes
    through the ``uc2ue`` / ``dc2de`` inversions, whose kept spectrum
    has a condition number that grows with ``p`` (Laplace 2e5 / 1e9 /
    3e11 and Stokes 5e5 / 2e10 / 9e11 at p = 4 / 6 / 8), read here off
    the factors: the rows of ``w = vt / s`` have norms ``1 / s``.
    Applied as those two factors, the inversions keep the amplified
    round-off in the small singular directions the next evaluation
    damps.  Measured over p in {4, 6, 8}, rcond in {1e-12, 1e-9, 1e-6}
    and both kernels at N = 2k, and at p = 6 at N = 20k, the
    disagreement is at most 2e-5 x eps x that condition number (1e-15
    to 1.4e-12 in absolute terms), so the bound is 1e-4 x eps x cond.
    A gating difference would show at the method's own truncation error
    (1e-7 Laplace, 1e-5 Stokes at p = 6) or far above it.
    """
    _, w = fmm.cache.uc2ue(0)
    inv_s = np.linalg.norm(w, axis=1)
    cond = inv_s.max() / inv_s.min()
    return float(1e-4 * np.finfo(np.float64).eps * cond)


@pytest.mark.parametrize(
    "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
)
def test_planned_and_per_box_agree_to_conditioned_roundoff(kernel):
    rng = np.random.default_rng(2003)
    pts = rng.random((2000, 3))
    phi = rng.standard_normal((2000, kernel.source_dof))
    fmm = KIFMM(kernel).setup(pts)
    oracle = PerBoxFMM(kernel).setup(pts, cache=fmm.cache)
    assert oracle.m2l_schedule.describe() == fmm.m2l_schedule.describe()
    bound = roundoff_bound(fmm)
    assert 1e-12 < bound < 1e-5  # below the truncation error, above 1e-12
    assert relative_error(fmm.apply(phi), oracle.apply(phi)) < bound
