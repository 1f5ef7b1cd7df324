"""Targeted tests of the adaptive (W/X) code paths.

A two-scale distribution — a dense micro-cluster next to a sparse
background — guarantees non-empty W and X lists, so these tests fail
loudly if the adaptive translations regress (a uniform distribution
would never exercise them).
"""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import direct_evaluate, relative_error


@pytest.fixture
def two_scale(rng):
    cluster = np.array([0.9, 0.9, 0.9]) + 1e-3 * rng.standard_normal((200, 3))
    background = rng.uniform(-1, 1, size=(300, 3))
    return np.vstack([cluster, background])


def test_w_and_x_lists_are_exercised(rng, two_scale):
    fmm = KIFMM(LaplaceKernel(), FMMOptions(p=6, max_points=25)).setup(two_scale)
    counts = fmm.lists.counts()
    assert counts["W"] > 0 and counts["X"] > 0
    phi = rng.standard_normal((500, 1))
    fmm.apply(phi)
    flops = fmm.flops.by_phase()
    assert flops.get("down_w", 0) > 0
    assert flops.get("down_x", 0) > 0


@pytest.mark.parametrize("m2l", ["dense"])
def test_two_scale_accuracy(rng, two_scale, m2l):
    phi = rng.standard_normal((500, 1))
    fmm = KIFMM(
        LaplaceKernel(), FMMOptions(p=6, max_points=25, m2l=m2l)
    ).setup(two_scale)
    u = fmm.apply(phi)
    exact = direct_evaluate(LaplaceKernel(), two_scale, two_scale, phi)
    assert relative_error(u, exact) < 5e-4


def test_two_scale_vector_kernel(rng, two_scale):
    kernel = StokesKernel()
    phi = rng.standard_normal((500, 3))
    fmm = KIFMM(kernel, FMMOptions(p=6, max_points=25)).setup(two_scale)
    u = fmm.apply(phi)
    exact = direct_evaluate(kernel, two_scale, two_scale, phi)
    assert relative_error(u, exact) < 1e-3


def test_w_contribution_actually_matters(rng, two_scale):
    """Zeroing the cluster's sources must change far potentials via W/X.

    Sanity check that the adaptive lists carry real signal: compare the
    full evaluation against one where the micro-cluster is silenced.
    """
    kernel = LaplaceKernel()
    phi = np.ones((500, 1))
    phi_silenced = phi.copy()
    phi_silenced[:200] = 0.0
    fmm = KIFMM(kernel, FMMOptions(p=6, max_points=25)).setup(two_scale)
    u_full = fmm.apply(phi)
    u_sil = fmm.apply(phi_silenced)
    # background targets see the cluster: significant difference
    assert np.abs(u_full[200:] - u_sil[200:]).max() > 1.0
