"""Plan-IR determinism: repeated setups compile to the identical program.

The static verifier is only trustworthy if the IR it certifies is a
stable function of the geometry — per-level buffer shapes, node
schedule and summed flop estimates must be *bitwise* identical across
repeated ``setup()`` calls, not merely equivalent.  A clustered point
cloud plus a ``max_depth`` cap pins the tree depth exactly, so each
depth 3–5 exercises a different level structure.
"""

import numpy as np
import pytest

from repro.analysis.planir import extract_rank_ir
from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.stokes import StokesKernel
from repro.perfmodel.costs import compute_work

DEPTHS = (3, 4, 5)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    cluster = 0.5 + 1e-4 * rng.random((300, 3))
    return np.vstack([cluster, rng.random((300, 3))])


def _fingerprint(ir):
    """Everything the verifier reads, as a bitwise-comparable value."""
    buffers = tuple(
        (name, spec.shape, spec.dtype)
        for name, spec in sorted(ir.buffers.items())
    )
    nodes = tuple(
        (n.name, n.phase, n.kind, n.stage, n.reads, n.writes,
         n.releases, n.flops, n.dtype, n.deps)
        for n in ir.nodes
    )
    return buffers, nodes


def _setup_ir(kernel, points, depth, nrhs, m2l="rsvd"):
    opts = FMMOptions(p=3, max_points=20, max_depth=depth, m2l=m2l)
    fmm = KIFMM(kernel, opts).setup(points)
    assert fmm.tree.depth == depth
    return fmm, extract_rank_ir(fmm.state, nrhs=nrhs)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize(
    "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
)
def test_ir_bitwise_stable_across_setups(kernel, points, depth):
    fmm1, ir1 = _setup_ir(kernel, points, depth, nrhs=1)
    fmm2, ir2 = _setup_ir(kernel, points, depth, nrhs=1)
    assert _fingerprint(ir1) == _fingerprint(ir2)
    assert ir1.flop_totals() == ir2.flop_totals()  # exact, not approx
    assert ir1.live_out == ir2.live_out


@pytest.mark.parametrize("depth", DEPTHS)
def test_resetup_of_one_operator_is_stable(points, depth):
    """setup() called twice on the same KIFMM recompiles identically."""
    kernel = LaplaceKernel()
    opts = FMMOptions(p=3, max_points=20, max_depth=depth, m2l="rsvd")
    fmm = KIFMM(kernel, opts)
    irs = []
    for _ in range(2):
        fmm.setup(points)
        irs.append(extract_rank_ir(fmm.state, nrhs=1))
    assert _fingerprint(irs[0]) == _fingerprint(irs[1])


@pytest.mark.parametrize("depth", DEPTHS)
def test_per_level_buffer_shapes_match_plan(points, depth):
    kernel = LaplaceKernel()
    fmm, ir = _setup_ir(kernel, points, depth, nrhs=1)
    plan, n_surf = fmm.state.plan, fmm.cache.n_surf
    md, qd = kernel.source_dof, kernel.target_dof
    for ul in plan.up_levels:
        assert ir.buffers[f"ue@{ul.level}"].shape == (
            ul.boxes.size, n_surf * md,
        )
        assert ir.buffers[f"check@{ul.level}"].shape == (
            ul.boxes.size, n_surf * qd,
        )
    counts = np.bincount(plan.levels, minlength=plan.depth + 1)
    for dl in plan.down_levels:
        assert ir.buffers[f"dc@{dl.level}"].shape == (
            int(counts[dl.level]), n_surf * qd,
        )
    assert ir.buffers["phi"].dtype == "float64"
    for vl in plan.v_levels:
        assert ir.buffers[f"dc@{vl.level}"].shape == (
            int(counts[vl.level]), n_surf * qd,
        )


@pytest.mark.parametrize("nrhs", [1, 4])
@pytest.mark.parametrize("m2l", ["dense", "rsvd", "auto"])
def test_flop_totals_match_performance_model(points, m2l, nrhs):
    """The summed stage estimates ARE the model volumes — exactly."""
    for kernel in (LaplaceKernel(), StokesKernel()):
        fmm, ir = _setup_ir(kernel, points, 4, nrhs=nrhs, m2l=m2l)
        expected = compute_work(
            fmm.tree, fmm.lists, kernel, fmm.options.p,
            m2l=fmm.m2l_schedule, rsvd_rank=fmm.cache.m2l_rsvd_rank,
            nrhs=nrhs,
        ).totals()
        assert ir.flop_totals() == expected
