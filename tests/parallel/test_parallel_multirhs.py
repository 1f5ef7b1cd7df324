"""Multi-RHS blocks through the parallel path: one exchange, nrhs columns.

The parallel tentpole claims: a stacked density block rides a single
overlapped exchange per apply (wider rows, same message count), every
column of the blocked result matches the corresponding single-RHS
parallel apply to strict round-off (≤1e-12) on ranks 1/2/4 with overlap
on and off, the overlap flag still changes no bit of the blocked
result, and the certified invariants (race freedom, clean traces,
schedule independence) hold for blocked applies exactly as for single
ones.  The persistent operator applies on rank processes beyond one
rank; ``apply_on_both`` pins each block to the rank threads' bits.
"""

import numpy as np
import pytest

from repro.analysis.commcheck_static import run_checks
from repro.analysis.commir import extract_comm_ir, static_plan_inputs
from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import relative_error
from repro.parallel import ParallelFMM
from repro.parallel.simmpi import CommStats

from tests.conftest import clustered_cloud, uniform_cloud
from tests.core.perbox import PerBoxFMM
from tests.parallel.recording import assert_regions_follow, recorded_runs
from tests.parallel.transports import apply_on_both

KERNELS = {
    "laplace": (LaplaceKernel(), 700, 30),
    "stokes": (StokesKernel(mu=0.7), 500, 35),
}


def _block_parity(op, block, nrhs):
    out = apply_on_both(op, block)
    assert out.shape == block.shape[:2] + (nrhs,)
    for r in range(nrhs):
        single = op.apply(np.ascontiguousarray(block[:, :, r]))
        assert single.ndim == 2
        assert relative_error(out[:, :, r], single) < 1e-12
    return out


@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("kname", ["laplace", "stokes"])
def test_blocked_columns_match_single_applies(rng, kname, nranks):
    kern, n, mp = KERNELS[kname]
    pts = clustered_cloud(rng, n)
    block = rng.standard_normal((n, kern.source_dof, 4))
    op = ParallelFMM(nranks, kern, FMMOptions(p=4, max_points=mp)).setup(pts)
    _block_parity(op, block, 4)


@pytest.mark.parametrize("nranks", [2, 4])
@pytest.mark.parametrize("kname", ["laplace", "stokes"])
def test_blocked_overlap_on_off_bitwise_identical(rng, kname, nranks):
    kern, n, mp = KERNELS[kname]
    pts = uniform_cloud(rng, n)
    block = rng.standard_normal((n, kern.source_dof, 3))
    opts = FMMOptions(p=4, max_points=mp)
    on = ParallelFMM(nranks, kern, opts, overlap=True).setup(pts)
    off = ParallelFMM(nranks, kern, opts, overlap=False).setup(pts)
    out_on = _block_parity(on, block, 3)
    out_off = apply_on_both(off, block)
    assert np.array_equal(out_on, out_off)


def test_blocked_apply_matches_sequential_block(rng):
    kern, n, mp = KERNELS["stokes"]
    pts = clustered_cloud(rng, n)
    block = rng.standard_normal((n, 3, 4))
    opts = FMMOptions(p=4, max_points=mp)
    seq = KIFMM(kern, opts).setup(pts).apply(block)
    par = ParallelFMM(2, kern, opts).setup(pts).apply(block)
    assert par.shape == (n, 3, 4)
    assert relative_error(par, seq) < 1e-9


def test_blocked_apply_matches_per_box_column_loop(rng):
    """The per-box reference loops columns; the planned block must agree."""
    kern, n, mp = KERNELS["laplace"]
    pts = uniform_cloud(rng, 400)
    block = rng.standard_normal((400, 1, 3))
    opts = FMMOptions(p=4, max_points=mp)
    seq = KIFMM(kern, opts).setup(pts).apply(block)
    ref = PerBoxFMM(kern, opts).setup(pts).apply(block)
    par = ParallelFMM(2, kern, opts).setup(pts).apply(block)
    assert par.shape == (400, 1, 3)
    assert relative_error(par, seq) < 1e-12
    assert relative_error(par, ref) < 1e-9


def test_block_matvec_is_reshape_of_stacked_apply(rng):
    kern, n, mp = KERNELS["stokes"]
    pts = uniform_cloud(rng, n)
    op = ParallelFMM(2, kern, FMMOptions(p=4, max_points=mp)).setup(pts)
    block = rng.standard_normal((n, 3, 4))
    out = op.apply(block)
    mv = op.matvec(block.reshape(3 * n, 4))
    assert mv.shape == (3 * n, 4)
    assert np.array_equal(mv, out.reshape(3 * n, 4))
    flat_single = op.matvec(block[:, :, 0].ravel())
    assert flat_single.shape == (3 * n,)


def test_blocked_exchange_message_count_matches_single(rng):
    """The whole block rides ONE exchange: same message count, wider rows."""
    kern, n, mp = KERNELS["laplace"]
    pts = clustered_cloud(rng, n)
    opts = FMMOptions(p=4, max_points=mp)

    def traffic(density):
        op = ParallelFMM(4, kern, opts).setup(pts)
        op.apply(density)
        total = CommStats.total(op.comm_stats)
        return total.messages_sent, total.bytes_sent

    single_msgs, single_bytes = traffic(rng.standard_normal((n, 1)))
    block_msgs, block_bytes = traffic(rng.standard_normal((n, 1, 8)))
    assert block_msgs == single_msgs
    assert block_bytes > single_bytes  # wider payloads, not more messages


def test_blocked_apply_race_free_and_trace_clean(rng):
    """Certification invariants hold for multi-RHS overlapped applies:
    the setup leaves the certified programs on the ranks and each block
    apply makes exactly their apply ops (recorded test-side; race
    freedom holds by construction: a message is a value on both
    worlds)."""
    kern, n, mp = KERNELS["laplace"]
    pts = uniform_cloud(rng, 400)
    block = rng.standard_normal((400, 1, 3))
    opts = FMMOptions(p=4, max_points=mp)
    ir = extract_comm_ir(static_plan_inputs(pts, 4, opts))
    for overlap in (True, False):
        op = ParallelFMM(4, kern, opts, overlap=overlap)
        with recorded_runs() as regions:
            op.setup(pts, schedule_seed=3)
            for _ in range(2):
                op.apply(block, schedule_seed=3)
        assert len(regions) == 3
        assert run_checks(ir, states=op.states).ok
        assert_regions_follow(ir, regions)


def test_blocked_schedule_independence(rng):
    kern, n, mp = KERNELS["laplace"]
    pts = clustered_cloud(rng, 400)
    block = rng.standard_normal((400, 1, 3))
    opts = FMMOptions(p=4, max_points=mp)
    results = [
        ParallelFMM(4, kern, opts).setup(pts, schedule_seed=s).apply(
            block, schedule_seed=s
        )
        for s in (0, 1, 2)
    ]
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


def test_sanitized_blocked_apply(rng):
    kern, n, mp = KERNELS["laplace"]
    pts = uniform_cloud(rng, 400)
    block = rng.standard_normal((400, 1, 3))
    opts = FMMOptions(p=4, max_points=mp, sanitize=True)
    pot = ParallelFMM(2, kern, opts).setup(pts).apply(block)
    assert np.isfinite(pot).all()


def test_varying_nrhs_across_applies_reuses_states(rng):
    """One persistent operator serves blocks of different widths in turn."""
    kern, n, mp = KERNELS["laplace"]
    pts = uniform_cloud(rng, 400)
    op = ParallelFMM(2, kern, FMMOptions(p=4, max_points=mp)).setup(pts)
    wide = op.apply(rng.standard_normal((400, 1, 8)))
    narrow_block = rng.standard_normal((400, 1, 2))
    narrow = op.apply(narrow_block)
    assert wide.shape == (400, 1, 8) and narrow.shape == (400, 1, 2)
    single = op.apply(np.ascontiguousarray(narrow_block[:, :, 1]))
    assert relative_error(narrow[:, :, 1], single) < 1e-12
