"""Hierarchical tree-top reduction tests.

Covers the two tentpole behaviours end to end:

- the ``comm`` option ("tree" binomial collectives vs "flat" direct
  owner gather/scatter) must be *bitwise* invisible in the potentials,
  for Laplace and Stokes, across rank counts, overlap modes and
  multi-RHS widths;
- the coarse-level V split (levels with fewer boxes than ranks) must
  activate on clustered distributions, partition the level's V targets
  exactly once across contributor ranks, and stay race-free and
  trace-clean.
"""

import numpy as np
import pytest

from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import coarse_split_levels
from repro.kernels import LaplaceKernel, StokesKernel
from repro.kernels.direct import direct_evaluate
from repro.parallel import pfmm
from repro.parallel.partition import partition_points
from repro.parallel.pfmm import run_parallel_fmm
from repro.parallel.simmpi import run_spmd


def clustered_points(n_per_corner: int, rng) -> np.ndarray:
    """Two tight opposite-corner clusters: the adaptive tree keeps only
    a couple of boxes per coarse level, so the split levels (#boxes <
    nranks) appear already at 4-8 simulated ranks."""
    a = rng.uniform(0.0, 0.12, (n_per_corner, 3))
    b = rng.uniform(0.88, 1.0, (n_per_corner, 3))
    return np.vstack([a, b])


class TestCommSchemeParity:
    """comm="tree" and comm="flat" must agree to the bit."""

    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_laplace_bitwise(self, nranks, overlap, rng):
        pts = clustered_points(150, rng)
        dens = rng.standard_normal(len(pts))
        kern = LaplaceKernel()
        out = {}
        for scheme in ("tree", "flat"):
            opts = FMMOptions(p=4, max_points=20, comm=scheme)
            out[scheme] = run_parallel_fmm(
                nranks, kern, pts, dens, opts, overlap=overlap
            ).potential
        assert np.array_equal(out["tree"], out["flat"])

    @pytest.mark.parametrize("nrhs", [1, 8])
    def test_stokes_multirhs_bitwise(self, nrhs, rng):
        pts = clustered_points(90, rng)
        kern = StokesKernel()
        dens = (
            rng.standard_normal((len(pts), kern.source_dof))
            if nrhs == 1
            else rng.standard_normal((len(pts), kern.source_dof, nrhs))
        )
        out = {}
        for scheme in ("tree", "flat"):
            opts = FMMOptions(p=4, max_points=20, comm=scheme)
            out[scheme] = run_parallel_fmm(
                4, kern, pts, dens, opts
            ).potential
        assert np.array_equal(out["tree"], out["flat"])

    def test_comm_option_validated(self):
        with pytest.raises(ValueError, match="comm"):
            FMMOptions(comm="ring")


class TestCoarseSplitLevels:
    def test_levels_below_rank_count(self):
        assert coarse_split_levels([1, 8, 64], 16) == frozenset({0, 1})
        assert coarse_split_levels([1, 8, 64], 4) == frozenset({0})
        assert coarse_split_levels([1, 2, 2], 1) == frozenset()
        assert coarse_split_levels([0, 4], 8) == frozenset({1})


class TestCoarseSplitRuntime:
    """The split must engage on clustered inputs and stay correct."""

    def _states(self, rng, nranks=8):
        pts = clustered_points(150, rng)
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        chunks = partition_points(pts, nranks)

        def worker(comm):
            return pfmm.rank_setup(
                comm, kern, pts[chunks[comm.rank]], opts
            )

        return pts, kern, opts, run_spmd(nranks, worker)

    def test_split_activates_and_partitions_exactly(self, rng):
        pts, kern, opts, states = self._states(rng)
        nranks = len(states)
        split = coarse_split_levels(
            np.diff(states[0].tree.topology.level_ptr).tolist(), nranks
        )
        assert split, "clustered fixture no longer has coarse levels"
        # Every rank's bcast schedule must agree box-by-box on the
        # assigned root, and each split box must be computed by exactly
        # that root (run_spmd returns states in rank order).
        box_root: dict[tuple[int, int], int] = {}
        computing: dict[tuple[int, int], list[int]] = {}
        saw_bcast = False
        for r, st in enumerate(states):
            for vl, sp in zip(st.plan.v_levels, st.v_splits):
                if vl.level not in split:
                    assert sp.inv_rows.size == vl.trg_boxes.size
                    assert not sp.bcast
                    continue
                assert not sp.own.classes and not sp.own.rows.size
                for bx, root, parts in sp.bcast:
                    saw_bcast = True
                    assert root in parts
                    key = (vl.level, bx)
                    assert box_root.setdefault(key, root) == root
                for bx in vl.trg_boxes[sp.inv_rows].tolist():
                    computing.setdefault((vl.level, bx), []).append(r)
        assert saw_bcast, "clustered fixture no longer engages the split"
        for key, root in box_root.items():
            assert computing.get(key) == [root]

    def test_v_compute_mask_shape(self, rng):
        pts, kern, opts, states = self._states(rng)
        for st in states:
            assert st.v_compute is not None
            assert st.v_compute.shape == (st.tree.nboxes,)
            assert st.v_compute.dtype == np.bool_

    def test_split_result_matches_direct(self, rng):
        pts = clustered_points(120, rng)
        dens = rng.standard_normal(len(pts))
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        res = run_parallel_fmm(8, kern, pts, dens, opts)
        ref = direct_evaluate(kern, pts, pts, dens)
        err = (
            np.abs(res.potential[:, 0] - ref[:, 0]).max()
            / np.abs(ref).max()
        )
        assert err < 5e-3

    def test_split_trace_and_race_clean(self, rng):
        from repro.analysis import CommTrace, RaceDetector, check_trace

        pts = clustered_points(120, rng)
        dens = rng.standard_normal(len(pts))
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        for overlap in (True, False):
            trace = CommTrace()
            race = RaceDetector()
            res = run_parallel_fmm(
                8, kern, pts, dens, opts,
                trace=trace, overlap=overlap, race=race,
            )
            assert check_trace(trace, res.comm_stats).ok
            assert race.report().ok

    def test_split_certifies_statically(self, rng):
        from repro.analysis.plancheck import certify_parallel

        pts = clustered_points(120, rng)
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        reports = certify_parallel(kern, pts, opts, 8, nrhs=2)
        assert all(r.ok for r in reports), [
            str(f) for r in reports for f in r.findings
        ]

    def test_split_ir_has_vsp_nodes(self, rng):
        from repro.analysis.plancheck import rank_states
        from repro.analysis.planir import extract_rank_ir

        pts = clustered_points(120, rng)
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        states = rank_states(kern, pts, opts, 8)
        names = {
            n.name
            for st in states
            for n in extract_rank_ir(st, nrhs=1, overlap=True).nodes
        }
        assert any(n.startswith("post:vsp@") for n in names)
        assert any(n.startswith("wait:vsp@") for n in names)
