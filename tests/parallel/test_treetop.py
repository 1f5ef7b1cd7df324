"""Hierarchical tree-top reduction tests.

Covers the two tentpole behaviours:

- the owner gather/scatter runs over binomial trees: in the compiled
  programs, at rank counts far beyond execution, the owner of a box
  handles ceil(log2 C) of its messages over C participants, and no rank
  more;
- the coarse-level V split (levels with fewer boxes than ranks) must
  activate on clustered distributions, partition the level's V targets
  exactly once across contributor ranks, and stay race-free and
  trace-clean.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.analysis.commir import extract_comm_ir, static_plan_inputs
from repro.core.fmm import FMMOptions
from repro.core.m2lschedule import coarse_split_levels
from repro.geometry.distributions import uniform_cube
from repro.kernels import LaplaceKernel
from repro.kernels.direct import direct_evaluate
from repro.parallel import pfmm
from repro.parallel.exchange import exchange_tag_families
from repro.parallel.partition import partition_points
from repro.parallel.pfmm import ParallelFMM
from repro.parallel.simmpi import run_spmd


def clustered_points(n_per_corner: int, rng) -> np.ndarray:
    """Two tight opposite-corner clusters: the adaptive tree keeps only
    a couple of boxes per coarse level, so the split levels (#boxes <
    nranks) appear already at 4-8 simulated ranks."""
    a = rng.uniform(0.0, 0.12, (n_per_corner, 3))
    b = rng.uniform(0.88, 1.0, (n_per_corner, 3))
    return np.vstack([a, b])


class TestExchangeFanIn:
    """The O(log P) claim on the compiled programs themselves: per
    circulating box, the owner completes exactly ceil(log2 C) gather
    messages over its C gather participants and sends exactly
    ceil(log2 U) scatter messages over its U scatter participants, and
    no rank handles more of that box's messages than the owner does."""

    @staticmethod
    def _points(name):
        rng = np.random.default_rng(0)
        if name == "uniform":
            return uniform_cube(20_000, rng)
        return clustered_points(3_000, rng)

    @pytest.mark.parametrize("nranks", [64, 1024])
    @pytest.mark.parametrize("points", ["uniform", "two-clusters"])
    def test_owner_handles_ceil_log2_messages_per_box(self, points, nranks):
        inputs = static_plan_inputs(
            self._points(points), nranks, FMMOptions(p=4, max_points=60)
        )
        ir = extract_comm_ir(inputs)
        # A gather message is counted where it completes, a scatter
        # message where it is sent (the vsp broadcast only scatters).
        counted = {}
        for kind in ir.roles:
            gather, scatter = exchange_tag_families(kind)
            counted[gather] = (kind, "gather", "complete")
            counted[scatter] = (kind, "scatter", "send")
        per_rank = Counter()
        for rank, program in enumerate(ir.programs):
            for op in program:
                kind, side, counts = counted[op.group]
                if op.kind == counts:
                    per_rank[kind, side, op.ids, rank] += 1
        busiest = defaultdict(int)
        for (kind, side, ids, _), n in per_rank.items():
            busiest[kind, side, ids] = max(busiest[kind, side, ids], n)
        widest = 0
        for kind, boxes in ir.roles.items():
            for ids, (owner, contribs, users) in boxes.items():
                for side, members in (("gather", contribs),
                                      ("scatter", users)):
                    n = len(members | {owner})
                    rounds = (n - 1).bit_length()  # ceil(log2 n)
                    where = (kind, side, ids, n)
                    assert per_rank[kind, side, ids, owner] == rounds, where
                    assert busiest[kind, side, ids] <= rounds, where
                    widest = max(widest, n)
        # Not vacuous: some box spans enough ranks that a star rooted at
        # its owner would take C - 1 > ceil(log2 C) messages there.
        assert widest - 1 > (widest - 1).bit_length()


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
        pot = ParallelFMM(8, kern, opts).setup(pts).apply(dens)
        ref = direct_evaluate(kern, pts, pts, dens)
        err = (
            np.abs(pot[:, 0] - ref[:, 0]).max()
            / np.abs(ref).max()
        )
        assert err < 5e-3

    def test_split_trace_and_race_clean(self, rng):
        from repro.analysis import RaceDetector
        from repro.analysis.commcheck_static import run_checks

        pts = clustered_points(120, rng)
        dens = rng.standard_normal(len(pts))
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        ir = extract_comm_ir(static_plan_inputs(pts, 8, opts))
        assert any(op.group == "vsp" for p in ir.programs for op in p)
        for overlap in (True, False):
            race = RaceDetector()
            op = ParallelFMM(8, kern, opts, overlap=overlap)
            op.setup(pts, trace=race).apply(dens, trace=race)
            assert run_checks(ir, traces=(race,)).ok
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
