"""Hierarchical tree-top reduction tests.

Covers the two tree-top behaviours:

- the owner gather/scatter runs over binomial trees: in the compiled
  programs, at rank counts far beyond execution, the owner of a box
  handles ceil(log2 C) of its messages over C participants, and no rank
  more;
- the coarse levels (fewer boxes than ranks) of a two-cluster tree at
  8 ranks are computed redundantly by every contributor, as in the
  paper, and the run stays correct, race-free, follows its certified
  programs and is statically certified.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.analysis.commir import extract_comm_ir, static_plan_inputs
from repro.core.fmm import FMMOptions
from repro.geometry.distributions import uniform_cube
from repro.kernels import LaplaceKernel
from repro.kernels.direct import direct_evaluate
from repro.parallel.exchange import exchange_tag_families
from repro.parallel.pfmm import ParallelFMM

from tests.conftest import coarse_v_levels


def clustered_points(n_per_corner: int, rng) -> np.ndarray:
    """Two tight opposite-corner clusters: the adaptive tree keeps only
    a couple of boxes per coarse level, so coarse levels (#boxes <
    nranks) with V work appear already at 4-8 simulated ranks."""
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
        # message where it is sent.
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


class TestCoarseSplitRuntime:
    """Two tight clusters at 8 ranks: V level 2 has fewer boxes than
    ranks, and every contributor computes its tree-top V itself."""

    def test_split_result_matches_direct(self, rng):
        pts = clustered_points(120, rng)
        dens = rng.standard_normal(len(pts))
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        op = ParallelFMM(8, kern, opts).setup(pts)
        assert 2 in coarse_v_levels(op.states[0].tree, 8)
        pot = op.apply(dens)
        ref = direct_evaluate(kern, pts, pts, dens)
        err = (
            np.abs(pot[:, 0] - ref[:, 0]).max()
            / np.abs(ref).max()
        )
        assert err < 5e-3

    def test_split_trace_and_race_clean(self, rng):
        """The setup leaves the certified programs on the ranks, and
        every region makes exactly its ops of them (recorded test-side;
        race freedom holds by construction: a message is a value on
        both worlds)."""
        from repro.analysis.commcheck_static import run_checks

        from tests.parallel.recording import (
            assert_regions_follow,
            recorded_runs,
        )

        pts = clustered_points(120, rng)
        dens = rng.standard_normal(len(pts))
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        ir = extract_comm_ir(static_plan_inputs(pts, 8, opts))
        for overlap in (True, False):
            op = ParallelFMM(8, kern, opts, overlap=overlap)
            with recorded_runs() as regions:
                op.setup(pts).apply(dens, schedule_seed=0)
            assert run_checks(ir, states=op.states).ok
            assert_regions_follow(ir, regions)

    def test_split_certifies_statically(self, rng):
        from repro.analysis.plancheck import certify_parallel

        pts = clustered_points(120, rng)
        kern = LaplaceKernel()
        opts = FMMOptions(p=4, max_points=20)
        reports = certify_parallel(kern, pts, opts, 8, nrhs=2)
        assert all(r.ok for r in reports), [
            str(f) for r in reports for f in r.findings
        ]
