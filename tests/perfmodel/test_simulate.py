"""Scalability simulation tests."""

import numpy as np
import pytest

from repro.kernels import LaplaceKernel, StokesKernel
from repro.octree import build_lists, build_tree
from repro.perfmodel import (
    TCS1,
    project_scaling,
    simulate_run,
    simulate_tree_time,
    tree_top_model,
)
from repro.perfmodel.costs import compute_work
from repro.perfmodel.experiments import fixed_size_scaling, isogranular_scaling
from repro.perfmodel.metrics import (
    cycles_per_particle,
    flop_rate_efficiency,
    mflops_per_processor,
    work_efficiency,
)
from repro.perfmodel.simulate import coarse_split_levels

from tests.conftest import clustered_cloud, uniform_cloud


@pytest.fixture(scope="module")
def setup_tree():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1, 1, size=(4000, 3))
    tree = build_tree(pts, max_points=40)
    lists = build_lists(tree)
    kernel = LaplaceKernel()
    work = compute_work(tree, lists, kernel, 4)
    return tree, lists, kernel, work


class TestSimulateRun:
    def test_flop_conservation_p1(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        r = simulate_run(tree, lists, kernel, 4, 1, TCS1, work=work)
        assert r.total_flops == pytest.approx(work.total)
        assert r.comm == 0.0
        assert r.ratio == pytest.approx(1.0)

    def test_redundant_work_grows_with_p(self, setup_tree):
        """Shared near-root boxes are recomputed by each contributor."""
        tree, lists, kernel, work = setup_tree
        r1 = simulate_run(tree, lists, kernel, 4, 1, TCS1, work=work)
        r8 = simulate_run(tree, lists, kernel, 4, 8, TCS1, work=work)
        assert r8.total_flops > r1.total_flops
        assert r8.total_flops < 1.5 * r1.total_flops  # but only mildly

    def test_speedup(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        totals = [
            simulate_run(tree, lists, kernel, 4, P, TCS1, work=work).total
            for P in (1, 4, 16)
        ]
        assert totals[0] > totals[1] > totals[2]
        assert totals[0] / totals[1] > 3.0  # decent parallel efficiency

    def test_communication_appears(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        r = simulate_run(tree, lists, kernel, 4, 8, TCS1, work=work)
        assert r.comm > 0.0

    def test_grain_scale(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        r1 = simulate_run(tree, lists, kernel, 4, 4, TCS1, work=work)
        r2 = simulate_run(tree, lists, kernel, 4, 4, TCS1, work=work,
                          grain_scale=2.0)
        assert r2.total_flops == pytest.approx(2 * r1.total_flops)

    def test_report_properties(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        r = simulate_run(tree, lists, kernel, 4, 4, TCS1, work=work)
        assert r.ratio >= 1.0
        assert r.total == pytest.approx(r.rank_seconds.mean())
        assert r.gflops_peak >= r.gflops_avg > 0
        assert r.up + r.down == pytest.approx(
            sum(r.phase_seconds[p] for p in
                ("up", "down_u", "down_v", "down_w", "down_x", "eval"))
        )

    def test_rejects_bad_args(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        with pytest.raises(ValueError):
            simulate_run(tree, lists, kernel, 4, 0, TCS1, work=work)
        with pytest.raises(ValueError):
            simulate_run(tree, lists, kernel, 4, 2, TCS1, work=work,
                         grain_scale=0.0)

    def test_nonuniform_has_higher_ratio(self):
        rng = np.random.default_rng(7)
        kernel = LaplaceKernel()
        uni = build_tree(uniform_cloud(rng, 3000), max_points=40)
        clu = build_tree(clustered_cloud(rng, 3000), max_points=40)
        r_uni = simulate_run(uni, build_lists(uni), kernel, 4, 32, TCS1)
        r_clu = simulate_run(clu, build_lists(clu), kernel, 4, 32, TCS1)
        assert r_clu.ratio > r_uni.ratio  # the paper's load-imbalance effect


class TestTreeTime:
    def test_serial_has_no_gather(self, setup_tree):
        tree, _, _, _ = setup_tree
        t1 = simulate_tree_time(tree, 1, TCS1)
        assert t1 == pytest.approx(
            TCS1.tree_local_per_particle * tree.sources.shape[0]
        )

    def test_local_work_parallelises(self, setup_tree):
        tree, _, _, _ = setup_tree
        t2 = simulate_tree_time(tree, 2, TCS1)
        t64 = simulate_tree_time(tree, 64, TCS1)
        assert t64 < t2

    def test_gather_floor_at_scale(self, setup_tree):
        """The serial patch gather bounds tree time from below (the
        paper's 'does not scale beyond 1024 processors')."""
        tree, _, _, _ = setup_tree
        n = tree.sources.shape[0]
        gather = n * 24.0 / TCS1.bandwidth
        t4096 = simulate_tree_time(tree, 4096, TCS1)
        assert t4096 >= gather


class TestCoarseSplitLevels:
    def test_levels_below_rank_count(self):
        assert coarse_split_levels([1, 8, 64], 16) == frozenset({0, 1})
        assert coarse_split_levels([1, 8, 64], 4) == frozenset({0})
        assert coarse_split_levels([1, 2, 2], 1) == frozenset()
        assert coarse_split_levels([0, 4], 8) == frozenset({1})


class TestTreeTopModel:
    def test_message_total_conserved(self, setup_tree):
        """A binomial tree over C participants has exactly C-1 edges, so
        both schemes move the same number of messages in total."""
        tree, lists, kernel, work = setup_tree
        for P in (8, 64, 512):
            pt = tree_top_model(tree, lists, kernel, 4, P, TCS1, work=work)
            assert pt.total_msgs > 0
            assert pt.shared_boxes > 0

    def test_fanin_flat_linear_tree_logarithmic(self, setup_tree):
        """Worst per-rank message count: O(P) flat vs a log P plateau."""
        tree, lists, kernel, work = setup_tree
        pts = [
            tree_top_model(tree, lists, kernel, 4, P, TCS1, work=work)
            for P in (64, 256, 1024, 4096)
        ]
        flat = [pt.flat_max_rank_msgs for pt in pts]
        hier = [pt.tree_max_rank_msgs for pt in pts]
        # flat fan-in grows like P (64x more ranks -> >10x more
        # messages on the critical rank); tree fan-in stays near-flat
        assert flat[-1] > 10 * flat[0]
        assert hier[-1] < 4 * hier[0]
        assert hier[-1] < flat[-1] / 5

    def test_split_levels_appear_at_scale(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        small = tree_top_model(tree, lists, kernel, 4, 2, TCS1, work=work)
        big = tree_top_model(tree, lists, kernel, 4, 1024, TCS1, work=work)
        assert len(big.split_levels) > len(small.split_levels)
        # the split replaces redundant coarse V work with one compute +
        # a log-depth broadcast: strictly cheaper once the redundant
        # compute on the critical rank outweighs the broadcast latency
        assert big.v_redundant_seconds > 0
        assert big.v_split_seconds < big.v_redundant_seconds

    def test_point_totals_consistent(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        pt = tree_top_model(tree, lists, kernel, 4, 128, TCS1, work=work)
        assert pt.flat_total == pytest.approx(
            pt.flat_seconds + pt.v_redundant_seconds
        )
        assert pt.tree_total == pytest.approx(
            pt.tree_seconds + pt.v_split_seconds
        )
        assert pt.speedup == pytest.approx(pt.flat_total / pt.tree_total)

    def test_serial_is_trivial(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        pt = tree_top_model(tree, lists, kernel, 4, 1, TCS1, work=work)
        assert pt.shared_boxes == 0
        assert pt.flat_total == 0.0 and pt.tree_total == 0.0

    def test_rejects_bad_p(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        with pytest.raises(ValueError):
            tree_top_model(tree, lists, kernel, 4, 0, TCS1, work=work)


class TestProjectScaling:
    def test_report_structure_and_acceptance(self, setup_tree):
        tree, lists, kernel, _ = setup_tree
        rep = project_scaling(tree, lists, kernel, 4, TCS1, max_ranks=4096)
        Ps = [pt["P"] for pt in rep["points"]]
        assert Ps == [2 ** k for k in range(1, 13)]
        # hierarchical must win well before the top of the sweep...
        assert rep["crossover_rank"] is not None
        assert rep["crossover_rank"] <= 256
        # ...and by the paper-scale margin at the top (the acceptance
        # criterion: >= 5x at 4096 ranks on what the exchange shape
        # changes, the busiest rank's messages and the exchange's
        # critical-rank seconds).  The star's owners are the balanced
        # owners the ranks agree on; the coarse V work, which the shape
        # leaves alone, holds the whole tree top's improvement to > 4x.
        last = rep["points"][-1]
        assert rep["msgs_flat_at_max"] >= 5 * rep["msgs_tree_at_max"]
        assert last["flat_seconds"] >= 5.0 * last["tree_seconds"]
        assert rep["speedup_at_max"] >= 4.0
        assert rep["msgs_tree_at_max"] < rep["msgs_flat_at_max"]

    def test_monotone_speedup_trend(self, setup_tree):
        tree, lists, kernel, _ = setup_tree
        rep = project_scaling(tree, lists, kernel, 4, TCS1, max_ranks=1024)
        sp = [pt["speedup"] for pt in rep["points"]]
        # not required to be strictly monotone, but the tail must beat
        # the head decisively
        assert sp[-1] > sp[0]

    def test_rejects_bad_max_ranks(self, setup_tree):
        tree, lists, kernel, _ = setup_tree
        with pytest.raises(ValueError):
            project_scaling(tree, lists, kernel, 4, TCS1, max_ranks=1)


class TestMetrics:
    def test_cycles_per_particle(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        r = simulate_run(tree, lists, kernel, 4, 4, TCS1, work=work)
        c = cycles_per_particle(r, TCS1)
        assert c["total"] > 0
        assert c["total"] == pytest.approx(
            sum(v for k, v in c.items() if k not in ("total",)), rel=1e-6
        )

    def test_efficiencies(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        r1 = simulate_run(tree, lists, kernel, 4, 1, TCS1, work=work)
        r8 = simulate_run(tree, lists, kernel, 4, 8, TCS1, work=work)
        we = work_efficiency(r1, r8)
        fe = flop_rate_efficiency(r1, r8)
        assert 0.0 < we <= 1.01
        assert 0.0 < fe <= 1.3
        with pytest.raises(ValueError):
            work_efficiency(r8, r1)

    def test_mflops_per_processor(self, setup_tree):
        tree, lists, kernel, work = setup_tree
        r = simulate_run(tree, lists, kernel, 4, 4, TCS1, work=work)
        rates = mflops_per_processor(r)
        assert rates["max"] >= rates["min"] > 0
        assert rates["peak"] >= rates["avg"]


class TestExperiments:
    def test_fixed_size_driver(self, rng):
        pts = uniform_cloud(rng, 2000)
        reports = fixed_size_scaling(
            LaplaceKernel(), pts, [1, 4, 16], p=4, max_points=40
        )
        assert [r.P for r in reports] == [1, 4, 16]
        assert reports[0].total > reports[2].total

    def test_isogranular_driver(self, rng):
        reports = isogranular_scaling(
            StokesKernel(),
            lambda n: np.random.default_rng(1).uniform(-1, 1, (n, 3)),
            grain=2000,
            P_list=[1, 4],
            p=4,
            max_points=40,
            model_cap=4000,
        )
        assert reports[0].N == 2000
        assert reports[1].N == 8000
        # isogranular: per-rank time bounded (at these tiny sizes the tree
        # depth jump still changes per-particle work noticeably)
        assert 0.2 < reports[1].total / reports[0].total < 8.0
