"""The static plan verifier: clean on real plans, loud on seeded defects.

Two properties carry the certification's weight: every CI plan
configuration must certify with zero findings (there is no waiver
mechanism), and each seeded defect must be caught by *exactly* the
intended check — a checker that flags everything, or nothing, fails
here.  A third pillar ties statics to dynamics: the IR's flop totals
equal a real apply's measured counter bit for bit.
"""

import numpy as np
import pytest

from repro.analysis.plancheck import (
    SEEDS,
    certify_parallel,
    rank_ir,
    rank_states,
    run_checks,
    run_selftests,
    seed_dead_store,
    seed_narrowed_dtype,
    seed_reordered_wait,
)
from repro.analysis.planir import extract_rank_ir
from repro.core.evaluator import PlanStages
from repro.core.fmm import FMMOptions, KIFMM
from repro.kernels.laplace import LaplaceKernel
from repro.kernels.stokes import StokesKernel
from repro.parallel import ParallelFMM

from tests.conftest import coarse_v_levels


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    return rng.random((600, 3))


@pytest.fixture(scope="module")
def parallel_ir(points):
    """One rank's IR (+expected flops) of an overlapped 2-rank setup."""
    opts = FMMOptions(p=4, max_points=40, m2l="rsvd")
    return rank_ir(rank_states(LaplaceKernel(), points, opts, 2)[0])


@pytest.mark.parametrize(
    "m2l,dtype",
    [("dense", "float64"), ("rsvd", "float64"), ("rsvd", "float32"),
     ("auto", "float64")],
)
@pytest.mark.parametrize(
    "kernel", [LaplaceKernel(), StokesKernel()], ids=["laplace", "stokes"]
)
def test_sequential_certifies_clean(kernel, points, m2l, dtype):
    opts = FMMOptions(p=4, max_points=40, m2l=m2l, dtype=dtype)
    fmm = KIFMM(kernel, opts).setup(points)
    for nrhs in (1, 8):
        # The sequential operator certifies as its one-rank state.
        report = run_checks(*rank_ir(fmm.state, nrhs=nrhs))
        assert report.ok, [str(f) for f in report.findings]
        assert set(report.counts) == {
            "dataflow", "types", "schedule", "flops",
        }
        assert all(d == 0.0 for d in report.flop_deltas().values())


@pytest.mark.parametrize("overlap", [True, False], ids=["ov-on", "ov-off"])
@pytest.mark.parametrize("nranks", [2, 4])
def test_parallel_certifies_clean(points, nranks, overlap):
    opts = FMMOptions(p=4, max_points=40, m2l="rsvd")
    reports = certify_parallel(
        LaplaceKernel(), points, opts, nranks, overlap=overlap,
    )
    assert len(reports) == nranks
    for report in reports:
        assert report.ok, [str(f) for f in report.findings]


@pytest.mark.parametrize(
    "m2l,dtype", [("rsvd", "float64"), ("rsvd", "float32"),
                  ("auto", "float64")],
)
def test_parallel_certifies_rsvd_and_auto(points, m2l, dtype):
    """Compressed and mixed per-level schedules certify rank by rank."""
    opts = FMMOptions(p=4, max_points=40, m2l=m2l, dtype=dtype)
    reports = certify_parallel(LaplaceKernel(), points, opts, 2)
    assert len(reports) == 2
    for report in reports:
        assert report.ok, [str(f) for f in report.findings]


@pytest.fixture
def compiled(monkeypatch):
    """Every step list ``PlanStages.compile`` hands out, as
    ``(plan, names of the steps that have run since)``."""
    log = []
    compile_ = PlanStages.compile

    def spy(self, *args, **kwargs):
        program = compile_(self, *args, **kwargs)
        ran = []
        for step in program.steps:
            def run(bufs, run=step.run, name=step.name):
                ran.append(name)
                run(bufs)
            step.run = run
        log.append((self.plan, ran))
        return program

    monkeypatch.setattr(PlanStages, "compile", spy)
    return log


def test_ir_flops_match_measured_apply(points, compiled):
    """The IR is the step list a real apply runs, flop for flop.

    Drivers and extractors obtain the step list from the same function:
    the executed step names equal the IR node names in order, and the
    static totals equal the dynamic FlopCounter of the apply.  The
    sequential plan, and every rank of a 2- and a 4-rank operator.  The
    4-rank operators run on two tight opposite-corner clusters, whose
    two boxes per coarse level leave V level 2 with fewer boxes than
    ranks: every contributor computes it.
    """
    rng = np.random.default_rng(11)
    clusters = np.vstack([
        rng.uniform(0.0, 0.12, (150, 3)), rng.uniform(0.88, 1.0, (150, 3))
    ])

    def assert_equal(plan, extract, flops):
        # Setup compiled once to build the operators; the apply ran its own.
        built, ran = [names for p, names in compiled if p is plan]
        ir = extract()
        # The extractor compiled through the same function and ran nothing.
        assert [names for p, names in compiled if p is plan] == [built, ran, []]
        assert built == []
        assert [n.name for n in ir.nodes[1:-1]] == ran
        totals = ir.flop_totals()
        assert sum(totals.values()) > 0
        measured = flops.by_phase()
        for phase, total in totals.items():
            assert total == measured.get(phase, 0.0)  # bitwise

    for kernel in (LaplaceKernel(), StokesKernel()):
        for m2l in ("dense", "rsvd", "auto"):
            opts = FMMOptions(p=4, max_points=40, m2l=m2l)
            phi = rng.standard_normal(points.shape[0] * kernel.source_dof)
            fmm = KIFMM(kernel, opts).setup(points)
            fmm.apply(phi)
            assert_equal(
                fmm.state.plan, lambda: extract_rank_ir(fmm.state, nrhs=1),
                fmm.flops,
            )
            for nranks, pts, s in ((2, points, 40), (4, clusters, 20)):
                opts = FMMOptions(p=4, max_points=s, m2l=m2l)
                op = ParallelFMM(nranks, kernel, opts).setup(pts)
                # The spy sees this process: a thread-world apply (the
                # rank processes' flops are pinned to these in
                # tests/parallel/test_transports.py).
                op.apply(
                    rng.standard_normal(pts.shape[0] * kernel.source_dof),
                    schedule_seed=0,
                )
                for state in op.states:
                    assert_equal(
                        state.plan, lambda: extract_rank_ir(state, nrhs=1),
                        state.flops,
                    )
                coarse = coarse_v_levels(op.states[0].tree, nranks)
                assert bool(coarse) == (nranks == 4)


def test_seeded_wait_reorder_caught_by_schedule_only(parallel_ir):
    ir, expected = parallel_ir
    report = run_checks(seed_reordered_wait(ir), expected)
    assert not report.ok
    assert {f.check for f in report.findings} == {"schedule"}
    assert any("happens-before" in f.message for f in report.findings)


def test_seeded_narrowing_caught_by_types_only(parallel_ir):
    ir, expected = parallel_ir
    report = run_checks(seed_narrowed_dtype(ir), expected)
    assert not report.ok
    assert {f.check for f in report.findings} == {"types"}
    assert any("narrowing" in f.message for f in report.findings)


def test_seeded_dead_store_caught_by_dataflow_only(parallel_ir):
    ir, expected = parallel_ir
    report = run_checks(seed_dead_store(ir), expected)
    assert not report.ok
    assert {f.check for f in report.findings} == {"dataflow"}
    assert any("dead store" in f.message for f in report.findings)


def test_seeding_does_not_mutate_the_original(parallel_ir):
    """Seeds deep-copy: the clean IR stays certifiable afterwards."""
    ir, expected = parallel_ir
    for seed, _ in SEEDS.values():
        seed(ir)
    assert run_checks(ir, expected).ok


def test_selftest_runner_passes_on_clean_ir(parallel_ir):
    results = run_selftests(*parallel_ir)
    assert len(results) == len(SEEDS)
    assert all(ok for _, ok, _ in results), results


def test_flop_check_detects_model_divergence(parallel_ir):
    """A perturbed expected budget is a finding, never absorbed."""
    ir, expected = parallel_ir
    skewed = dict(expected)
    skewed["down_v"] += 1.0
    report = run_checks(ir, skewed)
    assert {f.check for f in report.findings} == {"flops"}
