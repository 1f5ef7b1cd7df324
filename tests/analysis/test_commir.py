"""Static communication-IR extraction and five-check certification.

The verifier must certify clean schedules (including degenerate
partition shapes at rank counts far beyond execution), catch each
seeded defect with exactly the intended check, and agree with real
traced executions at small rank counts.
"""

import numpy as np
import pytest

from repro.analysis.commcheck_static import (
    SEEDS,
    build_index,
    conservation_summary,
    cross_scheme_conservation,
    run_checks,
    run_selftests,
    seed_dropped_relay,
    seed_reused_tag,
    seed_swapped_post_wait,
    traced_run,
)
from repro.analysis.commir import (
    PROTOCOL_FAMILIES,
    extract_comm_ir,
    static_plan_inputs,
)
from repro.cli import main as cli_main
from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel
from repro.parallel.simmpi import TAG_FAMILIES

OPTS = FMMOptions(p=4)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(0)
    return rng.uniform(-1.0, 1.0, (600, 3))


@pytest.fixture(scope="module")
def density(cloud):
    return np.random.default_rng(1).standard_normal(cloud.shape[0])


class TestExtraction:
    def test_protocol_families_are_registered(self):
        for fam in PROTOCOL_FAMILIES:
            assert fam in TAG_FAMILIES

    @pytest.mark.parametrize("scheme", ["tree", "flat"])
    def test_programs_cover_every_rank(self, cloud, scheme):
        inputs = static_plan_inputs(cloud, 8, OPTS)
        ir = extract_comm_ir(inputs, scheme=scheme)
        assert ir.nranks == 8
        assert len(ir.programs) == 8
        assert ir.nops() == sum(len(p) for p in ir.programs)
        # Every op's tag belongs to its protocol family.
        for prog in ir.programs:
            for op in prog:
                assert op.tag[0] in PROTOCOL_FAMILIES
                assert op.kind in ("send", "post", "complete")

    def test_napplies_repeats_the_exchange(self, cloud):
        inputs = static_plan_inputs(cloud, 4, OPTS)
        one = extract_comm_ir(inputs, scheme="tree", include_setup=False)
        two = extract_comm_ir(
            inputs, scheme="tree", include_setup=False, napplies=2
        )
        assert two.nops() == 2 * one.nops()

    def test_unknown_scheme_rejected(self, cloud):
        inputs = static_plan_inputs(cloud, 2, OPTS)
        with pytest.raises(ValueError, match="scheme"):
            extract_comm_ir(inputs, scheme="ring")

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            static_plan_inputs(np.empty((0, 3)), 2, OPTS)


class TestFiveChecksClean:
    @pytest.mark.parametrize("nranks", [2, 4, 8])
    @pytest.mark.parametrize("scheme", ["tree", "flat"])
    def test_small_p_certifies(self, cloud, nranks, scheme):
        inputs = static_plan_inputs(cloud, nranks, OPTS)
        ir = extract_comm_ir(inputs, scheme=scheme)
        other = extract_comm_ir(
            inputs, scheme="flat" if scheme == "tree" else "tree"
        )
        report = run_checks(ir, reference=other)
        assert report.ok, [str(f) for f in report.findings[:5]]
        assert set(report.counts) == {
            "matching", "tags", "deadlock", "conservation", "conformance"
        }
        assert report.nmessages > 0
        assert "certified" in report.summary()

    @pytest.mark.parametrize("nranks", [8, 64, 4096])
    def test_degenerate_partition_shapes(self, cloud, nranks):
        """P up to far beyond the leaf-box count: ranks owning zero
        boxes, single-participant exchanges, deep gather trees — the
        schedule must still extract and certify (satellite c)."""
        inputs = static_plan_inputs(cloud, nranks, OPTS)
        summaries = {}
        for scheme in ("tree", "flat"):
            ir = extract_comm_ir(inputs, scheme=scheme)
            assert ir.nranks == nranks
            index = build_index(ir)
            report = run_checks(ir, index=index)
            assert report.ok, [str(f) for f in report.findings[:5]]
            summaries[scheme] = conservation_summary(ir, index)
        assert cross_scheme_conservation(
            summaries["tree"], summaries["flat"]
        ) == []

    def test_more_ranks_than_points(self):
        pts = np.random.default_rng(2).uniform(-1, 1, (40, 3))
        inputs = static_plan_inputs(pts, 64, OPTS)
        for scheme in ("tree", "flat"):
            ir = extract_comm_ir(inputs, scheme=scheme)
            assert run_checks(ir).ok

    def test_single_rank_is_silent(self, cloud):
        inputs = static_plan_inputs(cloud, 1, OPTS)
        ir = extract_comm_ir(inputs, scheme="tree")
        assert ir.nmessages() == 0
        assert run_checks(ir).ok

    def test_summary_path_equals_reference_path(self, cloud):
        """The compact ConservationSummary comparison must reproduce
        the heavyweight reference=CommIR comparison exactly."""
        inputs = static_plan_inputs(cloud, 8, OPTS)
        tree = extract_comm_ir(inputs, scheme="tree")
        flat = extract_comm_ir(inputs, scheme="flat")
        ix_t, ix_f = build_index(tree), build_index(flat)
        heavy = run_checks(
            tree, reference=flat, index=ix_t, reference_index=ix_f
        )
        lean = cross_scheme_conservation(
            conservation_summary(tree, ix_t),
            conservation_summary(flat, ix_f),
        )
        assert heavy.ok and lean == []


class TestConformance:
    @pytest.mark.parametrize("nranks", [2, 4, 8])
    @pytest.mark.parametrize("scheme", ["tree", "flat"])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_dynamic_trace_is_linearization(
        self, cloud, density, nranks, scheme, overlap
    ):
        inputs = static_plan_inputs(cloud, nranks, OPTS)
        ir = extract_comm_ir(inputs, scheme=scheme)
        trace = traced_run(
            LaplaceKernel(), cloud, density,
            FMMOptions(p=4, comm=scheme), nranks, overlap=overlap,
        )
        report = run_checks(ir, traces=(trace,))
        assert report.ok, [str(f) for f in report.findings[:5]]

    @pytest.mark.parametrize("scheme", ["tree", "flat"])
    def test_coarse_split_broadcast_conforms(self, scheme):
        """Two tight clusters at 8 ranks split V level 2: the ``vsp``
        programs run, twice, after the owner exchange of each apply."""
        rng = np.random.default_rng(12)
        pts = np.vstack([
            rng.uniform(0.0, 0.12, (300, 3)),
            rng.uniform(0.88, 1.0, (300, 3)),
        ])
        opts = FMMOptions(p=4, max_points=20, comm=scheme)
        inputs = static_plan_inputs(pts, 8, opts)
        ir = extract_comm_ir(inputs, scheme=scheme, napplies=2)
        assert any(op.group == "vsp" for p in ir.programs for op in p)
        trace = traced_run(
            LaplaceKernel(), pts, rng.standard_normal(600), opts, 8,
            napplies=2,
        )
        report = run_checks(ir, traces=(trace,))
        assert report.ok, [str(f) for f in report.findings[:5]]

    def test_wrong_scheme_trace_diverges(self, cloud, density):
        """A flat-scheme trace is NOT a linearization of the tree IR —
        the conformance check must localize the first divergence."""
        inputs = static_plan_inputs(cloud, 4, OPTS)
        ir = extract_comm_ir(inputs, scheme="tree")
        trace = traced_run(
            LaplaceKernel(), cloud, density,
            FMMOptions(p=4, comm="flat"), 4,
        )
        report = run_checks(ir, traces=(trace,))
        assert not report.ok
        assert report.counts["conformance"] > 0
        assert all(f.check == "conformance" for f in report.findings)


class TestSeededDefects:
    @pytest.fixture(scope="class")
    def deep(self, cloud):
        """P=32 hosts every seed (interior relay nodes need a box with
        >= 4 gather participants)."""
        inputs = static_plan_inputs(cloud, 32, OPTS)
        return (
            extract_comm_ir(inputs, scheme="tree"),
            extract_comm_ir(inputs, scheme="flat"),
        )

    def test_each_seed_caught_by_exactly_its_check(self, deep):
        ir, ref = deep
        for name, (seed_fn, intended) in SEEDS.items():
            report = run_checks(seed_fn(ir), reference=ref)
            fired = {c for c, n in report.counts.items() if n}
            assert fired == {intended}, (name, fired)

    def test_run_selftests_all_pass(self, deep):
        ir, ref = deep
        rows = run_selftests(ir, reference=ref)
        assert {name for name, _, _ in rows} == set(SEEDS)
        assert all(ok for _, ok, _ in rows)

    def test_dropped_relay_unplantable_on_shallow_schedule(self, cloud):
        """At P=2 no gather tree has an interior node; the seed must
        refuse rather than silently plant nothing."""
        inputs = static_plan_inputs(cloud, 2, OPTS)
        ir = extract_comm_ir(inputs, scheme="tree")
        with pytest.raises(ValueError, match="relay"):
            seed_dropped_relay(ir)
        rows = dict(
            (name, ok) for name, ok, _ in run_selftests(ir)
        )
        assert rows["dropped-relay"] is False

    def test_seeds_do_not_mutate_the_input(self, deep):
        ir, ref = deep
        before = [list(p) for p in ir.programs]
        for seed_fn in (seed_dropped_relay, seed_reused_tag,
                        seed_swapped_post_wait):
            seed_fn(ir)
        assert [list(p) for p in ir.programs] == before
        assert run_checks(ir, reference=ref).ok


class TestCLI:
    def test_empty_ranks_exits_2(self, capsys):
        assert cli_main(["commir", "--ranks", ""]) == 2
        assert "nothing to certify" in capsys.readouterr().out

    def test_unknown_scheme_exits_2(self, capsys):
        assert cli_main(["commir", "--schemes", "ring"]) == 2
        out = capsys.readouterr().out
        assert "unknown comm scheme 'ring'" in out
        assert "tree, flat" in out

    def test_empty_kernels_exits_2(self):
        assert cli_main(["commir", "--kernels", ""]) == 2

    def test_small_sweep_certifies(self, capsys, tmp_path):
        json_path = tmp_path / "commir.json"
        rc = cli_main([
            "commir", "--n", "300", "--ranks", "2,4",
            "--conform-ranks", "2", "--conform-n", "200",
            "--no-selftest", "--json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "zero waivers" in out
        assert json_path.exists()
