"""Static communication-IR extraction and five-check certification.

The verifier must certify clean schedules (including degenerate
partition shapes at rank counts far beyond execution), catch each
seeded defect with exactly the intended check, find the IR in the
programs real setups leave on the ranks at small rank counts — and in
what those ranks then ask of their communicators — and, its one greedy
deadlock run, agree with an exhaustive walk of every interleaving.
"""

import copy
import dataclasses
from collections import defaultdict

import numpy as np
import pytest

from repro.analysis.commcheck_static import (
    SEEDS,
    check_deadlock,
    check_matching,
    run_checks,
    run_selftests,
    seed_dropped_relay,
    seed_swapped_post_wait,
)
from repro.analysis.commir import (
    PROTOCOL_FAMILIES,
    extract_comm_ir,
    static_plan_inputs,
)
from repro.analysis.plancheck import rank_states
from repro.cli import main as cli_main
from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel
from repro.parallel.pfmm import ParallelFMM
from repro.parallel.simmpi import TAG_FAMILIES

from tests.conftest import clustered_cloud, coarse_v_levels
from tests.parallel.recording import (
    assert_regions_follow,
    divergent_regions,
    recorded_runs,
    region_messages,
)

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

    def test_programs_cover_every_rank(self, cloud):
        inputs = static_plan_inputs(cloud, 8, OPTS)
        ir = extract_comm_ir(inputs)
        assert ir.nranks == 8
        assert len(ir.programs) == 8
        assert ir.nops() == sum(len(p) for p in ir.programs)
        # Every op's tag belongs to its protocol family.
        for prog in ir.programs:
            for op in prog:
                assert op.tag[0] in PROTOCOL_FAMILIES
                assert op.kind in ("send", "post", "complete")

    def test_setup_ops_split_the_setup_from_the_apply(self, cloud):
        """A program is the setup's ``geo`` exchange, then one apply's."""
        ir = extract_comm_ir(static_plan_inputs(cloud, 4, OPTS))
        setup = ("geo", "geog")
        for prog in ir.programs:
            cut = sum(op.group in setup for op in prog)
            assert 0 < cut < len(prog)
            assert all(op.group in setup for op in prog[:cut])

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError, match="zero points"):
            static_plan_inputs(np.empty((0, 3)), 2, OPTS)


@pytest.fixture(scope="module")
def small_cloud():
    """Small enough that every interleaving can be walked at P = 3."""
    return np.random.default_rng(0).uniform(-1.0, 1.0, (120, 3))


def deadlock_reachable(ir) -> bool:
    """Exhaustive oracle for ``check_deadlock``: a memoized DFS over the
    per-rank program counters (the channel send counts are a function of
    them).  True iff some interleaving reaches a state where no rank can
    move but some rank has ops left.  Sends and posts can always move; a
    completion can once its sender's PC is past its FIFO-matched send —
    never, if that send does not exist."""
    progs = ir.programs
    sends = defaultdict(list)
    for r, prog in enumerate(progs):
        for i, op in enumerate(prog):
            if op.kind == "send":
                sends[(r, op.peer, op.tag)].append(i)
    need = []  # need[r][i] = (q, j): rank r's op i can run once pc[q] > j
    for r, prog in enumerate(progs):
        done = defaultdict(int)
        need.append([])
        for op in prog:
            if op.kind != "complete":
                need[r].append((r, -1))
                continue
            chan = (op.peer, r, op.tag)
            k = done[chan]
            done[chan] += 1
            at = sends[chan][k] if k < len(sends[chan]) else float("inf")
            need[r].append((op.peer, at))
    final = tuple(len(p) for p in progs)
    seen, stack = set(), [(0,) * ir.nranks]
    while stack:
        pcs = stack.pop()
        if pcs in seen:
            continue
        seen.add(pcs)
        moves = [
            pcs[:r] + (pc + 1,) + pcs[r + 1:]
            for r, pc in enumerate(pcs)
            if pc < final[r] and pcs[need[r][pc][0]] > need[r][pc][1]
        ]
        if not moves and pcs != final:
            return True
        stack += moves
    return False


def mutants(ir, rng, count, drop):
    """``count`` copies of ``ir``, each with 1-3 ops of one rank's
    program moved elsewhere in it — or, with ``drop``, each op deleted
    instead with probability 1/2."""
    for _ in range(count):
        programs = [list(p) for p in ir.programs]
        prog = programs[int(rng.integers(ir.nranks))]
        for _ in range(int(rng.integers(1, 4))):
            op = prog.pop(int(rng.integers(len(prog))))
            if not (drop and rng.random() < 0.5):
                prog.insert(int(rng.integers(len(prog) + 1)), op)
        yield dataclasses.replace(ir, programs=programs)


class TestFiveChecksClean:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 8])
    def test_small_p_certifies(self, cloud, nranks):
        inputs = static_plan_inputs(cloud, nranks, OPTS)
        report = run_checks(extract_comm_ir(inputs))
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
        ir = extract_comm_ir(inputs)
        assert ir.nranks == nranks
        report = run_checks(ir)
        assert report.ok, [str(f) for f in report.findings[:5]]

    def test_more_ranks_than_points(self):
        pts = np.random.default_rng(2).uniform(-1, 1, (40, 3))
        inputs = static_plan_inputs(pts, 64, OPTS)
        assert run_checks(extract_comm_ir(inputs)).ok

    def test_single_rank_is_silent(self, cloud):
        """At one rank no box circulates: no roles, no ops."""
        inputs = static_plan_inputs(cloud, 1, OPTS)
        ir = extract_comm_ir(inputs)
        assert ir.roles == {"geo": {}, "phi": {}, "pue": {}}
        assert ir.nops() == 0
        assert run_checks(ir).ok


class TestRolesAreTheRuntimes:
    """The roles the IR is compiled from, and certified against, are
    the roles the ranks run: no role without a message."""

    @pytest.mark.parametrize("nranks", [2, 3, 8])
    @pytest.mark.parametrize("workload", ["uniform", "corners"])
    def test_roles_are_the_programs_boxes(self, cloud, workload, nranks):
        """Every role has a participant besides its owner, and each
        kind's role boxes are the boxes the ranks' programs of that
        kind name."""
        pts = cloud if workload == "uniform" else clustered_cloud(
            np.random.default_rng(5), 600
        )
        ir = extract_comm_ir(static_plan_inputs(pts, nranks, OPTS))
        states = rank_states(LaplaceKernel(), pts, OPTS, nranks)
        assert ir.nmessages() > 0
        for kind, table in ir.roles.items():
            for owner, contribs, users in table.values():
                assert (contribs | users) - {owner}, kind
            held = {
                op.ids for state in states
                for phase in getattr(state.layout, kind) for op in phase
            }
            assert held == set(table), kind


def run_recorded(points, densities, opts, nranks, overlap=True):
    """A :class:`ParallelFMM` setup and one apply per density on rank
    threads, every region recorded: ``(states, regions)``."""
    op = ParallelFMM(nranks, LaplaceKernel(), opts, overlap=overlap)
    with recorded_runs() as regions:
        op.setup(points)
        for density in densities:
            op.apply(density, schedule_seed=0)
    return op.states, regions


class TestConformance:
    @pytest.mark.parametrize("nranks", [2, 4, 8])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_dynamic_trace_is_linearization(
        self, cloud, density, nranks, overlap
    ):
        """The programs a real setup leaves on the ranks are the IR's,
        and what the ranks then ask of their communicators (recorded
        test-side) is the IR's: the setup's ops, then the apply's, in
        order, with and without overlap."""
        ir = extract_comm_ir(static_plan_inputs(cloud, nranks, OPTS))
        states, regions = run_recorded(
            cloud, [density], OPTS, nranks, overlap
        )
        report = run_checks(ir, states=states)
        assert report.ok, [str(f) for f in report.findings[:5]]
        assert_regions_follow(ir, regions)

    @pytest.fixture(scope="class")
    def three_applies(self, cloud, density):
        """A P = 4 setup and three applies, the second a 4-column
        block, against the IR of a setup and one apply."""
        ir = extract_comm_ir(static_plan_inputs(cloud, 4, OPTS))
        block = np.random.default_rng(3).standard_normal(
            (cloud.shape[0], 1, 4)
        )
        _, regions = run_recorded(
            cloud, [density, block, density], OPTS, 4
        )
        return ir, regions

    def test_every_apply_region_conforms(self, three_applies):
        """Every apply makes the one apply's ops of the IR."""
        ir, regions = three_applies
        assert len(regions) == 4
        assert_regions_follow(ir, regions)

    def test_extra_op_in_the_second_apply_diverges(self, three_applies):
        """Seeded defect on a multi-apply recording: one rank's second
        apply sends one ``phi`` message more than its program.  Exactly
        that rank and region diverge; the other regions still match."""
        ir, regions = three_applies
        seeded = region_messages(regions)
        rank, extra = next(
            (r, msg) for r in range(ir.nranks) for msg in seeded[2][r]
            if msg[0] == "send" and msg[2][0] == "phi"
        )
        seeded[2][rank].append(extra)
        assert divergent_regions(ir, seeded) == [(rank, 2)]

    def test_coarse_split_broadcast_conforms(self):
        """Two tight clusters at 8 ranks: V level 2 has fewer boxes than
        ranks, every contributor computes it, and each of two applies
        runs the owner exchange alone."""
        rng = np.random.default_rng(12)
        pts = np.vstack([
            rng.uniform(0.0, 0.12, (300, 3)),
            rng.uniform(0.88, 1.0, (300, 3)),
        ])
        opts = FMMOptions(p=4, max_points=20)
        inputs = static_plan_inputs(pts, 8, opts)
        assert 2 in coarse_v_levels(inputs.tree, 8)
        ir = extract_comm_ir(inputs)
        states, regions = run_recorded(
            pts, [rng.standard_normal(600)] * 2, opts, 8,
        )
        report = run_checks(ir, states=states)
        assert report.ok, [str(f) for f in report.findings[:5]]
        assert_regions_follow(ir, regions)

    def test_swapped_sends_are_flagged_by_conformance(self, cloud):
        """Seeded defect of ``conformance``: one rank's two consecutive
        sends on distinct channels swap places in the IR.  Counts, tags,
        waits and payload flows are untouched, so only the programs the
        ranks hold witness it — and the check names that rank and op."""
        ir = extract_comm_ir(static_plan_inputs(cloud, 4, OPTS))
        states = rank_states(LaplaceKernel(), cloud, OPTS, 4)
        assert run_checks(ir, states=states).ok
        seeded = copy.deepcopy(ir)
        rank, i = next(
            (r, i) for r, prog in enumerate(seeded.programs)
            for i in range(len(prog) - 1)
            if prog[i].kind == prog[i + 1].kind == "send"
            and (prog[i].peer, prog[i].tag)
            != (prog[i + 1].peer, prog[i + 1].tag)
        )
        prog = seeded.programs[rank]
        prog[i], prog[i + 1] = prog[i + 1], prog[i]
        report = run_checks(seeded, states=states)
        assert {c for c, n in report.counts.items() if n} == {"conformance"}
        assert [f.where for f in report.findings] == [f"rank {rank} op {i}"]

    def test_another_setup_does_not_conform(self, cloud):
        """States of other points, or of another rank count, are not
        the IR's ranks."""
        ir = extract_comm_ir(static_plan_inputs(cloud, 4, OPTS))
        other = rank_states(LaplaceKernel(), cloud[:300], OPTS, 4)
        report = run_checks(ir, states=other)
        assert {c for c, n in report.counts.items() if n} == {"conformance"}
        three = rank_states(LaplaceKernel(), cloud, OPTS, 3)
        assert [f.where for f in run_checks(ir, states=three).findings] == [
            "states"
        ]


class TestSeededDefects:
    @pytest.fixture(scope="class")
    def deep(self, cloud):
        """P=32 hosts every seed (interior relay nodes need a box with
        >= 4 gather participants)."""
        return extract_comm_ir(static_plan_inputs(cloud, 32, OPTS))

    def test_each_seed_caught_by_exactly_its_check(self, deep):
        """One seed per IR-only check (``conformance`` needs the ranks'
        states: ``test_swapped_sends_are_flagged_by_conformance``)."""
        assert {intended for _, intended in SEEDS.values()} == {
            "matching", "tags", "deadlock", "conservation"
        }
        for name, (seed_fn, intended) in SEEDS.items():
            report = run_checks(seed_fn(deep))
            fired = {c for c, n in report.counts.items() if n}
            assert fired == {intended}, (name, fired)

    def test_run_selftests_all_pass(self, deep):
        rows = run_selftests(deep)
        assert {name for name, _, _ in rows} == set(SEEDS)
        assert all(ok for _, ok, _ in rows)

    def test_dropped_relay_unplantable_on_shallow_schedule(self, cloud):
        """At P=2 no gather tree has an interior node; the seed must
        refuse rather than silently plant nothing."""
        inputs = static_plan_inputs(cloud, 2, OPTS)
        ir = extract_comm_ir(inputs)
        with pytest.raises(ValueError, match="relay"):
            seed_dropped_relay(ir)
        rows = dict(
            (name, ok) for name, ok, _ in run_selftests(ir)
        )
        assert rows["dropped-relay"] is False

    def test_swapped_post_wait_at_p3_caught_by_deadlock_alone(
        self, small_cloud
    ):
        """The post/wait swap at P = 3 deadlocks under every
        interleaving, not only some: ``deadlock`` catches it alone, the
        exhaustive walk agrees, and the clean IR certifies."""
        ir = extract_comm_ir(static_plan_inputs(small_cloud, 3, OPTS))
        bad = seed_swapped_post_wait(ir)
        report = run_checks(bad)
        assert {c for c, n in report.counts.items() if n} == {"deadlock"}
        assert "FAILED" in report.summary()
        assert deadlock_reachable(bad)
        assert run_checks(ir).ok
        assert not deadlock_reachable(ir)

    @pytest.mark.parametrize("nranks", [2, 3])
    def test_greedy_deadlock_decides_every_interleaving(
        self, small_cloud, nranks
    ):
        """Against the exhaustive oracle on seeded reorder and drop
        mutants: every reachable deadlock is flagged by ``matching`` or
        ``deadlock``, and wherever ``matching`` passes, the one greedy
        run's verdict is the verdict of every interleaving."""
        ir = extract_comm_ir(static_plan_inputs(small_cloud, nranks, OPTS))
        assert not deadlock_reachable(ir)
        rng = np.random.default_rng(nranks)
        verdicts = defaultdict(int)
        for drop in (False, True):
            for m in mutants(ir, rng, 200, drop):
                exhaustive = deadlock_reachable(m)
                matching = bool(check_matching(m))
                greedy = bool(check_deadlock(m))
                if exhaustive:
                    assert matching or greedy
                if not matching:
                    assert greedy == exhaustive
                verdicts[drop, exhaustive, matching] += 1
        # Not vacuous: both kinds deadlock, and some drop mutant that
        # ``matching`` passes deadlocks too.
        assert verdicts[False, True, False] > 0
        assert verdicts[True, True, True] > 0
        assert verdicts[True, True, False] > 0

    def test_seeds_do_not_mutate_the_input(self, deep):
        before = [list(p) for p in deep.programs]
        for seed_fn, _ in SEEDS.values():
            seed_fn(deep)
        assert [list(p) for p in deep.programs] == before
        assert run_checks(deep).ok

    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_seed_copies_on_write(self, deep, name):
        """A seed copies only what it edits: the input keeps every op's
        value (an op retagged in place would pass the identity check of
        ``test_seeds_do_not_mutate_the_input``), the programs it leaves
        alone are shared, and the copy is caught by exactly its check."""
        seed_fn, intended = SEEDS[name]
        snapshot = copy.deepcopy(deep.programs)
        seeded = seed_fn(deep)
        assert deep.programs == snapshot
        edited = [
            r for r, (mine, theirs) in enumerate(
                zip(seeded.programs, deep.programs))
            if mine is not theirs
        ]
        assert 1 <= len(edited) <= 2
        assert all(seeded.programs[r] != deep.programs[r] for r in edited)
        assert seeded.roles is deep.roles
        report = run_checks(seeded)
        assert {c for c, n in report.counts.items() if n} == {intended}
        assert run_checks(deep).ok


class TestCLI:
    def test_empty_ranks_exits_2(self, capsys):
        assert cli_main(["commir", "--ranks", ""]) == 2
        assert "nothing to certify" in capsys.readouterr().out

    def test_unknown_scheme_exits_2(self, capsys):
        """There is one exchange shape: ``--schemes`` is not an option."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["commir", "--schemes", "tree"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --schemes" in capsys.readouterr().err

    def test_kernels_is_not_an_option(self, capsys):
        """The schedule takes no kernel, and conformance sweeps none."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["commir", "--kernels", "laplace"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernels" in capsys.readouterr().err

    def test_small_sweep_certifies(self, capsys, tmp_path):
        json_path = tmp_path / "commir.json"
        rc = cli_main([
            "commir", "--n", "300", "--ranks", "2,4",
            "--conform-ranks", "2", "--conform-n", "200",
            "--no-selftest", "--json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "conform/ranks2: certified" in out
        assert "2 schedules certified, 1 rank setups conform" in out
        assert "zero waivers" in out
        assert json_path.exists()

    def test_default_selftest_ranks_host_every_seed(self, capsys):
        """The default ``--selftest-ranks`` hosts all four seeds on the
        default conformance points: no deeper rank count is probed.
        (``--ranks 1`` keeps the sweep trivial; ``--n`` stays default,
        so the conformance points are the default run's.)"""
        rc = cli_main(["commir", "--ranks", "1", "--conform-ranks", ""])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "self-tests host at" not in out
        rows = [line for line in out.splitlines()
                if line.startswith("selftest ")]
        assert sorted(row.split(":")[0] for row in rows) == sorted(
            f"selftest {name}" for name in SEEDS
        )
        assert all(": ok (" in row for row in rows)
