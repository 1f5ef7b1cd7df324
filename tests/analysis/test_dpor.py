"""Exhaustive schedule-space model checking (DPOR-style explorer).

At P in {2, 3} the explorer must visit the *entire* interleaving space
of the static communication IR: certify deadlock-freedom and
persistence at every reachable state, count the exact number of
interleavings, and find seeded schedule defects that sampled dynamic
runs can miss.  The bitwise harness complements the model-level proof
end to end.
"""

import numpy as np
import pytest

from repro.analysis.commcheck_static import seed_swapped_post_wait
from repro.analysis.commir import extract_comm_ir, static_plan_inputs
from repro.analysis.dpor import bitwise_determinism, explore
from repro.cli import main as cli_main
from repro.core.fmm import FMMOptions
from repro.kernels import LaplaceKernel

OPTS = FMMOptions(p=4)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(0)
    return rng.uniform(-1.0, 1.0, (120, 3))


class TestExhaustiveExploration:
    @pytest.mark.parametrize("nranks", [2, 3])
    def test_full_space_certifies(self, cloud, nranks):
        inputs = static_plan_inputs(cloud, nranks, OPTS)
        ir = extract_comm_ir(inputs)
        report = explore(ir)
        assert report.ok, report.summary()
        assert not report.truncated
        assert report.deadlocks == []
        assert report.persistence_violations == []
        assert report.nclasses == 1
        assert report.ninterleavings > 0
        assert report.nstates > 0
        assert "certified" in report.summary()

    def test_interleaving_count_exceeds_what_could_be_run(self, cloud):
        """The DP count covers astronomically more schedules than any
        sampled perturbation campaign — that is the point."""
        inputs = static_plan_inputs(cloud, 3, OPTS)
        ir = extract_comm_ir(inputs)
        report = explore(ir)
        assert report.ninterleavings > 10**6

    def test_seeded_deadlock_found_exhaustively(self, cloud):
        """A post/wait swap deadlocks only under *some* interleavings;
        the exhaustive explorer must find it at P=3."""
        inputs = static_plan_inputs(cloud, 3, OPTS)
        ir = extract_comm_ir(inputs)
        bad = seed_swapped_post_wait(ir)
        report = explore(bad)
        assert not report.ok
        assert report.deadlocks
        assert "FAILED" in report.summary()
        # The clean IR of the same inputs certifies — the defect, not
        # the workload, is what the explorer flags.
        assert explore(ir).ok

    def test_state_budget_reports_truncation(self, cloud):
        inputs = static_plan_inputs(cloud, 3, OPTS)
        ir = extract_comm_ir(inputs)
        report = explore(ir, max_states=5)
        assert report.truncated
        assert not report.ok
        assert "INCOMPLETE" in report.summary()


class TestBitwiseDeterminism:
    def test_identical_potentials_across_schedules(self, cloud):
        kernel = LaplaceKernel()
        density = np.random.default_rng(1).random(
            (cloud.shape[0], kernel.source_dof)
        )
        identical, diff = bitwise_determinism(
            kernel, cloud, density, OPTS, 2, seeds=(0, 1, 2),
        )
        assert identical
        assert diff == 0.0


class TestCLI:
    def test_empty_ranks_exits_2(self, capsys):
        assert cli_main(["dpor", "--ranks", ""]) == 2
        assert "nothing to explore" in capsys.readouterr().out

    def test_empty_schemes_exits_2(self, capsys):
        """There is one exchange shape: ``--schemes`` is not an option."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["dpor", "--schemes", ""])
        assert exc.value.code == 2
        assert "unrecognized arguments: --schemes" in capsys.readouterr().err

    def test_unknown_scheme_exits_2(self, capsys):
        """A scheme name is rejected before any exploration starts."""
        with pytest.raises(SystemExit) as exc:
            cli_main(["dpor", "--schemes", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --schemes bogus" in err

    def test_nonpositive_n_exits_2(self, capsys):
        assert cli_main(["dpor", "--n", "0"]) == 2
        assert "positive point count" in capsys.readouterr().out

    def test_small_exploration_certifies(self, capsys, tmp_path):
        json_path = tmp_path / "dpor.json"
        rc = cli_main([
            "dpor", "--n", "60", "--ranks", "2",
            "--schedules", "2", "--json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "certified" in out
        assert "bitwise determinism" in out
        assert json_path.exists()
