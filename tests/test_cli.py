"""Command-line interface tests."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--kernel", "warp", "--n", "10"])

    def test_commcheck_is_not_a_command(self, capsys):
        """The schedule is certified by ``commir`` (its conformance
        check compares the ranks' programs with it) and runs are checked
        by the runtime's own errors; there is no trace analyzer."""
        with pytest.raises(SystemExit) as exc:
            main(["commcheck"])
        assert exc.value.code == 2
        assert "invalid choice: 'commcheck'" in capsys.readouterr().err

    def test_dpor_is_not_a_command(self, capsys):
        """``commir``'s one greedy deadlock run decides every
        interleaving; there is no exhaustive explorer."""
        with pytest.raises(SystemExit) as exc:
            main(["dpor"])
        assert exc.value.code == 2
        assert "invalid choice: 'dpor'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["evaluate", "serve"]
    )
    @pytest.mark.parametrize("flag", ["--m2l", "--dtype"])
    def test_unknown_backend_exits_2_naming_choices(
        self, command, flag, capsys
    ):
        """Typos in --m2l/--dtype must exit 2 and name the choices."""
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        expected = ("dense", "rsvd", "auto") if flag == "--m2l" \
            else ("float64", "float32")
        for choice in expected:
            assert choice in err

    @pytest.mark.parametrize(
        "command", ["evaluate", "serve"]
    )
    def test_fft_m2l_exits_2_naming_the_remaining_choices(
        self, command, capsys
    ):
        """The FFT M2L is priced by the model only: not a choice."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--m2l", "fft"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fft'" in err
        assert re.search(r"choose from '?dense'?, '?rsvd'?, '?auto'?\)", err)


class TestEvaluate:
    def test_basic(self, capsys):
        rc = main(["evaluate", "--n", "500", "--p", "3", "--s", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel=laplace" in out
        assert "tree:" in out

    def test_check_reports_error(self, capsys):
        rc = main(
            ["evaluate", "--n", "400", "--p", "4", "--check",
             "--samples", "50"]
        )
        assert rc == 0
        assert "relative error" in capsys.readouterr().out

    def test_stokes_corners(self, capsys):
        rc = main(
            ["evaluate", "--kernel", "stokes", "--workload", "corners",
             "--n", "300", "--p", "3"]
        )
        assert rc == 0
        assert "kernel=stokes" in capsys.readouterr().out

    @pytest.mark.parametrize("m2l", ["rsvd", "auto"])
    def test_rsvd_and_auto_backends(self, capsys, m2l):
        rc = main(
            ["evaluate", "--n", "400", "--p", "3", "--m2l", m2l,
             "--check", "--samples", "30"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"m2l={m2l}" in out
        assert "m2l schedule:" in out

    def test_rsvd_float32(self, capsys):
        rc = main(
            ["evaluate", "--n", "400", "--p", "3", "--m2l", "rsvd",
             "--dtype", "float32"]
        )
        assert rc == 0
        assert "dtype=float32" in capsys.readouterr().out


class TestAccuracy:
    def test_sweep(self, capsys):
        rc = main(
            ["accuracy", "--n", "400", "--orders", "2,4", "--p", "4",
             "--samples", "50"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy sweep" in out
        assert out.count("\n") >= 4

    def test_bad_orders(self):
        with pytest.raises(SystemExit):
            main(["accuracy", "--n", "100", "--orders", "2,x"])


class TestProject:
    def test_writes_report_and_gates_pass(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_scaling.json"
        rc = main(
            ["project", "--n", "3000", "--max-ranks", "64", "--p", "4",
             "--s", "40", "--out", str(out_path),
             "--max-crossover", "64", "--min-speedup", "0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "crossover rank" in out
        import json

        payload = json.loads(out_path.read_text())
        assert [pt["P"] for pt in payload["points"]] == [2, 4, 8, 16, 32, 64]
        assert payload["crossover_rank"] is not None
        for pt in payload["points"]:
            assert pt["flat_max_rank_msgs"] >= pt["tree_max_rank_msgs"] >= 0

    def test_min_speedup_gate_can_fail(self, capsys):
        rc = main(
            ["project", "--n", "2000", "--max-ranks", "16", "--p", "4",
             "--s", "40", "--out", "", "--min-speedup", "1000.0"]
        )
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out


class TestScaling:
    def test_fixed(self, capsys):
        rc = main(
            ["scaling", "--mode", "fixed", "--n", "100000",
             "--model-n", "5000", "--procs", "1,4", "--p", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fixed-size scaling" in out

    def test_isogranular(self, capsys):
        rc = main(
            ["scaling", "--mode", "isogranular", "--grain", "2000",
             "--cap", "4000", "--procs", "1,4", "--p", "4"]
        )
        assert rc == 0
        assert "isogranular scaling" in capsys.readouterr().out
