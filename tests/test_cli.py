"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.algorithm == "roar"
        assert args.n == 90

    def test_compare_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--algorithm", "magic"])

    def test_plan_flags(self):
        args = build_parser().parse_args(
            ["plan", "--servers", "12", "--target-delay", "0.3"]
        )
        assert args.servers == 12
        assert args.target_delay == 0.3


class TestCommands:
    def test_compare_runs(self, capsys):
        rc = main(
            ["compare", "--n", "18", "-p", "3", "--queries", "40", "--rate", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean delay" in out
        assert "utilisation" in out

    def test_deploy_runs(self, capsys):
        rc = main(["deploy", "--nodes", "12", "-p", "3", "--queries", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "yield 100%" in out

    def test_deploy_with_failures(self, capsys):
        rc = main(
            ["deploy", "--nodes", "12", "-p", "3", "--queries", "30", "--fail", "2"]
        )
        assert rc == 0
        assert "failed nodes" in capsys.readouterr().out

    def test_plan_feasible(self, capsys):
        rc = main(["plan", "--servers", "24", "--target-delay", "0.5"])
        assert rc == 0
        assert "recommended" in capsys.readouterr().out

    def test_plan_infeasible_exit_code(self, capsys):
        rc = main(["plan", "--servers", "2", "--target-delay", "0.0001"])
        assert rc == 1

    def test_control_parser_defaults(self):
        args = build_parser().parse_args(["control"])
        assert args.scenario == "flash-crowd"
        assert args.servers == 16
        assert args.slo == 1.0

    def test_control_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["control", "--scenario", "tsunami"])

    def test_control_runs_closed_loop(self, capsys):
        rc = main(
            [
                "control",
                "--scenario", "flash-crowd",
                "--servers", "8",
                "-p", "3",
                "--duration", "80",
                "--seed", "3",
            ]
        )
        assert rc == 0  # the controller adapted at least once
        out = capsys.readouterr().out
        assert "p99 before" in out
        assert "p99 after" in out
        assert "adapted        : True" in out

    def test_pps_demo(self, capsys):
        rc = main(["pps-demo", "--files", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert "ground truth" in out

    def test_kernels_lists_registry(self, capsys):
        rc = main(["kernels"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact_numpy" in out
        assert "compiled" in out

    def test_matrix_kernel_flag(self, capsys, twin_kernel):
        rc = main([
            "matrix", "--servers", "8", "-p", "3", "--duration", "5",
            "--scenario", "steady", "--kernel", twin_kernel,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert twin_kernel in out


class TestInputFailsBeforeAnyRun:
    """Bad CLI input exits 2 with one message before any work starts."""

    @pytest.mark.parametrize("argv", [
        ["matrix"],
        ["profile"],
        ["record", "--out", "run.rec.npz"],
        ["replay", "run.rec.npz"],
    ])
    def test_unknown_kernel_exits_2_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--kernel", "bogus"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unknown scheduling kernel 'bogus'" in err

    @pytest.mark.parametrize("argv", [
        ["matrix", "--servers", "1", "--duration", "5", "--scenario", "steady"],
        ["matrix", "-p", "0", "--duration", "5"],
        ["matrix", "-p", "99", "--duration", "5"],
        ["matrix", "--duration", "-3"],
        ["matrix", "--rate", "-1", "--duration", "5"],
        ["profile", "--servers", "1"],
        ["profile", "-p", "0"],
        ["profile", "-p", "99"],
        ["profile", "--duration", "-3"],
        ["profile", "--rate", "-1"],
        ["record", "--servers", "0", "--out", "{tmp}/run.rec.npz"],
        ["control", "--servers", "1"],
    ])
    def test_out_of_range_sizing_exits_2(self, argv, tmp_path, capsys):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("bad scenario: ")
        assert not list(tmp_path.iterdir())  # nothing recorded

    def test_kernel_alias_resolves_to_its_name(self):
        assert build_parser().parse_args(["matrix", "--kernel", "exact"]).kernel == (
            "exact_numpy"
        )
        assert build_parser().parse_args(["matrix"]).kernel is None

    def test_matrix_missing_trace_fails_before_the_battery(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        rc = main(["matrix", "--servers", "8", "-p", "3", "--duration", "5",
                   "--trace", missing])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and missing in err  # no progress rows

    def test_traces_info_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["traces", "--info", missing]) == 2
        assert missing in capsys.readouterr().err
