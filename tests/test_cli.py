import math

import pytest

from isingcontrol.cli import main, parse_axis, parse_number


class TestParsing:
    def test_parse_number_plain(self):
        assert parse_number("1.5") == 1.5

    def test_parse_number_pi_expressions(self):
        assert parse_number("pi/2") == pytest.approx(math.pi / 2)
        assert parse_number("3*pi/4") == pytest.approx(3 * math.pi / 4)

    def test_parse_number_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_number("__import__('os')")

    @pytest.mark.parametrize("text", ["9**9**9", "pi**2", "(1)(2)", "pi.real"])
    def test_parse_number_rejects_non_arithmetic(self, text):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_number(text)

    def test_parse_number_matches_python_arithmetic(self):
        assert parse_number("1/6") == 1 / 6
        assert parse_number("-1e-3") == -1e-3
        assert parse_number(" -pi / 2 ") == -math.pi / 2
        assert parse_number("2*(e-1)") == 2 * (math.e - 1)

    def test_parse_axis(self):
        axis = parse_axis("theta:0:pi/2:25")
        assert axis.name == "theta"
        assert axis.hi == pytest.approx(math.pi / 2)
        assert axis.steps == 25


class TestSurfaceCommand:
    def test_dr1_surface_to_stdout(self, capsys):
        code = main(["surface", "--scheme", "dr1",
                     "--axis1", "theta:0:pi/2:5", "--axis2", "dummy:0:1:2"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "axis1,axis2,value"
        assert len(lines) == 11
        assert float(lines[1].split(",")[2]) == pytest.approx(0.5)
        assert float(lines[-1].split(",")[2]) == pytest.approx(1.0)

    def test_surface_to_file_deterministic(self, tmp_path, capsys):
        args = ["surface", "--scheme", "n", "--axis1", "theta:0:pi/2:4",
                "--axis2", "b_plus:0:3:4", "--fix", "j=1/6", "--fix", "t=pi/2"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_scheme_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["surface", "--scheme", "bogus",
                  "--axis1", "theta:0:1:3", "--axis2", "dummy:0:1:2"])
        assert err.value.code == 2

    def test_missing_parameter_exits_2(self, capsys):
        code = main(["surface", "--scheme", "n",
                     "--axis1", "theta:0:1:3", "--axis2", "b_plus:0:1:3"])
        assert code == 2
        assert "missing parameters" in capsys.readouterr().err

    def test_oversized_grid_exits_2(self, capsys):
        code = main(["surface", "--scheme", "dr1",
                     "--axis1", "theta:0:1:100000000", "--axis2", "dummy:0:1:2"])
        assert code == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["surface", "--scheme", "dr1", "--axis1", "theta:0:1:2",
                  "--axis2", "dummy:0:1:2", "--threads", "2"])
        assert err.value.code == 2

    def test_numeric_cell_failure_exits_3(self, capsys):
        code = main(["surface", "--scheme", "witness",
                     "--axis1", "theta:0:1:2", "--axis2", "s:0:0.3:2",
                     "--fix", "b_plus=1", "--fix", "j=0.2", "--fix", "t0=1",
                     "--fix", "state=7"])
        assert code == 3
        captured = capsys.readouterr()
        assert "nan" in captured.out
        assert "failed numerically" in captured.err


class TestPlanCommand:
    def test_situation1_exact_loop(self, capsys):
        code = main(["plan", "--situation", "1", "--t", "pi/2",
                     "--b-plus", "1", "--j", "0.25", "--n", "2", "--m", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "residual delta        = 0" in out
        assert "predicted fidelity beta1                = 1" in out

    def test_situation1_no_time_exits_2(self, capsys):
        code = main(["plan", "--situation", "1", "--t", "4", "--b-plus", "1",
                     "--j", "0.25", "--n", "1", "--m", "0"])
        assert code == 2
        assert "no time" in capsys.readouterr().err

    def test_situation1_missing_flags_exit_2(self, capsys):
        code = main(["plan", "--situation", "1", "--t", "1", "--n", "1", "--m", "0"])
        assert code == 2

    def test_situation2_homogeneous(self, capsys):
        code = main(["plan", "--situation", "2", "--t", "1.1", "--b1", "0.8",
                     "--b2", "0.8", "--coupling", "0.37", "--duration", "1",
                     "--n", "1", "--m", "0", "--theta", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "r, r_prime            = 1, 1" in out
        assert "predicted fidelity beta1                = 1" in out
        assert "predicted fidelity beta2 (theta=0.8) = 1" in out


class TestConfigFile:
    def test_config_supplies_fixed_values(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# defaults\nj=1/6\nt=pi/2\n")
        code = main(["surface", "--scheme", "n", "--axis1", "theta:0:pi/2:3",
                     "--axis2", "b_plus:0:2:3", "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out.startswith("axis1,axis2,value")

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("j=0.4\nt=pi/2\n")
        args = ["surface", "--scheme", "n", "--axis1", "theta:0:pi/2:2",
                "--axis2", "b_plus:1:2:2", "--config", str(cfg)]
        main(args)
        with_config = capsys.readouterr().out
        main(args + ["--fix", "j=1/6"])
        with_flag = capsys.readouterr().out
        main(["surface", "--scheme", "n", "--axis1", "theta:0:pi/2:2",
              "--axis2", "b_plus:1:2:2", "--fix", "j=1/6", "--fix", "t=pi/2"])
        plain = capsys.readouterr().out
        assert with_flag == plain
        assert with_flag != with_config

    def test_config_beats_preset(self, tmp_path, capsys):
        cfg = tmp_path / "fig.cfg"
        cfg.write_text("j=0.4\nsteps=3\n")
        assert main(["figure3", "--config", str(cfg)]) == 0
        configured = capsys.readouterr().out
        assert main(["figure3", "--steps", "3"]) == 0
        preset = capsys.readouterr().out
        assert configured != preset
        assert len(configured.strip().split("\n")) == 1 + 3 * 3

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("j 0.4\n")
        code = main(["surface", "--scheme", "dr1", "--axis1", "theta:0:1:2",
                     "--axis2", "dummy:0:1:2", "--config", str(cfg)])
        assert code == 2
        assert "expected key=value" in capsys.readouterr().err

    def test_threads_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("threads=2\n")
        code = main(["surface", "--scheme", "dr1", "--axis1", "theta:0:1:2",
                     "--axis2", "dummy:0:1:2", "--config", str(cfg)])
        assert code == 2
        assert "'threads' is not used" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        code = main(["surface", "--scheme", "dr1", "--axis1", "theta:0:1:2",
                     "--axis2", "dummy:0:1:2", "--config", "/nonexistent.cfg"])
        assert code == 2


class TestVerifyCommand:
    def test_fast_verify_passes(self, capsys):
        assert main(["verify", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "all checks passed" in out


class TestFigureCommands:
    def test_figure3_small(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure3", "--steps", "4", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "axis1,axis2,value"
        assert len(lines) == 17

    def test_figure5a_small(self, tmp_path):
        out = tmp_path / "fig5a.csv"
        assert main(["figure5a", "--scheme", "f1", "--steps", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 51

    def test_figure4_small(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        assert main(["figure4", "--steps", "4", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# fdr2-mode: " in text
        err = capsys.readouterr().err
        assert "operative mode" in err
