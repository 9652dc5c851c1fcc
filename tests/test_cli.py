import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import isingcontrol
from isingcontrol.cli import CONFIG_MAX_CHARS, main, parse_axis, parse_number


# arithmetic that parse_number accepts: numbers, pi and e under + - * / and parentheses
ARITHMETIC = st.recursive(
    st.sampled_from(["1", "2.5", "9", "1e-3", "pi", "e"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map("({0[0]}{0[1]}{0[2]})".format),
        inner.map("-{}".format)),
    max_leaves=6)
# names other than the two constants, including names of callables
IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda name: name not in ("pi", "e"))


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

    @pytest.mark.parametrize("text", ["1e999", "-1e999", "1e308*10", "1e999-1e999"])
    def test_parse_number_rejects_non_finite(self, text):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError, match="not finite"):
            parse_number(text)

    @given(st.one_of(
        IDENTIFIERS,
        st.tuples(ARITHMETIC, ARITHMETIC).map("{0[0]}**{0[1]}".format),
        st.tuples(ARITHMETIC, ARITHMETIC).map("({0[0]})({0[1]})".format),
        st.tuples(IDENTIFIERS, ARITHMETIC).map("{0[0]}({0[1]})".format),
        st.tuples(ARITHMETIC, IDENTIFIERS).map("({0[0]}).{0[1]}".format),
        st.tuples(ARITHMETIC, ARITHMETIC).map("({0[0]})[{0[1]}]".format),
    ), ARITHMETIC, st.sampled_from("+-*/"), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_parse_number_rejects_any_non_arithmetic_term(self, term, other, op, term_first):
        # a term like 9**9**9 would not finish if it were evaluated
        text = f"{term}{op}{other}" if term_first else f"{other}{op}{term}"
        with pytest.raises(argparse.ArgumentTypeError):
            parse_number(text)

    def test_parse_axis(self):
        axis = parse_axis("theta:0:pi/2:25")
        assert axis.name == "theta"
        assert axis.hi == pytest.approx(math.pi / 2)
        assert axis.steps == 25


class TestProcessStart:
    CODE = ("import os, sys, isingcontrol; loaded = 'numpy' in sys.modules; "
            "import isingcontrol.cli; print(loaded, os.environ['OPENBLAS_NUM_THREADS'])")

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_blas_threads_set_before_numpy_loads(self, preset, expected):
        env = dict(os.environ, PYTHONPATH=str(Path(isingcontrol.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", self.CODE], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["False", expected]


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

    @pytest.mark.parametrize("value", ["1e999", "-1e999"])
    def test_non_finite_fixed_value_exits_2(self, value, capsys):
        with pytest.raises(SystemExit) as err:
            main(["surface", "--scheme", "n", "--axis1", "theta:0:1:2",
                  "--axis2", "b_plus:0:1:2", "--fix", "j=0.1", "--fix", f"t={value}"])
        assert err.value.code == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["so", "ab"])
    def test_non_finite_cell_value_exits_3(self, scheme, capsys):
        # b_plus * t overflows, so the propagator phases are nan in every cell
        code = main(["surface", "--scheme", scheme, "--axis1", "theta:0:1:2",
                     "--axis2", "b_plus:1e200:2e200:2", "--fix", "j=0.1", "--fix", "t=1e200"])
        assert code == 3
        captured = capsys.readouterr()
        assert [line.rsplit(",", 1)[1] for line in captured.out.split()[1:]] == ["nan"] * 4
        assert "4 cell(s) failed numerically" in captured.err
        assert captured.err.count("non-finite value nan") == 4

    @pytest.mark.parametrize("scheme", ["f1", "f2", "n-mix"])
    def test_negative_mean_duration_exits_3(self, scheme, capsys):
        code = main(["surface", "--scheme", scheme,
                     "--axis1", "theta:0:1:2", "--axis2", "s:0:0.3:2",
                     "--fix", "b_plus=1", "--fix", "j=1/6", "--fix", "t0=-1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.count("nan") == 4
        assert "mean duration must be positive" in captured.err


    @pytest.mark.parametrize("scheme", ["f1", "f2"])
    def test_coupling_beyond_half_exits_3(self, scheme, capsys):
        code = main(["surface", "--scheme", scheme,
                     "--axis1", "theta:0:1:2", "--axis2", "s:0:0.3:2",
                     "--fix", "b_plus=1", "--fix", "j=0.6", "--fix", "t0=pi/2"])
        assert code == 3
        captured = capsys.readouterr()
        assert [line.rsplit(",", 1)[1] for line in captured.out.split()[1:]] == ["nan"] * 4
        assert "4 cell(s) failed numerically" in captured.err
        assert captured.err.count("j must lie in [0, 1/2], got 0.6") == 4


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

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_config_exits_2(self, capsys):
        # one endless line: the read must stop at the size bound
        assert main(["figure3", "--config", "/dev/zero"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "longer than" in err

    def test_config_just_over_the_bound_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "fig.cfg"
        at_bound = "steps=2\n" + "#" * (CONFIG_MAX_CHARS - 8)
        cfg.write_text(at_bound)
        assert main(["figure3", "--config", str(cfg)]) == 0
        capsys.readouterr()
        cfg.write_text(at_bound + "\n")
        assert main(["figure3", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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
        assert "did not converge" not in err
