import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import isingcontrol
from isingcontrol import sweeps
from isingcontrol.cli import (CONFIG_MAX_CHARS, build_parser, main, parse_axis, parse_fix,
                              parse_number)
from isingcontrol.optimize import OBJECTIVE_MODES
from isingcontrol.stochastic import FormulaDeviationWarning


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

# where a drawn surface spec takes each parameter from; the repreparation and
# witness indices keep their defaults
RANGES = {"theta": (0.0, 1.6), "b_plus": (-3.0, 3.0), "j": (0.0, 0.5), "t": (-6.0, 6.0),
          "t0": (0.5, 6.0), "s": (0.0, 0.5), "ratio": (-3.0, 3.0), "dummy": (0.0, 1.0)}


@st.composite
def surface_argv(draw):
    """``surface`` arguments: a scheme, two of its parameters as axes of 2-4
    steps, and every other parameter without a default fixed."""
    scheme = draw(st.sampled_from(sorted(sweeps.SCHEMES)))
    defined = sweeps.SCHEMES[scheme]
    names = [name for name in defined.params if name not in defined.defaults]
    axes = draw(st.permutations([*names, "dummy"]))[:2]
    value = {name: st.floats(*RANGES[name]).map(repr) for name in RANGES}
    argv = ["surface", "--scheme", scheme]
    for flag, name in zip(("--axis1", "--axis2"), axes):
        argv += [flag, f"{name}:{draw(value[name])}:{draw(value[name])}:"
                       f"{draw(st.integers(2, 4))}"]
    for name in names:
        if name not in axes:
            argv += ["--fix", f"{name}={draw(value[name])}"]
    return argv


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
        name, lo, hi, steps = parse_axis("theta:0:pi/2:25")
        assert (name, lo, steps) == ("theta", 0.0, 25)
        assert hi == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("text", ["theta:0:1", "theta:0:1:2:3", "theta"])
    def test_parse_axis_needs_four_fields(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="axis must be name:min:max:steps"):
            parse_axis(text)

    def test_parse_fix(self):
        assert parse_fix("t=pi/2") == ("t", pytest.approx(math.pi / 2))
        with pytest.raises(argparse.ArgumentTypeError, match="--fix expects name=value"):
            parse_fix("t")


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

    # main(argv) with its output dropped, then the exit code, whether numpy
    # loaded, and the package modules that loaded
    MAIN = ("import contextlib, io, sys\n"
            "from isingcontrol.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        code = main(sys.argv[1:])\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n")
    REPORT = ("import json\n"
              "print(json.dumps([code, 'numpy' in sys.modules,\n"
              "                  sorted(m for m in sys.modules if m.startswith('isingcontrol.'))]))")

    def probe(self, *argv, run=MAIN):
        env = dict(os.environ, PYTHONPATH=str(Path(isingcontrol.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", run + self.REPORT, *argv], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    def test_building_the_parser_loads_no_numpy(self):
        run = "import sys\nfrom isingcontrol.cli import build_parser\nbuild_parser()\ncode = 0\n"
        assert self.probe(run=run) == [0, False, ["isingcontrol.cli"]]

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["figure3", "--steps", "x"], 2),
        (["figure3", "--config", "/nonexistent"], 2),
        (["surface", "--scheme", "so", "--axis1", "theta:0:1:2", "--axis2", "b_plus:0:1:2",
          "--fix", "bad"], 2),
        (["surface", "--scheme", "so", "--axis1", "theta:0:1:2", "--axis2", "b_plus:0:1:2",
          "--config", "/nonexistent"], 2),
    ], ids=["help", "usage-error", "missing-config", "surface-usage-error",
            "surface-missing-config"])
    def test_help_and_input_errors_load_no_numpy(self, argv, code):
        assert self.probe(*argv) == [code, False, ["isingcontrol.cli"]]

    def test_option_key_the_command_does_not_take_loads_no_numpy(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("steps=7\n")
        assert self.probe("surface", "--scheme", "so", "--axis1", "theta:0:1:2",
                          "--axis2", "b_plus:0:1:2", "--config", str(cfg)) == [
            2, False, ["isingcontrol.cli"]]

    def test_config_steps_that_is_not_an_integer_loads_no_numpy(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("steps=abc\n")
        assert self.probe("figure3", "--config", str(cfg)) == [2, False, ["isingcontrol.cli"]]

    def test_verify_loads_neither_sweeps_nor_optimize(self):
        code, _, modules = self.probe("verify", "--level", "fast")
        assert code == 0
        assert "isingcontrol.verify" in modules
        assert not {"isingcontrol.sweeps", "isingcontrol.optimize"} & set(modules)

    def test_verify_loads_neither_numpy_random_nor_control(self):
        """The propagator suite's models come from a quasi-random sequence,
        the quadrature oracle builds its own Gauss-Hermite rule, and only f1
        and f2 import control."""
        run = self.MAIN + ("code = [code, 'numpy.random' in sys.modules,\n"
                           "        'numpy.polynomial' in sys.modules]\n")
        (code, random, polynomial), numpy, modules = self.probe("verify", "--level", "full",
                                                                run=run)
        assert (code, random, polynomial, numpy) == (0, False, False, True)
        assert "isingcontrol.stochastic" in modules
        assert "isingcontrol.control" not in modules

    def test_plan_loads_only_its_modules(self):
        argv = ["plan", "--situation", "1", "--t", "pi/2", "--b-plus", "1", "--j", "0.25",
                "--n", "2", "--m", "0"]
        assert self.probe(*argv) == [0, True, [
            "isingcontrol.cli", "isingcontrol.control", "isingcontrol.evolution",
            "isingcontrol.linalg", "isingcontrol.states"]]

    @pytest.mark.parametrize("argv, expected", [
        (["figure3", "--steps", "3"], set()),
        (["figure4", "--steps", "3"], set()),
        (["figure5a", "--steps", "3", "--scheme", "n-mix"], {"stochastic"}),
        *((["figure5a", "--steps", "3", "--scheme", scheme], {"stochastic", "control"})
          for scheme in ("f1", "f2")),
    ], ids=["figure3", "figure4", "figure5a-n-mix", "figure5a-f1", "figure5a-f2"])
    def test_only_mixed_state_jobs_load_stochastic_and_control(self, argv, expected):
        """stochastic loads for the mixed-state schemes, and control only for
        the two that plan a correction."""
        code, _, modules = self.probe(*argv)
        assert code == 0
        assert "isingcontrol.sweeps" in modules
        loaded = {"isingcontrol.stochastic", "isingcontrol.control"} & set(modules)
        assert loaded == {f"isingcontrol.{name}" for name in expected}

    def test_parser_choices_match_the_package(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        choices = {a.dest: a.choices for a in commands["surface"]._actions}
        assert tuple(choices["scheme"]) == tuple(sorted(sweeps.SCHEMES))
        assert tuple(choices["mode"]) == OBJECTIVE_MODES


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

    def test_overflowing_axis_span_exits_2(self, capsys):
        # finite bounds whose difference overflows: linspace would give nan, inf
        code = main(["surface", "--scheme", "schmidt", "--axis1", "theta:0:1:3",
                     "--axis2", "t:-1e308:1e308:3", "--fix", "j=0.2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: axis 't' span from -1e+308 to 1e+308 overflows a float\n"

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
    @pytest.mark.parametrize("args, given", [
        (["--axis2", "s:0:0.3:2", "--fix", "n=3"], "n"),
        (["--axis2", "s:0:0.3:2", "--fix", "m=1"], "m"),
        (["--axis2", "n:1:3:3", "--fix", "s=0.1"], "n"),
    ], ids=["fix-n-only", "fix-m-only", "n-as-axis"])
    def test_one_repreparation_index_exits_2(self, scheme, args, given, capsys):
        code = main(["surface", "--scheme", scheme, "--axis1", "theta:0:1:2", *args,
                     "--fix", "b_plus=1", "--fix", "j=1/6", "--fix", "t0=1.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: scheme {scheme!r} takes the indices n and m "
                                f"together or neither, got only {given}\n")

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
    @pytest.mark.parametrize("situation, argv", [
        (1, ["--t", "pi/2", "--b-plus", "1", "--j", "0.25", "--n", "2", "--m", "0"]),
        (2, ["--t", "1", "--b1", "1", "--b2", "0", "--coupling", "0.5", "--duration", "1.7",
             "--n", "1", "--m", "0", "--theta", "0.8"]),
    ])
    def test_plan_text_is_pinned(self, situation, argv, capsys):
        # the README and CI plans, byte for byte as checked in
        assert main(["plan", "--situation", str(situation), *argv]) == 0
        captured = capsys.readouterr()
        pinned = Path(__file__).parent / "data" / f"plan_situation{situation}.txt"
        assert captured.out.encode() == pinned.read_bytes()
        assert captured.err == ""

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
        assert capsys.readouterr().err == "error: situation 1 requires --b-plus --j\n"

    @pytest.mark.parametrize("given, missing", [
        ([], "--b1 --b2 --coupling --duration"),
        (["--b2", "0", "--duration", "1"], "--b1 --coupling"),
    ])
    def test_situation2_missing_flags_exit_2(self, given, missing, capsys):
        code = main(["plan", "--situation", "2", "--t", "1", "--n", "1", "--m", "0", *given])
        assert code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: situation 2 requires {missing}\n")

    @pytest.mark.parametrize("argv", [
        # unwrap_arctan rounds an infinite R t / pi
        ["--situation", "2", "--t", "1e308", "--b1", "1e308", "--b2", "0",
         "--coupling", "0.5", "--duration", "1", "--n", "1", "--m", "0"],
        # n pi overflows a float in plan_situation1
        ["--situation", "1", "--t", "1", "--b-plus", "1", "--j", "0.25",
         "--n", "1" + "0" * 400, "--m", "0"],
    ])
    def test_overflow_exits_2(self, argv, capsys):
        code = main(["plan", *argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_situation1_zero_loop_index_exits_2(self, capsys):
        code = main(["plan", "--situation", "1", "--t", "-1", "--b-plus", "1",
                     "--j", "0.25", "--n", "0", "--m", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: loop index n must be nonzero, got 0\n"

    def test_situation2_non_finite_fields_exit_2(self, capsys):
        code = main(["plan", "--situation", "2", "--t", "1", "--b1", "1", "--b2", "0",
                     "--coupling", "0.5", "--duration", "1e-320", "--n", "1", "--m", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: correcting fields are not finite")
        assert captured.err.count("\n") == 1

    def test_subnormal_duration_writes_only_the_error_line(self):
        """In a process of its own, where numpy would print its overflow
        warning to stderr (pytest captures warnings in process)."""
        env = dict(os.environ, PYTHONPATH=str(Path(isingcontrol.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "isingcontrol.cli", "plan", "--situation", "2",
             "--t", "1", "--b1", "1", "--b2", "0", "--coupling", "0.5",
             "--duration", "1e-320", "--n", "1", "--m", "0"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: correcting fields are not finite: B_plus_prime = inf, "
                               "B_minus_prime = inf for T = 1e-320\n")

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

    def test_one_repreparation_index_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("b_plus=1\nj=1/6\nt0=1.5\nm=0\n")
        code = main(["surface", "--scheme", "f1", "--axis1", "theta:0:1:2",
                     "--axis2", "s:0:0.3:2", "--config", str(cfg)])
        assert code == 2
        assert "n and m together or neither, got only m" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["f1", "f2"])
    @pytest.mark.parametrize("given", ["n", "m"])
    def test_one_repreparation_index_on_a_figure5_preset_exits_2(self, tmp_path, scheme,
                                                                   given, capsys):
        # the preset derives n and m only when the config names neither
        cfg = tmp_path / "fig.cfg"
        cfg.write_text(f"{given}=5\n")
        code = main(["figure5a", "--scheme", scheme, "--steps", "3", "--config", str(cfg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: scheme {scheme!r} takes the indices n and m together "
                                f"or neither, got only {given}\n")

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

    @pytest.mark.parametrize("argv, key", [
        (["figure3", "--steps", "3"], "scheme=so"),
        (["figure3", "--steps", "3"], "mode=as-printed"),
        (["figure4", "--steps", "3"], "mode=foo"),
        (["figure5a", "--steps", "3"], "mode=reprepare-originals"),
        (["surface", "--scheme", "dr1", "--axis1", "theta:0:1:2", "--axis2", "dummy:0:1:2"],
         "steps=7"),
        (["surface", "--scheme", "dr1", "--axis1", "theta:0:1:2", "--axis2", "dummy:0:1:2"],
         "scheme=f1"),
    ], ids=["figure3-scheme", "figure3-mode", "figure4-mode", "figure5a-mode",
            "surface-steps", "surface-scheme"])
    def test_option_key_the_command_does_not_take_exits_2(self, tmp_path, argv, key,
                                                          capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"j=0.2\n{key}\n")
        assert main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = key.split("=")[0]
        assert captured.err == f"error: config key {name!r} is not used by {argv[0]}\n"

    @pytest.mark.parametrize("argv", [
        ["figure3", "--steps", "3"],
        ["surface", "--scheme", "dr1", "--axis1", "theta:0:1:2", "--axis2", "dummy:0:1:2"],
    ])
    def test_config_value_that_is_not_a_number_exits_2(self, tmp_path, argv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("j=one\n")
        assert main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: cannot parse number 'one'\n")

    @pytest.mark.parametrize("command, value", [
        ("figure3", "abc"), ("figure3", "3.0"), ("figure4", ""), ("figure5a", "x"),
    ], ids=["figure3-abc", "figure3-3.0", "figure4-empty", "figure5a-x"])
    def test_config_steps_that_is_not_an_integer_exits_2(self, tmp_path, command, value,
                                                         capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"steps={value}\n")
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {cfg}: config key 'steps' must be an integer, got {value!r}\n")

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


class TestProcessEntry:
    """``python -m isingcontrol.cli`` ends through ``run``, which freezes the
    collector before exiting: every byte the command writes still arrives."""

    DATA = Path(__file__).parent / "data"

    def run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(isingcontrol.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)   # buffered, so an exit that skips the flush shows
        return subprocess.run([sys.executable, "-m", "isingcontrol.cli", *argv], env=env,
                              capture_output=True)

    @pytest.fixture(scope="class")
    def checkout(self, tmp_path_factory):
        """A second copy of the package, in another directory."""
        root = tmp_path_factory.mktemp("checkout")
        shutil.copytree(Path(isingcontrol.__file__).parent, root / "isingcontrol",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    @given(argv=surface_argv())
    @settings(max_examples=6, deadline=None)
    def test_any_checkout_and_dispatch_level_write_the_same_bytes(self, checkout, argv):
        """A drawn surface gives the same stdout and exit code from a second
        checkout, run from its own directory, with numpy's X86_V4 and X86_V3
        kernels switched off (stderr may carry a numpy notice)."""
        first = self.run(*argv)
        env = dict(os.environ, PYTHONPATH=str(checkout),
                   NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3")
        second = subprocess.run([sys.executable, "-m", "isingcontrol.cli", *argv], env=env,
                                cwd=checkout, capture_output=True)
        assert (second.returncode, second.stdout) == (first.returncode, first.stdout)
        assert first.returncode in (0, 3)

    def test_figure3_to_stdout_and_to_file(self, tmp_path):
        pinned = (self.DATA / "figure3_steps10.csv").read_bytes()
        proc = self.run("figure3", "--steps", "10")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, pinned, b"")
        out = tmp_path / "figure3.csv"
        proc = self.run("figure3", "--steps", "10", "--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert out.read_bytes() == pinned

    def test_verify_report(self):
        proc = self.run("verify", "--level", "fast")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (self.DATA / "verify_fast.txt").read_bytes()

    def test_figure4_with_its_summary_line(self, capsys):
        proc = self.run("figure4", "--steps", "5")
        assert proc.returncode == 0
        assert proc.stdout == (self.DATA / "figure4_steps5.csv").read_bytes()
        assert main(["figure4", "--steps", "5"]) == 0
        summary = capsys.readouterr().err
        assert summary.startswith("figure4: operative mode ") and summary.count("\n") == 1
        assert proc.stderr.decode() == summary

    def test_failing_grid_lists_every_failure(self):
        proc = self.run("surface", "--scheme", "n-mix", "--axis1", "b_plus:-3:3:6",
                        "--axis2", "j:-0.2:0.8:6", "--fix", "theta=0.7", "--fix", "s=0.2",
                        "--fix", "t0=1.5")
        failures = (self.DATA / "cells" / "n-mix_bplus_j.failures").read_text().splitlines()
        pinned = (self.DATA / "cells" / "n-mix_bplus_j.csv").read_text().splitlines()
        assert proc.returncode == 3
        assert ([row.rsplit(",", 1)[0] for row in proc.stdout.decode().splitlines()]
                == [row.rsplit(",", 1)[0] for row in pinned])
        assert proc.stderr.decode() == "".join(
            [f"{len(failures)} cell(s) failed numerically:\n",
             *(f"  {msg}\n" for msg in failures)])

    def test_formula_deviation_warning_is_one_line(self):
        proc = self.run("surface", "--scheme", "n-mix", "--axis1", "b_plus:-1e160:1e160:3",
                        "--axis2", "t0:-1e160:1e160:3", "--fix", "theta=0.7",
                        "--fix", "j=0.2", "--fix", "s=0.2")
        failures = (self.DATA / "cells" / "n-mix_overflow.failures").read_text().splitlines()
        assert proc.returncode == 3 and len(failures) == 8
        assert proc.stderr.decode() == "".join(
            ["FormulaDeviationWarning: do-nothing closed form deviates from pipeline "
             "by 2.232e-01; returning the pipeline value\n",
             "8 cell(s) failed numerically:\n", *(f"  {msg}\n" for msg in failures)])
        assert not any(".py" in line or os.sep in line
                       for line in proc.stderr.decode().splitlines())

    def test_library_callers_still_receive_the_warning(self):
        with pytest.warns(FormulaDeviationWarning, match="deviates from pipeline by 2.232e-01"):
            assert main(["surface", "--scheme", "n-mix", "--axis1", "b_plus:-1e160:1e160:3",
                         "--axis2", "t0:-1e160:1e160:3", "--fix", "theta=0.7",
                         "--fix", "j=0.2", "--fix", "s=0.2"]) == 3


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

    @pytest.mark.parametrize("argv", [
        ["surface", "--scheme", "dr1", "--axis1", "theta:0:1:3", "--axis2", "dummy:0:1:2"],
        ["figure3", "--steps", "3"],
        ["figure4", "--steps", "3"],
    ])
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: cannot write output {str(out)!r}: "
                          f"[Errno 2] No such file or directory: {str(out)!r}"]
        assert "Traceback" not in captured.err
