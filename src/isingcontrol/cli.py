"""Command-line driver.

Subcommands:

    surface    evaluate one scheme over a two-axis grid, emit CSV
    verify     run the oracle-equivalence suites (exit 1 on failure)
    plan       print a repreparation plan with predicted fidelities
    figure3    preset: suboptimal envelope over (theta, b+)
    figure4    preset: optimized fidelity over (theta, b+) with mode fallback
    figure5a/b/c  presets: mixed-state surfaces over (theta, s)

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error (an arithmetic overflow included), 3 a grid cell failed numerically
(its value is emitted as ``nan``).

The process entry is :func:`run` (``python -m isingcontrol.cli`` and the
``isingcontrol`` console script); :func:`main` is the same command for
callers that stay in the process.
"""
from __future__ import annotations

import argparse
import ast
import gc
import math
import operator
import os
import sys
import warnings

# One BLAS thread unless the caller asks for more: no command runs a BLAS
# call large enough to split, while the worker that OpenBLAS otherwise
# starts per core as numpy loads slows the start by 60-70 ms whenever the
# other cores are busy.  OpenBLAS reads this once, when numpy first loads.
# This module loads only the standard library, and each command imports
# the package modules it uses when it runs, so that is later than here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# the parser's choices, kept equal to sorted(sweeps.SCHEMES) and
# optimize.OBJECTIVE_MODES by the tests: naming them here keeps numpy out
# of building the parser
SCHEME_NAMES = ("ab", "dr1", "dr2", "f-curve", "f1", "f2", "n", "n-mix", "schmidt",
                "so", "witness")
MODE_NAMES = ("as-printed", "reprepare-originals")

_NUMBER_CHARS = set("0123456789.+-*/() epi")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _arithmetic(node: ast.AST) -> float:
    """Evaluate numbers, pi, e, binary + - * / and unary +/-; reject the rest."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _CONSTANTS[node.id]
    op = _OPERATORS.get(type(getattr(node, "op", None)))
    if isinstance(node, ast.BinOp) and op:
        return op(_arithmetic(node.left), _arithmetic(node.right))
    if isinstance(node, ast.UnaryOp) and op:
        return op(_arithmetic(node.operand))
    raise ValueError(f"unsupported syntax {type(getattr(node, 'op', node)).__name__}")


def parse_number(text: str) -> float:
    """Parse a finite float allowing pi/e arithmetic, e.g. 'pi/2' or '3*pi/4'."""
    if not set(text) <= _NUMBER_CHARS:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}")
    try:
        value = float(_arithmetic(ast.parse(text.strip(), mode="eval").body))
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}: {exc}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}: not finite")
    return value


def parse_axis(text: str) -> tuple[str, float, float, int]:
    """The (name, min, max, steps) of an axis; ``sweeps.Axis`` checks them."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"axis must be name:min:max:steps, got {text!r}")
    name, lo, hi, steps = parts
    return name, parse_number(lo), parse_number(hi), int(steps)


def parse_fix(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--fix expects name=value, got {text!r}")
    name, value = text.split("=", 1)
    return name, parse_number(value)


_CONFIG_OPTION_KEYS = ("mode", "steps", "scheme")
CONFIG_MAX_CHARS = 64 * 1024   # a config is a few lines; /dev/zero must not fill memory


def read_config(path: str | None) -> dict:
    """Optional key=value config file; '#' comments and blank lines ignored.

    The option keys are mode, steps and scheme; everything else is a
    fixed sweep parameter (see :func:`_inputs`).
    """
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(CONFIG_MAX_CHARS + 1)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from None
    if len(text) > CONFIG_MAX_CHARS:
        raise ValueError(f"config {path!r} is longer than {CONFIG_MAX_CHARS} characters")
    values = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _inputs(args, **defaults) -> tuple[dict, dict]:
    """A command's options and fixed parameters, from its flags and config.

    Each option comes from its flag, else from the config (cast to the
    default's type), else from the default, so a flag beats the config and
    the config beats the preset.  Every other config key is a fixed number,
    and ``--fix`` beats it.  An option key the command does not take, or a
    ``steps`` that is not an integer, is an error.
    """
    config = read_config(args.config)
    options = {}
    for key, default in defaults.items():
        value = config.pop(key, default)
        flag = getattr(args, key)
        try:
            options[key] = type(default)(value) if flag is None else flag
        except ValueError:      # only steps, the one integer option, can fail its cast
            raise ValueError(f"{args.config}: config key {key!r} must be an integer, "
                             f"got {value!r}") from None
    for key in config:
        if key in _CONFIG_OPTION_KEYS:
            raise ValueError(f"config key {key!r} is not used by {args.command}")
    fixed = {key: parse_number(value) for key, value in config.items()}
    fixed.update(getattr(args, "fix", None) or ())
    return options, fixed


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output {out_path!r}: {exc}") from None


def _emit_sweep(result, out_path: str | None, extra: str = "") -> int:
    _write_output(result.csv_text + extra, out_path)
    if result.failures:
        sys.stderr.write(f"{len(result.failures)} cell(s) failed numerically:\n")
        for msg in result.failures[:20]:
            sys.stderr.write(f"  {msg}\n")
        return 3
    return 0


def _cmd_surface(args) -> int:
    options, fixed = _inputs(args, mode="as-printed")
    from . import sweeps

    spec = sweeps.SweepSpec(scheme=args.scheme, axis1=sweeps.Axis(*args.axis1),
                            axis2=sweeps.Axis(*args.axis2), fixed=fixed, **options)
    return _emit_sweep(sweeps.run_sweep(spec), args.out)


def _cmd_verify(args) -> int:
    from .verify import run_verify

    report = run_verify(level=args.level)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_plan(args) -> int:
    needs = ("b_plus", "j") if args.situation == 1 else ("b1", "b2", "coupling", "duration")
    missing = [f"--{name.replace('_', '-')}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"situation {args.situation} requires {' '.join(missing)}")
    from .control import fidelity_overlap, plan_situation1, plan_situation2
    from .evolution import PhysicalFields, params_from_bj
    from .states import initial_pair

    theta = args.theta
    beta1, beta2 = initial_pair(theta)
    if args.situation == 1:
        p = params_from_bj(args.b_plus, args.j)
        plan = plan_situation1(args.t, p, args.n, args.m)
    else:
        fields = PhysicalFields(b1=args.b1, b2=args.b2, j=args.coupling)
        plan = plan_situation2(args.t, fields, args.duration, args.n, args.m)
    u = plan.composite()
    fid1 = fidelity_overlap(beta1, u @ beta1)
    fid2 = fidelity_overlap(beta2, u @ beta2)
    if args.situation == 1:
        print(f"situation-1 plan  (t={args.t:.9g}, b_plus={p.b_plus:.9g}, "
              f"j={p.j:.9g}, n={plan.n}, m={plan.m})")
        print(f"  duration T            = {plan.duration:.12g}")
        print(f"  delta_b_plus          = {plan.delta_b_plus:.12g}")
        print(f"  rational numerator s  = {int(plan.s_num)}")
        print(f"  residual delta        = {plan.delta:.12g}")
    else:
        print(f"situation-2 plan  (t={args.t:.9g}, B1={fields.b1:.9g}, "
              f"B2={fields.b2:.9g}, J={fields.j:.9g}, T={plan.duration:.9g}, "
              f"n={plan.n}, m={plan.m})")
        print(f"  B_plus_prime          = {plan.b_plus_prime:.12g}")
        print(f"  B_minus_prime         = {plan.b_minus_prime:.12g}")
        print(f"  r, r_prime            = {plan.r:.12g}, {plan.r_prime:.12g}")
        print(f"  f value               = {plan.f_value:.12g}")
        print(f"  delta phase (printed) = {plan.delta_phase:.12g}")
        print(f"  middle phase (actual) = {plan.middle_phase:.12g}")
    print(f"  predicted fidelity beta1                = {fid1:.12g}")
    print(f"  predicted fidelity beta2 (theta={theta:.6g}) = {fid2:.12g}")
    return 0


def _cmd_figure3(args) -> int:
    options, fixed = _inputs(args, steps=50)
    from . import sweeps

    spec = sweeps.figure3_spec(overrides=fixed, **options)
    return _emit_sweep(sweeps.run_sweep(spec), args.out)


def _cmd_figure4(args) -> int:
    options, fixed = _inputs(args, steps=25)
    from . import sweeps

    result = sweeps.figure4_run(overrides=fixed, **options)
    sys.stderr.write(
        f"figure4: operative mode {result.mode} "
        f"(as-printed coverage {result.coverage_as_printed:.3f}, "
        f"operative coverage {result.coverage:.3f}, "
        f"max F_SO - F_DR2 = {result.dominance_gap:.2e})\n")
    meta = (f"# fdr2-mode: {result.mode}\n"
            f"# coverage-above-0.8: {result.coverage:.6f}\n")
    return _emit_sweep(result.sweep, args.out, extra=meta)


def _cmd_figure5(which: str, args) -> int:
    options, fixed = _inputs(args, scheme="n-mix", steps=25)
    from . import sweeps

    spec = sweeps.figure5_spec(which, options["scheme"], options["steps"], fixed)
    return _emit_sweep(sweeps.run_sweep(spec), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingcontrol",
        description="Two-qubit control toolkit: fidelity surfaces, plans, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    surface = sub.add_parser("surface", help="evaluate a scheme over a 2-axis grid")
    surface.add_argument("--scheme", required=True, choices=SCHEME_NAMES)
    surface.add_argument("--axis1", required=True, type=parse_axis,
                         metavar="name:min:max:steps")
    surface.add_argument("--axis2", required=True, type=parse_axis,
                         metavar="name:min:max:steps")
    surface.add_argument("--fix", action="append", type=parse_fix, metavar="name=value")
    surface.add_argument("--mode", default=None, choices=MODE_NAMES)
    surface.add_argument("--out", default=None, help="output path (default stdout)")
    surface.add_argument("--config", default=None,
                         help="key=value file; flags beat it, it beats presets")
    surface.set_defaults(fn=_cmd_surface)

    verify = sub.add_parser("verify", help="run the oracle-equivalence suites")
    verify.add_argument("--level", default="fast", choices=["fast", "full"])
    verify.set_defaults(fn=_cmd_verify)

    plan = sub.add_parser("plan", help="print a repreparation plan")
    plan.add_argument("--situation", type=int, required=True, choices=[1, 2])
    plan.add_argument("--t", type=parse_number, required=True,
                      help="distortion time (rescaled for situation 1, physical for 2)")
    plan.add_argument("--n", type=int, required=True)
    plan.add_argument("--m", type=int, required=True)
    plan.add_argument("--theta", type=parse_number, default=math.pi / 2,
                      help="mixing angle for the second-state prediction (default pi/2)")
    plan.add_argument("--b-plus", type=parse_number, default=None,
                      help="situation 1: dimensionless average field")
    plan.add_argument("--j", type=parse_number, default=None,
                      help="situation 1: dimensionless coupling in [0, 1/2]")
    plan.add_argument("--b1", type=parse_number, default=None,
                      help="situation 2: field on qubit 1")
    plan.add_argument("--b2", type=parse_number, default=None,
                      help="situation 2: field on qubit 2")
    plan.add_argument("--coupling", type=parse_number, default=None,
                      help="situation 2: Ising coupling J > 0")
    plan.add_argument("--duration", type=parse_number, default=None,
                      help="situation 2: correction duration T > 0")
    plan.set_defaults(fn=_cmd_plan)

    for name, helptext in (("figure3", "suboptimal envelope over (theta, b+)"),
                           ("figure4", "optimized fidelity over (theta, b+)")):
        fig = sub.add_parser(name, help=helptext)
        fig.add_argument("--steps", type=int, default=None)
        fig.add_argument("--out", default=None)
        fig.add_argument("--config", default=None)
        fig.set_defaults(fn=_cmd_figure3 if name == "figure3" else _cmd_figure4)

    for which in ("a", "b", "c"):
        fig = sub.add_parser(f"figure5{which}",
                             help=f"mixed-state surface, t0 variant {which}")
        fig.add_argument("--scheme", default=None, choices=["n-mix", "f1", "f2"])
        fig.add_argument("--steps", type=int, default=None, help="theta steps")
        fig.add_argument("--out", default=None)
        fig.add_argument("--config", default=None)
        fig.set_defaults(fn=lambda args, _w=which: _cmd_figure5(_w, args))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _warning_line(message, category, *_) -> str:
    return f"{category.__name__}: {message}\n"


def run() -> None:
    """Run one command and end the process with its exit code.

    A warning prints as one line, its category and message, without the
    source path and line that would tie stderr to where the package is
    installed; ``main`` leaves warnings to its caller.  Before exiting,
    every object left alive is moved into the collector's permanent
    generation, so the collections that run at interpreter shutdown do not
    walk what numpy and the package built at import, which lives until exit
    anyway.  ``main`` does not freeze: a process that goes on after it (a
    test, perfbench's traced rounds) must still collect its cycles.
    """
    warnings.formatwarning = _warning_line
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
