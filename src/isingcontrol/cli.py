"""Command-line driver.

Subcommands:

    surface    evaluate one scheme over a two-axis grid, emit CSV
    verify     run the oracle-equivalence suites (exit 1 on failure)
    plan       print a repreparation plan with predicted fidelities
    figure3    preset: suboptimal envelope over (theta, b+)
    figure4    preset: optimized fidelity over (theta, b+) with mode fallback
    figure5a/b/c  presets: mixed-state surfaces over (theta, s)

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error, 3 a grid cell failed numerically (its value is emitted as ``nan``).
"""
from __future__ import annotations

import argparse
import ast
import math
import operator
import os
import sys

# One BLAS thread unless the caller asks for more: no command runs a BLAS
# call large enough to split, while the worker that OpenBLAS otherwise
# starts per core as numpy loads slows the start by 60-70 ms whenever the
# other cores are busy.  OpenBLAS reads this once, when numpy first loads,
# which the package's lazy exports leave to the import below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import sweeps  # noqa: E402
from .control import (
    apply_situation1,
    apply_situation2,
    fidelity_overlap,
    plan_situation1,
    plan_situation2,
)
from .evolution import PhysicalFields, params_from_bj
from .states import initial_pair
from .verify import run_verify

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


def parse_axis(text: str) -> sweeps.Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"axis must be name:min:max:steps, got {text!r}")
    name, lo, hi, steps = parts
    return sweeps.Axis(name=name, lo=parse_number(lo), hi=parse_number(hi),
                       steps=int(steps))


def parse_fix(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--fix expects name=value, got {text!r}")
    name, value = text.split("=", 1)
    return name, parse_number(value)


_CONFIG_OPTION_KEYS = ("mode", "steps", "scheme")
CONFIG_MAX_CHARS = 64 * 1024   # a config is a few lines; /dev/zero must not fill memory


def read_config(path: str | None) -> dict:
    """Optional key=value config file; '#' comments and blank lines ignored.

    Recognized option keys: mode, steps, scheme; everything else
    is a fixed sweep parameter.  Precedence is always
    command-line flag > config value > built-in preset value.
    """
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(CONFIG_MAX_CHARS + 1)
    except OSError as exc:
        raise SystemExit2(f"cannot read config {path!r}: {exc}") from None
    if len(text) > CONFIG_MAX_CHARS:
        raise SystemExit2(f"config {path!r} is longer than {CONFIG_MAX_CHARS} characters")
    values = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SystemExit2(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _config_fixed(config: dict) -> dict:
    try:
        return {k: parse_number(v) for k, v in config.items()
                if k not in _CONFIG_OPTION_KEYS}
    except argparse.ArgumentTypeError as exc:
        raise SystemExit2(str(exc)) from None


def _pick(flag_value, config: dict, key: str, fallback, cast=lambda v: v):
    if flag_value is not None:
        return flag_value
    if key in config:
        return cast(config[key])
    return fallback


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_sweep(result: sweeps.SweepResult, out_path: str | None, extra: str = "") -> int:
    _write_output(result.csv_text + extra, out_path)
    if result.failures:
        sys.stderr.write(f"{len(result.failures)} cell(s) failed numerically:\n")
        for msg in result.failures[:20]:
            sys.stderr.write(f"  {msg}\n")
        return 3
    return 0


def _cmd_surface(args) -> int:
    config = read_config(args.config)
    fixed = _config_fixed(config)
    fixed.update(dict(args.fix or ()))
    spec = sweeps.SweepSpec(
        scheme=args.scheme,
        axis1=args.axis1,
        axis2=args.axis2,
        fixed=fixed,
        mode=_pick(args.mode, config, "mode", "as-printed"),
    )
    return _emit_sweep(sweeps.run_sweep(spec), args.out)


def _cmd_verify(args) -> int:
    report = run_verify(level=args.level)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_plan(args) -> int:
    theta = args.theta
    beta1, beta2 = initial_pair(theta)
    if args.situation == 1:
        p = params_from_bj(args.b_plus, args.j)
        plan = plan_situation1(args.t, p, args.n, args.m)
        fid1 = fidelity_overlap(beta1, apply_situation1(plan, p, beta1))
        fid2 = fidelity_overlap(beta2, apply_situation1(plan, p, beta2))
        print(f"situation-1 plan  (t={args.t:.9g}, b_plus={p.b_plus:.9g}, "
              f"j={p.j:.9g}, n={plan.n}, m={plan.m})")
        print(f"  duration T            = {plan.duration:.12g}")
        print(f"  delta_b_plus          = {plan.delta_b_plus:.12g}")
        print(f"  rational numerator s  = {plan.s_num}")
        print(f"  residual delta        = {plan.delta:.12g}")
    else:
        fields = PhysicalFields(b1=args.b1, b2=args.b2, j=args.coupling)
        plan = plan_situation2(args.t, fields, args.duration, args.n, args.m)
        fid1 = fidelity_overlap(beta1, apply_situation2(plan, fields, args.t, beta1))
        fid2 = fidelity_overlap(beta2, apply_situation2(plan, fields, args.t, beta2))
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
    config = read_config(args.config)
    spec = sweeps.figure3_spec(
        steps=_pick(args.steps, config, "steps", 50, int),
        overrides=_config_fixed(config),
    )
    return _emit_sweep(sweeps.run_sweep(spec), args.out)


def _cmd_figure4(args) -> int:
    config = read_config(args.config)
    result = sweeps.figure4_run(
        steps=_pick(args.steps, config, "steps", 25, int),
        overrides=_config_fixed(config),
    )
    sys.stderr.write(
        f"figure4: operative mode {result.mode} "
        f"(as-printed coverage {result.coverage_as_printed:.3f}, "
        f"operative coverage {result.coverage:.3f}, "
        f"max F_SO - F_DR2 = {result.dominance_gap:.2e})\n")
    meta = (f"# fdr2-mode: {result.mode}\n"
            f"# coverage-above-0.8: {result.coverage:.6f}\n")
    return _emit_sweep(result.sweep, args.out, extra=meta)


def _cmd_figure5(which: str, args) -> int:
    config = read_config(args.config)
    spec = sweeps.figure5_spec(
        which,
        scheme=_pick(args.scheme, config, "scheme", "n-mix"),
        theta_steps=_pick(args.steps, config, "steps", 25, int),
        overrides=_config_fixed(config),
    )
    return _emit_sweep(sweeps.run_sweep(spec), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingcontrol",
        description="Two-qubit control toolkit: fidelity surfaces, plans, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    surface = sub.add_parser("surface", help="evaluate a scheme over a 2-axis grid")
    surface.add_argument("--scheme", required=True, choices=sorted(sweeps.SCHEMES))
    surface.add_argument("--axis1", required=True, type=parse_axis,
                         metavar="name:min:max:steps")
    surface.add_argument("--axis2", required=True, type=parse_axis,
                         metavar="name:min:max:steps")
    surface.add_argument("--fix", action="append", type=parse_fix, metavar="name=value")
    surface.add_argument("--mode", default=None,
                         choices=["as-printed", "reprepare-originals"])
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


def _validate_plan_args(args) -> None:
    if args.situation == 1:
        missing = [f for f in ("b_plus", "j") if getattr(args, f) is None]
        if missing:
            raise SystemExit2(f"situation 1 requires --{' --'.join(m.replace('_', '-') for m in missing)}")
    else:
        missing = [f for f in ("b1", "b2", "coupling", "duration")
                   if getattr(args, f) is None]
        if missing:
            raise SystemExit2(f"situation 2 requires --{' --'.join(missing)}")


class SystemExit2(Exception):
    """Usage/precondition error mapped to exit code 2."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "plan":
            _validate_plan_args(args)
        return args.fn(args)
    except (SystemExit2, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
