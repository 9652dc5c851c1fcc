"""Surfaces with failing cells, pinned: each grid's CSV and its full list of
failure messages, checked in under ``tests/data/cells/`` as written by the
cell-by-cell evaluation of every failing cell.  Messages must match byte for
byte, values within 1e-12 (relative, for values beyond 1).

The grids are ``surface`` arguments, so each one also runs as a CLI command.
They cover the mixed schemes over the planner inputs (b+, j), (b+, t0) and
(j, t0), and for every scheme a few grids that mix its failure kinds: angle,
coupling, spread, t0 <= 0, T <= 0, n pi <= t0, n = 0, a non-integer index, a
witness key, overflow (rows at +-1e160) and non-finite values.  One grid
spans two blocks of the sweep, with failed cells of each kind in both.

Every grid, and a few more failing surfaces, also runs as a CLI process:
it exits 3 and lists its failures on stderr, with no warning but the
one-line FormulaDeviationWarning.
"""
import contextlib
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import isingcontrol
from isingcontrol.cli import build_parser
from isingcontrol.stochastic import FormulaDeviationWarning
from isingcontrol.sweeps import Axis, SweepSpec, run_sweep

DATA = Path(__file__).parent / "data" / "cells"

MIXED_FIX = "--fix theta=0.7 --fix s=0.2"
WITNESS_KEY = "--fix state=2 --fix wi=0 --fix wj=1"
HUGE = "b_plus:-1e160:1e160:3 --axis2 t0:-1e160:1e160:3 --fix theta=0.7 --fix j=0.2"

GRIDS = {
    **{f"{scheme}_{name}": f"{scheme} {axes} {MIXED_FIX} {fixed}"
       + (f" {WITNESS_KEY}" if scheme == "witness" else "")
       for scheme in ("n-mix", "f1", "f2", "witness")
       for name, axes, fixed in (
           ("bplus_j", "--axis1 b_plus:-3:3:6 --axis2 j:-0.2:0.8:6", "--fix t0=1.5"),
           ("bplus_t0", "--axis1 b_plus:-3:3:6 --axis2 t0:-1.5:6:6", "--fix j=1/6"),
           ("j_t0", "--axis1 j:-0.2:0.8:6 --axis2 t0:-1.5:6:6", "--fix b_plus=1"))},
    "f1_bplus_t0_plans": "f1 --axis1 b_plus:-3:3:6 --axis2 t0:-1.5:6:6 --fix theta=0.7 "
                         "--fix s=0.2 --fix j=1/6 --fix n=1 --fix m=0",
    "dr1_angle": "dr1 --axis1 theta:-0.3:1.9:5 --axis2 dummy:0:1:2",
    **{f"{scheme}_angle_j": f"{scheme} --axis1 theta:-0.3:1.9:5 --axis2 j:-0.2:0.8:6 "
                            "--fix b_plus=1 --fix t=1"
       for scheme in ("n", "ab", "so", "dr2")},
    **{f"{scheme}_overflow": f"{scheme} --axis1 b_plus:-1e160:1e160:3 "
                             "--axis2 t:-1e160:1e160:3 --fix theta=0.7 --fix j=0.2"
       for scheme in ("n", "ab", "so", "dr2")},
    "dr2_originals": "dr2 --axis1 theta:-0.3:1.9:5 --axis2 j:-0.2:0.8:6 --fix b_plus=1 "
                     "--fix t=1 --mode reprepare-originals",
    "schmidt_angle_j": "schmidt --axis1 theta:-0.3:1.9:5 --axis2 j:-0.2:0.8:6 --fix t=1",
    "schmidt_overflow": "schmidt --axis1 theta:0:1:3 --axis2 t:1e308:1.7e308:3 --fix j=0.2",
    "f-curve_overflow": "f-curve --axis1 ratio:-1e160:1e160:3 --axis2 t:-1e160:1e160:3",
    "n-mix_angle_spread": "n-mix --axis1 theta:-0.3:1.9:5 --axis2 s:-0.2:0.6:5 "
                          "--fix b_plus=1 --fix j=1/6 --fix t0=1.5",
    "n-mix_overflow": f"n-mix --axis1 {HUGE} --fix s=0.2",
    "n-mix_overflow_sharp": f"n-mix --axis1 {HUGE} --fix s=0",
    "f1_angle_spread": "f1 --axis1 theta:-0.3:1.9:5 --axis2 s:-0.2:0.6:5 --fix b_plus=1 "
                       "--fix j=1/6 --fix t0=1.5 --fix n=1 --fix m=0",
    "f1_n_t0": f"f1 --axis1 n:-0.5:3:8 --axis2 t0:-1.5:6:6 --fix m=0 {MIXED_FIX} "
               "--fix b_plus=1 --fix j=1/6",
    "f1_m_j": f"f1 --axis1 m:-1:1:5 --axis2 j:-0.2:0.8:6 --fix n=2 {MIXED_FIX} "
              "--fix b_plus=1 --fix t0=1.5",
    "f1_overflow": f"f1 --axis1 {HUGE} --fix s=0.2",
    "f1_overflow_indices": f"f1 --axis1 {HUGE} --fix s=0.2 --fix n=1e160 --fix m=-1e160",
    "f2_angle_spread": "f2 --axis1 theta:-0.3:1.9:5 --axis2 s:-0.2:0.6:5 --fix b_plus=1 "
                       "--fix j=1/6 --fix t0=1.5",
    "f2_duration_n": f"f2 --axis1 T:-0.5:2:6 --axis2 n:-0.5:2:6 --fix m=0 {MIXED_FIX} "
                     "--fix b_plus=1 --fix j=1/6 --fix t0=1.5",
    "f2_j_t0_two_blocks": "f2 --axis1 j:-0.05:0.55:40 --axis2 t0:-1:8:40 "
                          f"{MIXED_FIX} --fix b_plus=1",
    "f2_tiny_duration_j": f"f2 --axis1 T:-1e-308:1e-308:3 --axis2 j:-0.2:0.8:6 --fix n=1 "
                          f"--fix m=0 {MIXED_FIX} --fix b_plus=1 --fix t0=1.5",
    "f2_overflow": f"f2 --axis1 {HUGE} --fix s=0.2",
    "f2_overflow_indices": f"f2 --axis1 {HUGE} --fix s=0.2 --fix n=3 --fix m=1",
    "witness_key": "witness --axis1 state:0:3:4 --axis2 wi:-1:2:4 --fix wj=0 "
                   f"{MIXED_FIX} --fix b_plus=1 --fix j=1/6 --fix t0=1.5",
    "witness_index_spread": "witness --axis1 wj:-0.5:1:4 --axis2 s:-0.2:0.6:5 "
                            "--fix state=2 --fix wi=1 --fix theta=0.7 --fix b_plus=1 "
                            "--fix j=1/6 --fix t0=1.5",
    "witness_overflow": f"witness --axis1 {HUGE} --fix s=0 --fix state=2 --fix wi=0 "
                        "--fix wj=0",
}

# failing surfaces run as CLI processes only; their failures are listed as
# the sweep in process lists them
PROCESS_GRIDS = {
    "schmidt_huge_t": "schmidt --axis1 theta:0:1:3 --axis2 j:0:0.4:3 --fix t=1e308",
    "f2_angle_j": "f2 --axis1 theta:-0.5:2:6 --axis2 j:-0.1:0.7:8 --fix s=0.2 "
                  "--fix b_plus=1 --fix t0=1.5",
    "dr2_angle_j_6x6": "dr2 --axis1 theta:-0.3:1.9:6 --axis2 j:-0.1:0.6:6 --fix b_plus=1 "
                       "--fix t=1",
    "f1_angle_spread_30x20": "f1 --axis1 theta:-0.1:1.6:30 --axis2 s:-0.01:0.5:20 "
                             "--fix j=1/6 --fix b_plus=1 --fix t0=1.5",
}


def sweep(args: str):
    """The sweep of a ``surface`` command's arguments (its scheme first)."""
    ns = build_parser().parse_args(["surface", "--scheme", *shlex.split(args)])
    return run_sweep(SweepSpec(scheme=ns.scheme, axis1=Axis(*ns.axis1), axis2=Axis(*ns.axis2),
                               fixed=dict(ns.fix or ()), mode=ns.mode or "as-printed"))


# grids whose do-nothing closed form deviates from the pipeline, which warns
DEVIATIONS = {"n-mix_overflow": "2.232e-01", "n-mix_overflow_sharp": "2.248e-01"}


def failure_text(failures) -> str:
    return "".join(f"{msg}\n" for msg in failures)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_failed_cells_match_checked_in_grid(name):
    with (pytest.warns(FormulaDeviationWarning, match=f"by {DEVIATIONS[name]};")
          if name in DEVIATIONS else contextlib.nullcontext()):
        result = sweep(GRIDS[name])
    assert failure_text(result.failures) == (DATA / f"{name}.failures").read_text()
    fixture = (DATA / f"{name}.csv").read_text().splitlines()
    rows = result.csv_text.splitlines()
    assert rows[0] == fixture[0] and len(rows) == len(fixture)
    for row, value, expected in zip(rows[1:], result.values.ravel(), fixture[1:]):
        expected_axes, expected_value = expected.rsplit(",", 1)
        assert row.rsplit(",", 1)[0] == expected_axes
        expected_value = float(expected_value)
        if math.isnan(expected_value):
            assert math.isnan(value)
        else:
            assert abs(value - expected_value) <= 1e-12 * max(1.0, abs(expected_value))


@pytest.mark.parametrize("name", sorted(GRIDS) + sorted(PROCESS_GRIDS))
def test_cli_process_exits_3_and_lists_failures(name):
    args = GRIDS.get(name) or PROCESS_GRIDS[name]
    env = dict(os.environ, PYTHONPATH=str(Path(isingcontrol.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "isingcontrol.cli", "surface", "--scheme",
                           *shlex.split(args)], env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    listed = [line for line in proc.stderr.splitlines(keepends=True)
              if not line.startswith("FormulaDeviationWarning: ")]
    assert not any("Warning" in line for line in listed)
    failures = ((DATA / f"{name}.failures").read_text().splitlines() if name in GRIDS
                else sweep(args).failures)
    assert "".join(listed) == (f"{len(failures)} cell(s) failed numerically:\n"
                               + failure_text(f"  {msg}" for msg in failures[:20]))
