"""Tests of the benchmark's own checks: each must pass the program's real
output and flag a deliberately broken one.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from isingcontrol import sweeps  # noqa: E402
from isingcontrol.evolution import evolution_closed_form  # noqa: E402
from isingcontrol.verify import run_verify  # noqa: E402

J, T = 0.21, 1.3


def _perturb_cell(csv_text: str, row: int, delta: float) -> str:
    lines = csv_text.split("\n")
    a1, a2, value = lines[row].split(",")
    lines[row] = f"{a1},{a2},{float(value) + delta:.12g}"
    return "\n".join(lines)


@pytest.fixture(scope="module")
def figure3():
    spec = sweeps.figure3_spec(steps=7, overrides={"j": J, "t": T})
    return spec, sweeps.run_sweep(spec).csv_text


def _check_figure3(spec, text):
    thetas, b_plus = spec.axis1.values(), spec.axis2.values()
    problems, values = checks.check_csv_grid(text, thetas, b_plus)
    if values is None:
        return problems
    return problems + checks.check_figure3(values, thetas, b_plus, J, T)


def test_figure3_output_passes(figure3):
    assert _check_figure3(*figure3) == []


def test_perturbed_csv_cell_is_flagged(figure3):
    spec, text = figure3
    assert _check_figure3(spec, _perturb_cell(text, 20, 1e-7))


def test_swapped_rows_are_flagged(figure3):
    spec, text = figure3
    lines = text.split("\n")
    lines[3], lines[4] = lines[4], lines[3]
    assert _check_figure3(spec, "\n".join(lines))


def test_wrong_row_count_is_flagged(figure3):
    spec, text = figure3
    assert _check_figure3(spec, text.replace(text.split("\n")[-2] + "\n", ""))


def test_rerun_with_different_bytes_is_a_failure(figure3):
    spec, text = figure3
    job = jobs.Job("figure3", "figure3", 7, params={"j": J, "t": T})
    assert run.count_failures([(job, 0, text), (job, 0, text)], seed=1) == (0, [])
    failed, _ = run.count_failures([(job, 0, text), (job, 0, text + "\n")], seed=1)
    assert failed == 1


@pytest.mark.parametrize("scheme", ["n-mix", "f1", "f2"])
def test_figure5_cells_match_quadrature_and_perturbation_is_flagged(scheme):
    params = {"j": 0.23, "b_plus": 1.2, "t0": 3.0 * math.pi / 4.0 * 1.05}
    job = jobs.Job(f"figure5b-{scheme}", "figure5b", 5, scheme, params)
    spec = sweeps.figure5_spec("b", scheme=scheme, theta_steps=5, overrides=params)
    text = sweeps.run_sweep(spec).csv_text
    assert jobs.check_output(job, text, seed=1) == []
    assert jobs.check_output(job, _perturb_cell(text, 60, 1e-6), seed=1)


@pytest.fixture(scope="module")
def figure4():
    j, t = jobs.FIGURE4_POOL[0]
    job = jobs.Job("figure4-0", "figure4", 3, params={"j": j, "t": t})
    result = sweeps.figure4_run(steps=3, overrides={"j": j, "t": t})
    meta = (f"# fdr2-mode: {result.mode}\n"
            f"# coverage-above-0.8: {result.coverage:.6f}\n")
    return job, result.sweep.csv_text + meta


def test_figure4_output_passes(figure4):
    job, text = figure4
    assert jobs.check_output(job, text, seed=1) == []


def test_figure4_cell_below_f_so_is_flagged(figure4):
    job, text = figure4
    p = job.params
    thetas = np.linspace(0.0, math.pi / 2.0, 3)
    b_plus = np.linspace(0.0, 5.0, 3)
    f_so = checks.f_so_grid(thetas, b_plus, p["j"], p["t"])
    lines = text.split("\n")
    a1, a2, value = lines[5].split(",")          # row 5 is cell (1, 1)
    lines[5] = f"{a1},{a2},{f_so[1, 1] - 1e-3:.12g}"
    problems = jobs.check_output(job, "\n".join(lines), seed=1)
    assert any("below F_SO" in p for p in problems)


def test_figure4_coverage_line_is_checked(figure4):
    job, text = figure4
    wrong = text.replace("# coverage-above-0.8: 1.000000", "# coverage-above-0.8: 0.500000")
    assert wrong != text
    assert jobs.check_output(job, wrong, seed=1)


def test_verify_output_passes():
    assert checks.check_verify_lines(run_verify(level="fast").lines()) == []


def test_tampered_propagator_is_flagged():
    def tampered(p, t):
        return evolution_closed_form(p, t * (1.0 + 1e-6))

    report = run_verify(level="fast", propagator=tampered)
    assert checks.check_verify_lines(report.lines())


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans[:] = [("cli.main", 0.0, 10.0, -1), ("sweeps.run_sweep", 1.0, 7.0, 0),
                       ("discrimination.f_so", 2.0, 3.0, 1),
                       ("discrimination.f_so", 4.0, 6.0, 1)]
    summary = tracer.summary()
    assert summary["cli.main"]["self_s"] == pytest.approx(4.0)
    assert summary["sweeps.run_sweep"]["self_s"] == pytest.approx(3.0)
    assert summary["discrimination.f_so"] == {"calls": 2, "s": 3.0, "self_s": 3.0}


def test_tracer_patches_every_importing_module():
    from isingcontrol import discrimination

    original = discrimination.f_ab
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = sweeps.figure3_spec(steps=3, overrides={"j": J, "t": T})
        sweeps.run_sweep(spec)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert discrimination.f_ab is original
    assert summary["discrimination.f_so"]["calls"] == 9          # via sweeps' namespace
    assert summary["discrimination.f_ab"]["calls"] == 9          # via discrimination's
    assert summary["evolution.evolution_closed_form"]["calls"] == 9
    assert tracer.counts["sweeps.cells"] == 9


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layer = {"cli.import_s": "s", "trace.overhead_pct": "%"}
    layer.update({k: u for k, (_, u) in tracing.per_layer_metrics({}, {}).items()})
    assert layer == per_layer
    assert end_to_end == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
