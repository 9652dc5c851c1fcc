import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol import cli, sweeps
from isingcontrol.discrimination import f_dr1
from isingcontrol.evolution import OutOfRange, params_from_bj
from isingcontrol.optimize import OBJECTIVE_MODES
from isingcontrol.sweeps import (
    MAX_CELLS,
    SCHEMES,
    Axis,
    SweepSpec,
    default_situation1_indices,
    default_situation2_indices,
    fields_from_bj,
    figure3_spec,
    figure4_run,
    figure5_spec,
    run_sweep,
)


def tiny_spec(**overrides):
    base = dict(
        scheme="dr1",
        axis1=Axis("theta", 0.0, math.pi / 2, 4),
        axis2=Axis("dummy", 0.0, 1.0, 2),
        fixed={},
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            tiny_spec(scheme="nope")

    def test_duplicate_axes(self):
        with pytest.raises(ValueError, match="differ"):
            tiny_spec(axis2=Axis("theta", 0, 1, 2))

    def test_axis_not_a_parameter(self):
        with pytest.raises(ValueError, match="not a parameter"):
            tiny_spec(axis2=Axis("b_plus", 0, 1, 2))

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameters"):
            SweepSpec(scheme="n", axis1=Axis("theta", 0, 1, 3),
                      axis2=Axis("b_plus", 0, 1, 3), fixed={"j": 0.2})

    def test_unused_fixed(self):
        with pytest.raises(ValueError, match="not used"):
            tiny_spec(fixed={"b_plus": 1.0})

    @pytest.mark.parametrize("name", ["theta", "dummy"])
    def test_axis_also_fixed(self, name):
        # before, the axis silently won, so an out-of-range fixed theta = 5 went unnoticed
        with pytest.raises(ValueError, match=f"parameter '{name}' is both an axis and fixed"):
            tiny_spec(fixed={name: 5.0})

    def test_steps_minimum(self):
        with pytest.raises(ValueError, match="at least 2"):
            Axis("theta", 0, 1, 1)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="^axis 'theta' bounds must be finite$"):
            Axis("theta", lo, hi, 3)

    def test_grid_size_bounded(self):
        side = math.isqrt(MAX_CELLS)
        tiny_spec(axis1=Axis("theta", 0, 1, side), axis2=Axis("dummy", 0, 1, side))
        with pytest.raises(ValueError, match="exceeds the limit"):
            tiny_spec(axis1=Axis("theta", 0, 1, side + 1), axis2=Axis("dummy", 0, 1, side))

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            tiny_spec(mode="whatever")

    @pytest.mark.parametrize("scheme", ["f1", "f2"])
    @pytest.mark.parametrize("axis2, fixed, given", [
        (Axis("s", 0.0, 0.3, 2), {"n": 3}, "n"),
        (Axis("s", 0.0, 0.3, 2), {"m": 1}, "m"),
        (Axis("n", 1, 3, 3), {"s": 0.1}, "n"),
    ], ids=["fix-n-only", "fix-m-only", "n-as-axis"])
    def test_repreparation_indices_come_together(self, scheme, axis2, fixed, given):
        base = {"b_plus": 1.0, "j": 1 / 6, "t0": 1.5}
        with pytest.raises(ValueError, match=f"n and m together or neither, got only {given}"):
            SweepSpec(scheme=scheme, axis1=Axis("theta", 0, 1, 2), axis2=axis2,
                      fixed={**base, **fixed})
        # both, or neither, are accepted
        other = "m" if given == "n" else "n"
        SweepSpec(scheme=scheme, axis1=Axis("theta", 0, 1, 2), axis2=axis2,
                  fixed={**base, **fixed, other: 1})
        SweepSpec(scheme=scheme, axis1=Axis("theta", 0, 1, 2), axis2=Axis("s", 0.0, 0.3, 2),
                  fixed=base)


class TestRunSweep:
    def test_csv_shape_and_header(self):
        result = run_sweep(tiny_spec())
        lines = result.csv_text.strip().split("\n")
        assert lines[0] == "axis1,axis2,value"
        assert len(lines) == 1 + 4 * 2
        assert result.csv_text.endswith("\n")
        assert "\r" not in result.csv_text

    def test_row_major_order_and_values(self):
        result = run_sweep(tiny_spec())
        rows = [line.split(",") for line in result.csv_text.strip().split("\n")[1:]]
        thetas = np.linspace(0.0, math.pi / 2, 4)
        k = 0
        for th in thetas:
            for d in (0.0, 1.0):
                # 12 significant digits: reparsed values match to ~1e-11
                assert float(rows[k][0]) == pytest.approx(th, abs=1e-10)
                assert float(rows[k][1]) == pytest.approx(d)
                assert float(rows[k][2]) == pytest.approx(f_dr1(th), abs=1e-10)
                k += 1

    def test_twelve_significant_digits(self):
        result = run_sweep(tiny_spec())
        value = result.csv_text.strip().split("\n")[2].split(",")[2]
        assert value == f"{f_dr1(np.linspace(0, math.pi/2, 4)[0]):.12g}"

    def test_deterministic(self):
        a = run_sweep(tiny_spec())
        b = run_sweep(tiny_spec())
        assert a.csv_text == b.csv_text

    def test_failed_cell_becomes_nan(self):
        # witness state index 7 does not exist: every cell fails
        spec = SweepSpec(
            scheme="witness",
            axis1=Axis("theta", 0.0, 1.0, 2),
            axis2=Axis("s", 0.0, 0.3, 2),
            fixed={"b_plus": 1.0, "j": 0.2, "t0": 1.0, "state": 7, "wi": 0, "wj": 0},
        )
        result = run_sweep(spec)
        assert len(result.failures) == 4
        assert all("no witness entry" in msg for msg in result.failures)
        for line in result.csv_text.strip().split("\n")[1:]:
            assert line.split(",")[2] == "nan"

    def test_schmidt_scheme(self):
        spec = SweepSpec(scheme="schmidt", axis1=Axis("theta", 0, math.pi / 2, 3),
                         axis2=Axis("t", 0, 2, 3), fixed={"j": 0.25})
        result = run_sweep(spec)
        assert not result.failures
        assert ((0.5 - 1e-12 <= result.values) & (result.values <= 1.0 + 1e-12)).all()

    def test_f_curve_scheme(self):
        spec = SweepSpec(scheme="f-curve", axis1=Axis("ratio", 0.0, 4.0, 5),
                         axis2=Axis("t", 0.0, 6.0, 7))
        result = run_sweep(spec)
        assert not result.failures
        # f(., t=0) = 0 along the first column
        np.testing.assert_allclose(result.values[:, 0], 0.0, atol=1e-12)
        # homogeneous limit ratio=0 (R=1): phi - phi' = -2t and 4Jt = 2t, so f = -4t
        np.testing.assert_allclose(result.values[0], -4.0 * np.linspace(0, 6, 7), atol=1e-10)

    def test_csv_text_matches_the_per_value_format(self):
        # the format of the cell-by-cell serializer: 12 digits, no "-0"
        def fmt(v):
            return f"{0.0 if v == 0.0 else v:.12g}"

        a1 = np.array([-0.0, 0.1 + 0.2, 123456789012.5])
        a2 = np.array([1 / 3, -1e-300, 2.0])
        values = np.array([-0.0, math.nan, math.inf, 0.1 + 0.2, 1 / 3, -math.inf,
                           1e-300, 1e21, -123456789012.5])
        expected = "axis1,axis2,value\n" + "".join(
            f"{fmt(v1)},{fmt(v2)},{fmt(v)}\n"
            for (v1, v2), v in zip([(v1, v2) for v1 in a1 for v2 in a2], values))
        assert sweeps._csv_text(a1, a2, values) == expected
        assert expected.splitlines()[1:4] == ["0,0.333333333333,0", "0,-1e-300,nan", "0,2,inf"]
        assert expected.splitlines()[-1] == "123456789012,2,-123456789012"

    def test_mixed_schemes_smoke(self):
        for scheme, fixed in (
            ("n-mix", {"b_plus": 1.0, "j": 1 / 6, "t0": math.pi / 2}),
            ("f1", {"b_plus": 1.0, "j": 1 / 6, "t0": math.pi / 2}),
            ("f2", {"b_plus": 1.0, "j": 1 / 6, "t0": math.pi / 2}),
        ):
            spec = SweepSpec(scheme=scheme, axis1=Axis("theta", 0, math.pi / 2, 3),
                             axis2=Axis("s", 0, 0.4, 3), fixed=fixed)
            result = run_sweep(spec)
            assert not result.failures
            assert ((result.values >= -1e-9) & (result.values <= 1 + 1e-9)).all()


class TestPresets:
    def test_figure3_spec(self):
        spec = figure3_spec(steps=7)
        assert spec.scheme == "so"
        assert spec.fixed == {"j": 1 / 6, "t": math.pi / 2}
        result = run_sweep(spec)
        assert not result.failures
        # theta = pi/2 row: F_SO = 1 everywhere
        np.testing.assert_allclose(result.values[-1], 1.0, atol=1e-9)

    def test_figure5_axes(self):
        for which, t0 in (("a", math.pi / 2), ("b", 3 * math.pi / 4), ("c", 7 * math.pi / 4)):
            spec = figure5_spec(which, scheme="n-mix", theta_steps=5)
            assert spec.axis2.hi == pytest.approx(t0 / 3)
            assert spec.axis2.steps == 51
            step = spec.axis2.values()[1] - spec.axis2.values()[0]
            assert step == pytest.approx(t0 / 150)

    def test_figure5_f1_indices(self):
        spec = figure5_spec("a", scheme="f1", theta_steps=5)
        assert spec.fixed["n"] == 1
        assert spec.fixed["m"] == 1

    def test_figure5_rejects_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            figure5_spec("d")
        with pytest.raises(ValueError, match="scheme"):
            figure5_spec("a", scheme="dr1")


class TestHelpers:
    def test_fields_from_bj_unit_scale(self):
        fields = fields_from_bj(1.0, 1 / 6)
        assert fields.scale == pytest.approx(1.0)
        assert fields.b_plus == pytest.approx(1.0)

    def test_fields_from_bj_rejects_coupling_beyond_half(self):
        with pytest.raises(ValueError, match=r"j must lie in \[0, 1/2\], got 0.6"):
            fields_from_bj(1.0, 0.6)

    def test_default_situation1_indices(self):
        p = params_from_bj(1.0, 1 / 6)
        assert default_situation1_indices(math.pi / 2, p) == (1, 1)
        n, _ = default_situation1_indices(7 * math.pi / 4, p)
        assert n == 2  # smallest n with n pi > t0

    def test_default_situation2_indices_minimize_fields(self):
        fields = fields_from_bj(1.0, 1 / 6)
        t0 = math.pi / 2
        n, m = default_situation2_indices(t0, fields)
        # n pi must be the closest multiple of pi to B+ t0
        assert abs(n * math.pi - fields.b_plus * t0) <= math.pi / 2 + 1e-12


def test_figure4_matches_checked_in_surface():
    # figure4 --steps 5 as written by the coordinate-ascent optimizer
    fixture = (Path(__file__).parent / "data" / "figure4_steps5.csv").read_text().splitlines()
    result = figure4_run(steps=5)
    rows = result.sweep.csv_text.splitlines()
    assert rows[0] == fixture[0]
    assert len(rows) == 26 and fixture[26:] == [
        f"# fdr2-mode: {result.mode}", f"# coverage-above-0.8: {result.coverage:.6f}"]
    for row, value, expected in zip(rows[1:], result.sweep.values.ravel(), fixture[1:26]):
        expected_axes, expected_value = expected.rsplit(",", 1)
        assert row.rsplit(",", 1)[0] == expected_axes
        assert abs(value - float(expected_value)) <= 1e-12


def test_figure4_keeps_the_as_printed_surface_inside_the_band():
    # no preset-grid (j, t) lands the as-printed coverage inside the band
    # while F_DR2 >= F_SO, so widen the band and take t = 0, where nothing
    # is distorted and every cell of either surface is 1
    with mock.patch.object(sweeps, "FIG4_COVERAGE_BAND", (0.7, 1.0)):
        result = figure4_run(steps=3, overrides={"t": 0.0})
    assert result.mode == "as-printed"
    assert result.coverage == result.coverage_as_printed == 1.0
    assert result.dominance_gap <= 1e-6
    assert result.sweep.csv_text == run_sweep(
        replace(figure3_spec(3, {"t": 0.0}), scheme="dr2")).csv_text


GOLDEN_SURFACES = [("figure3_steps10.csv", lambda: figure3_spec(steps=10))] + [
    (f"figure5{which}_{scheme}_steps7.csv",
     lambda which=which, scheme=scheme: figure5_spec(which, scheme=scheme, theta_steps=7))
    for which in "abc" for scheme in ("n-mix", "f1", "f2")]


@pytest.mark.parametrize("name, spec", GOLDEN_SURFACES, ids=[n for n, _ in GOLDEN_SURFACES])
def test_preset_matches_checked_in_surface(name, spec):
    # preset surfaces as written by the per-cell scalar path
    fixture = (Path(__file__).parent / "data" / name).read_text().splitlines()
    result = run_sweep(spec())
    rows = result.csv_text.splitlines()
    assert not result.failures
    assert rows[0] == fixture[0] and len(rows) == len(fixture)
    for row, value, expected in zip(rows[1:], result.values.ravel(), fixture[1:]):
        expected_axes, expected_value = expected.rsplit(",", 1)
        assert row.rsplit(",", 1)[0] == expected_axes
        assert abs(value - float(expected_value)) <= 1e-12


# parameter ranges reaching past every scalar range check: theta outside
# [0, pi/2], j outside [0, 1/2], t0 <= 0, s < 0, T <= 0, n pi <= t0, n = 0,
# and witness keys that are not in the table
VALUE_RANGES = {"theta": (-0.3, 1.9), "b_plus": (-3.0, 3.0), "j": (-0.1, 0.6),
                "t": (-6.0, 6.0), "t0": (-1.0, 6.0), "s": (-0.2, 1.0), "T": (-0.5, 2.0),
                "n": (-1, 3), "m": (-2, 2), "dummy": (0, 1), "ratio": (-3.0, 3.0),
                "state": (0, 3), "wi": (-1, 2), "wj": (-1, 2)}
# magnitudes whose squares and products overflow a float
HUGE_VALUES = {name: (-1e160, 1e160) for name in ("b_plus", "t", "t0", "s", "ratio")}


def draw_value(draw, name):
    lo, hi = VALUE_RANGES[name]
    if name in HUGE_VALUES and draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(HUGE_VALUES[name]))
    if isinstance(lo, int) and draw(st.booleans()):
        return draw(st.integers(lo, hi))
    return draw(st.floats(lo, hi))


@st.composite
def grid_specs(draw):
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    params, defaults = SCHEMES[scheme].params, SCHEMES[scheme].defaults
    names = draw(st.lists(st.sampled_from(params + ("dummy",)), min_size=2, max_size=2,
                          unique=True))
    axes = [Axis(name, draw_value(draw, name), draw_value(draw, name),
                 draw(st.integers(2, 4))) for name in names]
    fixed = {name: draw_value(draw, name) for name in params
             if name not in names and (name not in defaults or draw(st.booleans()))}
    # the repreparation indices n and m come both or neither
    given = {"n", "m"} & ({*names} | fixed.keys())
    if len(given) == 1:
        missing = ({"n", "m"} - given).pop()
        fixed[missing] = draw_value(draw, missing)
    return SweepSpec(scheme=scheme, axis1=axes[0], axis2=axes[1], fixed=fixed,
                     mode=draw(st.sampled_from(OBJECTIVE_MODES)))


def per_cell(spec):
    """The reference sweep: one scalar call of the scheme's ``fn`` per cell,
    each failed cell's message formatted as the sweep formats it.  Returns
    the (steps1, steps2) values and the failure messages."""
    scheme = SCHEMES[spec.scheme]
    base = {k: v for k, v in {**scheme.defaults, **spec.fixed}.items() if v is not None}
    names = (spec.axis1.name, spec.axis2.name)
    values, failures = [], []
    with np.errstate(all="ignore"):
        for v1 in spec.axis1.values():
            for v2 in spec.axis2.values():
                params = {**base, names[0]: v1, names[1]: v2}
                params.pop("dummy", None)
                try:
                    value = float(scheme.fn(params, spec.mode))
                except Exception as exc:  # noqa: BLE001 - every failure is a message
                    error = exc
                else:
                    if math.isfinite(value):
                        values.append(value)
                        continue
                    error = f"non-finite value {value}"
                values.append(math.nan)
                failures.append(f"{names[0]}={v1:.6g}, {names[1]}={v2:.6g}: {error}")
    return np.reshape(values, (spec.axis1.steps, spec.axis2.steps)), tuple(failures)


def sweep_matching_cells(spec):
    """The sweep, checked to equal its per-cell reference, and the params of
    each call of the scheme's ``fn``, in order."""
    scheme = SCHEMES[spec.scheme]
    calls = []

    def counted(params, mode):
        calls.append(params)
        return scheme.fn(params, mode)

    with mock.patch.dict(SCHEMES, {spec.scheme: replace(scheme, fn=counted)}):
        grid = run_sweep(spec)
    values, failures = per_cell(spec)
    assert grid.failures == failures
    np.testing.assert_allclose(grid.values, values, rtol=0, atol=1e-13)
    assert grid.csv_text == sweeps._csv_text(spec.axis1.values(), spec.axis2.values(),
                                             values.ravel())
    return grid, calls


@settings(max_examples=300, deadline=None)
@given(grid_specs())
def test_array_path_matches_scalar_path(spec):
    grid, calls = sweep_matching_cells(spec)
    # at most 16 cells, so one block: one call, plus one per check that
    # dropped cells
    calls = len(calls)
    assert calls == 1 if not grid.failures else 1 <= calls <= 1 + len(grid.failures)


@settings(max_examples=200, deadline=None)
@given(grid_specs(), st.integers(1, 5))
def test_block_boundaries_change_no_cell(spec, block_cells):
    # a failed cell's message, and every value, is the same wherever the
    # block boundaries fall
    whole = run_sweep(spec)
    with mock.patch.object(sweeps, "BLOCK_CELLS", block_cells):
        blocked = run_sweep(spec)
    assert blocked.csv_text == whole.csv_text
    assert blocked.failures == whole.failures
    np.testing.assert_array_equal(blocked.values, whole.values)     # nan where nan


@pytest.mark.parametrize("scheme", ["n-mix", "f1", "f2", "witness"])
def test_out_of_range_cells_past_the_first_block_leave_the_rest_stacked(scheme):
    # one block of 400 cells: theta < 0 in the first row, theta > pi/2 in
    # the last rows, s < 0 in every row
    spec = SweepSpec(scheme=scheme, axis1=Axis("theta", -0.1, 1.7, 20),
                     axis2=Axis("s", -0.01, 0.5, 20),
                     fixed={"b_plus": 1.0, "j": 1 / 6, "t0": 1.5, "state": 2, "wi": 0,
                            "wj": 1} if scheme == "witness" else
                           {"b_plus": 1.0, "j": 1 / 6, "t0": 1.5})
    grid, calls = sweep_matching_cells(spec)
    # the spread check drops its cells, then the angle check its own
    assert len(calls) == 3
    assert 20 <= len(grid.failures) < 400


IN_RANGE = {"theta": 0.7, "b_plus": 1.0, "j": 1 / 6, "t": 1.0, "t0": 1.5, "s": 0.2}
# each range-checked axis: its sweep, its valid range and its check's message
RANGE_CHECKS = {
    "theta": (Axis("theta", -0.3, 1.9, 5), math.pi / 2, "theta must lie in [0, pi/2]"),
    "j": (Axis("j", -0.2, 0.8, 5), 0.5, "j must lie in [0, 1/2]"),
}


@pytest.mark.parametrize("scheme, name", [(scheme, name) for scheme in sorted(SCHEMES)
                                          for name in RANGE_CHECKS
                                          if name in SCHEMES[scheme].params])
def test_every_scheme_fails_exactly_its_out_of_range_cells(scheme, name):
    axis, hi, message = RANGE_CHECKS[name]
    fixed = {k: v for k, v in IN_RANGE.items() if k in SCHEMES[scheme].params and k != name}
    grid = run_sweep(SweepSpec(scheme=scheme, axis1=axis, axis2=Axis("dummy", 0.0, 1.0, 2),
                               fixed=fixed))
    expected = tuple(f"{name}={v:.6g}, dummy={d:.6g}: {message}, got {v}"
                     for v in axis.values().tolist() if not 0.0 <= v <= hi
                     for d in (0.0, 1.0))
    assert grid.failures == expected
    assert np.isfinite(grid.values).sum() == grid.values.size - len(expected)


@pytest.mark.parametrize("scheme, axis1, axis2", [
    ("n-mix", Axis("b_plus", -3.0, 3.0, 35), Axis("j", -0.02, 0.52, 33)),
    ("f1", Axis("b_plus", -3.0, 3.0, 35), Axis("j", -0.02, 0.52, 33)),
    ("f2", Axis("j", -0.02, 0.52, 35), Axis("t0", -0.5, 12.0, 33)),
    ("witness", Axis("b_plus", -3.0, 3.0, 35), Axis("t0", -0.5, 12.0, 33))])
def test_stacked_models_past_the_first_block(scheme, axis1, axis2):
    # 1,155 cells in two blocks, each cell with its own model and plan, some
    # out of range
    fixed = {"theta": 0.7, "s": 0.2, "b_plus": 1.0, "j": 1 / 6, "t0": 1.5}
    spec = SweepSpec(scheme=scheme, axis1=axis1, axis2=axis2,
                     fixed={k: v for k, v in fixed.items() if k not in (axis1.name, axis2.name)})
    grid, calls = sweep_matching_cells(spec)
    assert 0 < len(grid.failures) < 1155
    # the block of each call is that of its first cell
    g1, g2 = (g.ravel() for g in np.meshgrid(axis1.values(), axis2.values(), indexing="ij"))
    first = [np.flatnonzero((g1 == c[axis1.name][0]) & (g2 == c[axis2.name][0]))[0]
             for c in calls]
    per_block = np.bincount(np.array(first) // sweeps.BLOCK_CELLS)
    assert len(per_block) == 2 and per_block.max() <= 4


def peak_bytes(spec) -> int:
    tracemalloc.start()
    try:
        run_sweep(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme, axis1, axis2", [
    ("n-mix", Axis("b_plus", 0.1, 3.0, 200), Axis("j", 0.0, 0.5, 200)),
    ("f1", Axis("b_plus", 0.1, 3.0, 200), Axis("t0", 0.3, 8.0, 200)),
    ("f2", Axis("j", 0.01, 0.5, 200), Axis("t0", 0.3, 8.0, 200)),
    ("dr2", Axis("theta", 0.0, 1.5, 200), Axis("b_plus", 0.0, 5.0, 200)),
    ("so", Axis("theta", 0.0, 1.5, 200), Axis("b_plus", 0.0, 5.0, 200))])
def test_planner_and_pure_state_grids_hold_no_per_cell_matrices(scheme, axis1, axis2):
    # the sweep calls each scheme once per block, so a grid whose cells each
    # have their own model and plan, or their own pure-state matrices, peaks
    # within 5% of the same grid over (theta, s) with one shared model; a
    # spectrum and a correction held for every cell would add about 10% and
    # 80%, and dr2's and so's per-cell matrices about 110% and 160%
    fixed = {"theta": 0.7, "s": 0.2, "b_plus": 1.0, "j": 1 / 6, "t0": 2.0, "t": math.pi / 2}
    spec = SweepSpec(scheme=scheme, axis1=axis1, axis2=axis2,
                     fixed={k: v for k, v in fixed.items()
                            if k in SCHEMES[scheme].params and k not in (axis1.name, axis2.name)})
    shared = SweepSpec(scheme="n-mix", axis1=Axis("theta", 0.0, 1.5, 200),
                       axis2=Axis("s", 0.0, 0.5, 200),
                       fixed={"b_plus": 1.0, "j": 1 / 6, "t0": 2.0})
    assert peak_bytes(spec) < 1.05 * peak_bytes(shared)


@pytest.mark.parametrize("failed", [np.ones(3, dtype=bool), np.ones((200, 1), dtype=bool),
                                    True, np.zeros(200, dtype=bool)],
                         ids=["other-length", "other-shape", "bool", "marks-none"])
def test_a_mask_that_drops_nothing_ends_the_retries(failed):
    # a mask that does not mark some of the cells fails every cell with the
    # exception's message, after one call
    spec = SweepSpec(scheme="so", axis1=Axis("theta", -0.1, 1.6, 10),
                     axis2=Axis("b_plus", 0.0, 5.0, 20), fixed={"j": 1 / 6, "t": 1.0})
    calls = []

    def raises_mask(params, mode):
        calls.append(params)
        raise OutOfRange("stacked call failed", failed)

    with mock.patch.dict(SCHEMES, {"so": replace(SCHEMES["so"], fn=raises_mask)}):
        result = run_sweep(spec)
    assert len(calls) == 1
    assert np.isnan(result.values).all()
    assert result.failures == tuple(
        f"theta={v1:.6g}, b_plus={v2:.6g}: stacked call failed"
        for v1 in spec.axis1.values() for v2 in spec.axis2.values())


def test_array_path_isolates_an_evaluator_that_raises():
    # any exception other than a usable OutOfRange fails every cell with its
    # text, and the command exits 3
    spec = figure3_spec(steps=4)
    calls = []

    def broken(params, mode):
        calls.append(params)
        raise RuntimeError("evaluator bug")

    with mock.patch.dict(SCHEMES, {"so": replace(SCHEMES["so"], fn=broken)}):
        result = run_sweep(spec)
        assert cli.main(["figure3", "--steps", "4", "--out", "-"]) == 3
    assert len(calls) == 2
    assert np.isnan(result.values).all()
    assert len(result.failures) == 16
    assert all(msg.endswith(": evaluator bug") for msg in result.failures)
