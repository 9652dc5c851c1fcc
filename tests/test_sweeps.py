import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol import sweeps
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


def all_nan(scheme, params, mode):
    return np.full(np.broadcast_shapes(*(np.shape(v) for v in params.values())), math.nan)


def sweep_matching_cells(spec, stacked_fn=None):
    """The sweep, checked to equal its all-per-cell reference, and the
    number of cells that the per-cell path re-ran.  ``stacked_fn`` replaces
    the scheme's function in the stacked pass only."""
    scheme = SCHEMES[spec.scheme]
    on_stacks = sweeps._on_stacks
    stacked = replace(scheme, fn=stacked_fn) if stacked_fn else scheme
    fallback = []

    def counted(params, mode):
        fallback.append(params)
        return scheme.fn(params, mode)

    # the stacked calls get the uncounted fn, so only the per-cell path counts
    with mock.patch.dict(SCHEMES, {spec.scheme: replace(scheme, fn=counted)}), \
            mock.patch.object(sweeps, "_on_stacks",
                              lambda _, params, mode: on_stacks(stacked, params, mode)):
        grid = run_sweep(spec)
    # the reference: no stacked pass, so every cell runs on its own
    with mock.patch.object(sweeps, "_on_stacks", all_nan):
        scalar = run_sweep(spec)
    assert grid.failures == scalar.failures
    np.testing.assert_allclose(grid.values, scalar.values, rtol=0, atol=1e-13)
    assert grid.csv_text == scalar.csv_text
    return grid, len(fallback)


@settings(max_examples=300, deadline=None)
@given(grid_specs())
def test_array_path_matches_scalar_path(spec):
    grid, reruns = sweep_matching_cells(spec)
    # the scalar path re-ran exactly the failing cells
    assert reruns == len(grid.failures)


@pytest.mark.parametrize("scheme", ["n-mix", "f1", "f2", "witness"])
def test_out_of_range_cells_past_the_first_block_leave_the_rest_stacked(scheme):
    # one stacked group of 400 cells: theta < 0 in the first row, theta > pi/2
    # in the last rows (past the first STACK_CELLS block), s < 0 in every row
    spec = SweepSpec(scheme=scheme, axis1=Axis("theta", -0.1, 1.7, 20),
                     axis2=Axis("s", -0.01, 0.5, 20),
                     fixed={"b_plus": 1.0, "j": 1 / 6, "t0": 1.5, "state": 2, "wi": 0,
                            "wj": 1} if scheme == "witness" else
                           {"b_plus": 1.0, "j": 1 / 6, "t0": 1.5})
    grid, reruns = sweep_matching_cells(spec)
    assert reruns == len(grid.failures)
    assert 20 <= len(grid.failures) < 400   # witness leaves theta unchecked


@pytest.mark.parametrize("failed", [np.ones(3, dtype=bool), np.ones((200, 1), dtype=bool),
                                    True, np.zeros(200, dtype=bool)],
                         ids=["other-length", "other-shape", "bool", "marks-none"])
def test_a_mask_that_drops_nothing_ends_the_retries(failed):
    spec = SweepSpec(scheme="so", axis1=Axis("theta", -0.1, 1.6, 10),
                     axis2=Axis("b_plus", 0.0, 5.0, 20), fixed={"j": 1 / 6, "t": 1.0})
    calls = []

    def raises_mask(params, mode):
        calls.append(params)
        raise OutOfRange("stacked call failed", failed)

    _, reruns = sweep_matching_cells(spec, raises_mask)
    # one stacked call, then every cell of the group on its own
    assert len(calls) == 1 and reruns == 200


def test_array_path_isolates_an_evaluator_that_raises():
    spec = figure3_spec(steps=4)
    so = SCHEMES["so"]

    def broken_on_stacks(params, mode):
        if np.ndim(params["theta"]):
            raise RuntimeError("evaluator bug")
        return so.fn(params, mode)

    with mock.patch.dict(SCHEMES, {"so": replace(so, fn=broken_on_stacks)}):
        fallback = run_sweep(spec)
    assert fallback.csv_text == run_sweep(spec).csv_text
