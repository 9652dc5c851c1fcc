import math

import numpy as np
import pytest

from isingcontrol.discrimination import f_dr1
from isingcontrol.evolution import params_from_bj
from isingcontrol.sweeps import (
    MAX_CELLS,
    Axis,
    SweepSpec,
    default_situation1_indices,
    default_situation2_indices,
    fields_from_bj,
    figure3_spec,
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
