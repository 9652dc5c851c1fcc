import itertools
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from isingcontrol import verify
from isingcontrol.evolution import PhysicalFields, evolution_closed_form, normalize_fields
from isingcontrol.verify import run_verify

PROPAGATOR_SUITE = "propagator closed form vs spectral oracle"
SCHMIDT_SUITE = "Schmidt closed form vs reduced-density eigenvalues"
# closed-form points per level: propagator draws (none is skipped at either
# level; test_block_draws_equal_the_whole_sequence checks it), Schmidt grid
# points, do-nothing cells
POINTS = {"fast": (2_000, 8**3, 6 * 6 * 3 * 3), "full": (10_000, 20**3, 20 * 20 * 5 * 5)}
SCHMIDT_SIDE = {"fast": 8, "full": 20}


def tamper(u):
    u = u.copy()
    u[..., 1, 1] *= np.exp(0.001j)
    return u


def points(*args):
    """Number of points in arguments that broadcast against each other."""
    return np.broadcast(*args).size


def blocks(draws):
    """Calls of the propagator suite: one per block of STACK_CELLS draws."""
    return -(-draws // verify.STACK_CELLS)


def statuses(report):
    """Suite name -> PASS or FAIL."""
    return {line.split(":")[0][6:]: line[:4] for line in report.lines()[:-1]}


class TestRunVerify:
    def test_fast_level_passes_quickly(self):
        start = time.monotonic()
        report = run_verify(level="fast")
        elapsed = time.monotonic() - start
        assert report.ok
        assert len(report.checks) == 5
        assert elapsed < 10.0
        lines = report.lines()
        assert sum(line.startswith("PASS") for line in lines) == 5
        assert lines[-1] == "all checks passed"

    def test_tampered_propagator_fails(self):
        def tampered(p, t):
            return tamper(evolution_closed_form(p, t))

        report = run_verify(level="fast", propagator=tampered)
        assert not report.ok
        assert any(line.startswith("FAIL") for line in report.lines())
        assert report.lines()[-1] == "VERIFICATION FAILED"
        failed = {name for name, status in statuses(report).items() if status == "FAIL"}
        assert failed == {PROPAGATOR_SUITE, SCHMIDT_SUITE}

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_tampering_only_the_last_draw_fails_the_propagator_suite(self, level):
        draws = POINTS[level][0]
        assert draws % verify.STACK_CELLS, "the last draw must fall in a partial block"
        calls = itertools.count(1)

        def tampered_last(p, t):
            u = evolution_closed_form(p, t)
            if next(calls) == blocks(draws):
                assert len(t) == draws % verify.STACK_CELLS
                u[-1] = tamper(u[-1])
            return u

        report = run_verify(level=level, propagator=tampered_last)
        assert statuses(report)[PROPAGATOR_SUITE] == "FAIL"
        assert list(statuses(report).values()).count("FAIL") == 1
        assert report.lines()[-1] == "VERIFICATION FAILED"

    def test_nan_in_one_draw_fails_the_propagator_suite(self):
        calls = itertools.count(1)

        def nan_once(p, t):
            u = evolution_closed_form(p, t)
            if next(calls) == 1:
                u[6] = np.nan
            return u

        report = run_verify(level="fast", propagator=nan_once)
        assert statuses(report)[PROPAGATOR_SUITE] == "FAIL"
        assert "max deviation nan" in report.lines()[0]

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_closed_forms_are_called_once_per_point(self, level):
        calls = []

        def counted(p, t):
            calls.append(points(p.b_plus, p.b_minus, p.j, p.scale, t))
            return evolution_closed_form(p, t)

        with mock.patch.object(verify, "f_n", wraps=verify.f_n) as f_n, \
                mock.patch.object(verify, "schmidt_closed_form",
                                  wraps=verify.schmidt_closed_form) as schmidt_closed_form:
            assert run_verify(level=level, propagator=counted).ok
        draws, schmidt_points, f_n_cells = POINTS[level]
        assert len(calls) == blocks(draws) + 1
        assert sum(calls) == draws + SCHMIDT_SIDE[level] ** 2
        assert sum(points(*c.args) for c in schmidt_closed_form.call_args_list) == schmidt_points
        assert sum(points(*c.args) for c in f_n.call_args_list) == f_n_cells

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_block_draws_equal_the_whole_sequence(self, level):
        """The models the suite receives, block by block and in the partial
        tail block, are the R4 sequence computed in one call: point k is
        (0.5 + k alpha) mod 1 with alpha_i = phi^-i, mapped onto the box.
        Every coordinate lies inside its bounds and no draw is skipped."""
        draws = POINTS[level][0]
        assert divmod(draws, verify.STACK_CELLS) == {"fast": (7, 208), "full": (39, 16)}[level]
        received = []

        def recording(p, t):
            received.append((p.b_plus, p.b_minus, p.j, p.scale, t))
            return evolution_closed_form(p, t)

        assert run_verify(level=level, propagator=recording).ok
        phi = 1.1673039782614187
        assert phi**5 == pytest.approx(phi + 1.0, rel=1e-15)
        alpha = [1.0 / phi]
        while len(alpha) < 4:
            alpha.append(alpha[-1] / phi)
        u = (0.5 + np.arange(1, draws + 1)[:, None] * np.array(alpha)) % 1.0
        low = np.array([0.0, -3.0, -3.0, -2.0 * np.pi])
        high = np.array([3.0, 3.0, 3.0, 2.0 * np.pi])
        box = low + (high - low) * u
        assert np.all((low <= box) & (box < high))
        j, b1, b2, t = box.T
        fields = PhysicalFields(b1, b2, j)
        assert fields.scale.min() >= 1e-9
        p = normalize_fields(fields)
        suite = received[:blocks(draws)]
        assert [len(block[-1]) for block in suite[:-1]] == [verify.STACK_CELLS] * (len(suite) - 1)
        concatenated = [np.concatenate(column) for column in zip(*suite)]
        assert np.array_equal(concatenated, (p.b_plus, p.b_minus, p.j, p.scale, p.scale * t))

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_report_lines_are_pinned(self, level):
        """The printed deviations of every suite, as checked in."""
        pinned = (Path(__file__).parent / "data" / f"verify_{level}.txt").read_text()
        assert run_verify(level=level).lines() == pinned.splitlines()

    def test_gaussian_suites_run_once_per_theta_row_and_once_per_grid(self):
        """The quadrature oracle and the analytic mixing run once per theta
        row, over every (b+, t0, s) point of the row; the witness tables
        once, over the whole (theta, b+, t0, s) grid."""
        with mock.patch.object(verify, "quadrature_oracle",
                               wraps=verify.quadrature_oracle) as quadrature, \
                mock.patch.object(verify, "gaussian_mixed_state",
                                  wraps=verify.gaussian_mixed_state) as mixing, \
                mock.patch.object(verify, "witness_table_numeric",
                                  wraps=verify.witness_table_numeric) as witnesses:
            assert run_verify(level="full").ok
        assert quadrature.call_count == 5
        assert [c.args[2].t0.size for c in quadrature.call_args_list] == [9] * 5
        assert mixing.call_count == 5
        assert [points(c.args[1].b_plus, c.args[2].t0) for c in mixing.call_args_list] \
            == [5 * 9] * 5
        assert witnesses.call_count == 1
        (theta, p, g), _ = witnesses.call_args
        assert points(theta, p.b_plus, g.t0) == 5 * 5 * 4

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="level"):
            run_verify(level="medium")
