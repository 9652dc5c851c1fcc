"""Oracle-equivalence suites: every closed form in the library against an
independent numerical route, with one pass/fail line per suite.

``fast`` keeps every grid small enough for interactive use; ``full`` runs
the production grids.  A propagator can be injected to exercise the
negative control (a tampered closed form must fail the suite).

Every suite evaluates both the closed form and its oracle on stacks.  The
propagator suite takes its models from a quasi-random sequence, which
covers the model box as evenly as random draws and needs no random number
generator (so ``numpy.random`` never loads); it computes, validates and
normalises them a block of STACK_CELLS at a time and propagates each block
with one call of the closed form and one stacked eigh.  The Schmidt suite
builds its n^2 (j, t) propagators in one call and, per theta row, compares
``schmidt_closed_form`` with one matmul and one stacked eigvalsh; the
do-nothing suite compares ``f_n`` with the state pipeline one theta row at
a time.  The Gaussian mixing suite runs the quadrature oracle and the
analytic mixing once per theta row, and the witness suite both tables once
over its whole grid.  The Schmidt and do-nothing rows stay because they
pay for themselves: stacked whole, the two suites print the same report
and save at most a few ms, but a full run's peak RSS rises from 31.6 to
33.4 MB.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import f_n, f_n_pipeline
from .evolution import (
    IsingParams,
    PhysicalFields,
    b_minus_magnitude,
    evolution_closed_form,
    evolution_oracle,
    normalize_fields,
    params_from_bj,
)
from .linalg import STACK_CELLS, projector
from .states import initial_pair, schmidt, schmidt_closed_form
from .stochastic import (
    GaussianTime,
    gaussian_mixed_state,
    quadrature_oracle,
    witness_table,
    witness_table_numeric,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: max deviation {self.max_deviation:.3e} "
                f"(tolerance {self.tolerance:.1e})")


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append("all checks passed" if self.ok else "VERIFICATION FAILED")
        return out


def _worst(deviations) -> float:
    """Largest of the deviations (0 if none); nan, which fails, if any is nan."""
    return float(np.max(list(deviations), initial=0.0))


# Bounds of the four coordinates of one propagator draw.
_DRAW_LOW = (0.0, -3.0, -3.0, -2.0 * math.pi)    # j, b1, b2, t
_DRAW_HIGH = (3.0, 3.0, 3.0, 2.0 * math.pi)
# The R4 additive-recurrence (Kronecker) sequence: point k is
# (0.5 + k alpha) mod 1, with alpha_i = phi^-i and phi the real root of
# x^5 = x + 1 (Niederreiter 1992, ch. 5; Roberts 2018).  Each alpha is the
# one before it divided by phi.
_PHI = 1.1673039782614187
_ALPHA = np.divide.accumulate([1.0] + [_PHI] * 4)[1:]


def _draws(start: int, size: int) -> np.ndarray:
    """Points k = start + 1 ... start + size of the R4 sequence mapped onto
    the draw box, as a (size, 4) array of (j, b1, b2, t).  Only +, *, % and
    division build them, each exactly rounded, so no point depends on
    numpy's SIMD dispatch level or on where a block starts."""
    k = np.arange(start + 1, start + size + 1, dtype=float)[:, None]
    u = (0.5 + k * _ALPHA) % 1.0
    return _DRAW_LOW + np.subtract(_DRAW_HIGH, _DRAW_LOW) * u


def _check_propagator(level: str, propagator) -> float:
    """Quasi-random physical models (j, b1, b2) and times t, the points of
    :func:`_draws`, computed, validated and propagated a block of
    STACK_CELLS at a time; draws with a scale R < 1e-9 are not compared."""
    n_draws = 10_000 if level == "full" else 2_000
    deviations = []
    for start in range(0, n_draws, STACK_CELLS):
        j, b1, b2, t = _draws(start, min(STACK_CELLS, n_draws - start)).T
        kept = PhysicalFields(b1, b2, j).scale >= 1e-9
        fields, t = PhysicalFields(b1[kept], b2[kept], j[kept]), t[kept]
        closed = propagator(normalize_fields(fields), fields.scale * t)
        deviations.append(np.abs(closed - evolution_oracle(fields, t)).max())
    return _worst(deviations)


def _check_schmidt(level: str, propagator) -> float:
    """The (theta, j, t) grid at b+ = 1.1.  U(t) does not depend on theta, so
    the n^2 propagators are built in one call and each theta row projects
    beta2(theta) through all of them."""
    n = 20 if level == "full" else 8
    thetas, js, ts = (np.linspace(0.0, end, n)
                      for end in (math.pi / 2.0, 0.5, 2.0 * math.pi))
    j, t = np.meshgrid(js, ts, indexing="ij")
    u = propagator(IsingParams(np.full_like(j, 1.1), b_minus_magnitude(j), j), t)

    def deviation(theta):
        _, beta2 = initial_pair(theta)
        closed = schmidt_closed_form(theta, j, t)
        states = (u @ beta2[:, None])[..., 0]
        return np.abs(np.stack(schmidt(states)) - (closed.lambda1, closed.lambda2)).max()

    return _worst(map(deviation, thetas.tolist()))


def _check_f_n(level: str, propagator) -> float:
    n_th, n_b = (20, 20) if level == "full" else (6, 6)
    n_jt = 5 if level == "full" else 3
    b_plus, j, t = np.meshgrid(np.linspace(0.0, 5.0, n_b), np.linspace(0.0, 0.5, n_jt),
                               np.linspace(0.1, 2.0 * math.pi, n_jt), indexing="ij")

    def deviation(theta):
        closed = f_n(theta, b_plus, j, t)
        return np.abs(closed - f_n_pipeline(theta, b_plus, j, t)).max()

    return _worst(map(deviation, np.linspace(0.0, math.pi / 2.0, n_th).tolist()))


def _check_mixed(level: str, propagator) -> float:
    """Per theta row, the quadrature oracle and the analytic mixing each run
    once over every (b+, t0, s) point of the row."""
    n_th = 5 if level == "full" else 3
    t0_values = (math.pi / 2.0, 3.0 * math.pi / 4.0, 7.0 * math.pi / 4.0)
    g = GaussianTime(*np.array([(t0, s) for t0 in t0_values
                                for s in (0.0, t0 / 6.0, t0 / 3.0)]).T)
    row_params = params_from_bj(np.linspace(0.0, 2.0, n_th)[:, None], 1.0 / 6.0)

    def deviation(theta):
        rho = projector(initial_pair(theta)[1])
        oracle = quadrature_oracle(rho, row_params, g, nodes=64)
        return np.abs(gaussian_mixed_state(rho, row_params, g) - oracle).max()

    return _worst(map(deviation, np.linspace(0.0, math.pi / 2.0, n_th)))


def _check_witnesses(level: str, propagator) -> float:
    """Both tables once, over the whole (theta, b+, t0, s) grid."""
    n = 5 if level == "full" else 3
    g = GaussianTime(*np.array([(t0, s) for t0 in (math.pi / 2.0, 7.0 * math.pi / 4.0)
                                for s in (0.0, t0 / 4.0)]).T)
    theta = np.linspace(0.0, math.pi / 2.0, n)[:, None, None]
    p = params_from_bj(np.linspace(0.0, 2.0, n)[:, None], 1.0 / 6.0)
    closed, numeric = witness_table(theta, p, g), witness_table_numeric(theta, p, g)
    return _worst(np.abs(closed[k] - numeric[k]).max() for k in closed)


_SUITES = (
    ("propagator closed form vs spectral oracle", 1e-10, _check_propagator),
    ("Schmidt closed form vs reduced-density eigenvalues", 1e-9, _check_schmidt),
    ("do-nothing closed form vs state pipeline", 1e-9, _check_f_n),
    ("Gaussian mixing analytic vs quadrature oracle", 1e-8, _check_mixed),
    ("witness closed forms vs mixing pipeline", 1e-9, _check_witnesses),
)


def run_verify(level: str = "fast", propagator=None) -> VerifyReport:
    """Run every oracle-equivalence suite and collect pass/fail lines.

    ``propagator(params, t)`` substitutes the closed-form propagator in the
    suites that consume one (negative-control hook); it receives stacked
    ``IsingParams`` and an array of times and returns the stack (..., 4, 4)
    of their propagators.  The default is :func:`evolution_closed_form`.
    A suite that raises counts as an infinite deviation, never an abort.
    """
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    propagator = propagator or evolution_closed_form
    checks = []
    for name, tolerance, suite in _SUITES:
        try:
            worst = suite(level, propagator)
        except Exception:  # noqa: BLE001 - a broken route must fail, not abort
            worst = math.inf
        checks.append(CheckResult(name, worst, tolerance))
    return VerifyReport(checks=tuple(checks))
