"""Acceptance suite: one test per reference criterion, at the stated
tolerances, printing one pass/fail line each (run with -s to see them all).

Two checks encode targets that the pinned state conventions make
unreachable, and they are left to fail honestly rather than being loosened:

* criterion 3's *value* clause asks the full trace distance of the evolved
  pair to equal sin^2(theta); the pair is orthogonal for every theta, so
  the trace distance is exactly 1 (sin^2 theta is the computational-basis
  diagonal distance, which IS preserved -- that clause passes).
* criterion 9's coverage band [0.70, 0.90] reflects a weaker numerical
  search: a correct optimizer discriminates the pair perfectly even at
  theta -> 0 via phase-adapted product bases, pushing coverage to ~1.0.
"""
import math
import time

import numpy as np
import pytest

from isingcontrol.control import fidelity_overlap, plan_situation1, plan_situation2
from isingcontrol.discrimination import (
    average_fidelity, computational_povm, critical_fidelities, f_ab, f_dr1, f_n,
    f_n_pipeline, table1_povm,
)
from isingcontrol.evolution import (
    IsingParams, PhysicalFields, b_minus_magnitude, evolution_closed_form,
    evolution_oracle, params_from_bj,
)
from isingcontrol.linalg import dag, hermitian_eigenvalues, max_asymmetry, projector
from isingcontrol.optimize import optimize_fdr2, zero_field_stationary_values
from isingcontrol.states import (
    diagonal_trace_distance, evolved_pair_bj, initial_pair, schmidt, schmidt_closed_form,
    trace_distance,
)
from isingcontrol.stochastic import (
    GaussianTime, abd_decompose, abd_reconstruct, f1, f2, f_n_mix, gaussian_mixed_state,
    quadrature_oracle, witness_table, witness_table_numeric,
)
from isingcontrol.sweeps import fields_from_bj, figure4_run, figure5_spec, run_sweep

J6 = 1.0 / 6.0


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def random_draws(n: int, seed: int = 20240):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        j = rng.uniform(0.0, 0.5)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        b_plus = rng.uniform(-5.0, 5.0)
        t = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        draws.append((b_plus, j, sign, t))
    return draws


@pytest.fixture(scope="module")
def propagator_draws():
    return random_draws(10_000)


def test_criterion_01_propagator_equivalence(propagator_draws):
    start = time.monotonic()
    worst = 0.0
    for b_plus, j, sign, t in propagator_draws:
        p = IsingParams(b_plus, sign * float(b_minus_magnitude(j)), j)
        fields = PhysicalFields((b_plus + p.b_minus) / 2.0,
                                (b_plus - p.b_minus) / 2.0, j)
        dev = np.abs(evolution_closed_form(p, t) - evolution_oracle(fields, t)).max()
        worst = max(worst, float(dev))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report("criterion 1 (propagator equivalence, 1e4 draws)", ok,
           f"max dev {worst:.3e}, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_unitarity_and_group_law(propagator_draws):
    worst_u, worst_g = 0.0, 0.0
    eye = np.eye(4)
    for k, (b_plus, j, sign, t) in enumerate(propagator_draws):
        p = IsingParams(b_plus, sign * float(b_minus_magnitude(j)), j)
        u = evolution_closed_form(p, t)
        worst_u = max(worst_u, float(np.abs(dag(u) @ u - eye).max()))
        t2 = propagator_draws[(k + 1) % len(propagator_draws)][3]
        lhs = evolution_closed_form(p, t + t2)
        rhs = u @ evolution_closed_form(p, t2)
        worst_g = max(worst_g, float(np.abs(lhs - rhs).max()))
    ok = worst_u < 1e-12 and worst_g < 1e-10
    report("criterion 2 (unitarity and group law)", ok,
           f"unitarity {worst_u:.3e}, group {worst_g:.3e}")
    assert worst_u < 1e-12
    assert worst_g < 1e-10


def _distance_grid():
    rng = np.random.default_rng(77)
    for theta in np.linspace(0.0, math.pi / 2, 20):
        for t in np.linspace(0.0, 2.0 * math.pi, 20):
            for j in np.linspace(0.0, 0.5, 5):
                yield theta, t, j, rng.uniform(-5.0, 5.0)


def test_criterion_03a_trace_distance_preserved():
    worst = 0.0
    for theta, t, j, b_plus in _distance_grid():
        b1, b2 = initial_pair(theta)
        before = trace_distance(projector(b1), projector(b2))
        _, (b1p, b2p) = evolved_pair_bj(theta, b_plus, j, t)
        after = trace_distance(projector(b1p), projector(b2p))
        worst = max(worst, abs(after - before))
    report("criterion 3a (distortion preserves trace distance)", worst < 1e-12,
           f"max |delta' - delta| = {worst:.3e}")
    assert worst < 1e-12


def test_criterion_03b_trace_distance_value():
    """Stated target: trace distance of the evolved pair equals sin^2(theta).

    The pair is orthogonal for every theta, so the trace distance is
    exactly 1; the quantity that does equal sin^2(theta) (and is preserved)
    is the computational-basis diagonal distance.  Kept as stated; fails
    honestly for theta < pi/2.
    """
    worst = 0.0
    worst_diag = 0.0
    for theta, t, j, b_plus in _distance_grid():
        _, (b1p, b2p) = evolved_pair_bj(theta, b_plus, j, t)
        target = math.sin(theta) ** 2
        dist = trace_distance(projector(b1p), projector(b2p))
        worst = max(worst, abs(dist - target))
        worst_diag = max(worst_diag, abs(
            diagonal_trace_distance(projector(b1p), projector(b2p)) - target))
    report("criterion 3b (trace-distance value sin^2 theta)", worst < 1e-10,
           f"max |distance - sin^2| = {worst:.3e}; "
           f"diagonal-distance deviation {worst_diag:.3e}")
    assert worst < 1e-10, (
        f"trace distance of the orthogonal pair is 1, not sin^2(theta): "
        f"max deviation {worst:.3e} (the diagonal distance does match, "
        f"deviation {worst_diag:.3e})")


def test_criterion_04_schmidt_closed_form():
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 20):
        for j in np.linspace(0.0, 0.5, 20):
            p = params_from_bj(1.234, j)
            for t in np.linspace(0.0, 2.0 * math.pi, 20):
                _, b2 = initial_pair(theta)
                lam = schmidt(evolution_closed_form(p, t) @ b2)
                res = schmidt_closed_form(theta, j, t)
                worst = max(worst, abs(lam[0] - res.lambda1), abs(lam[1] - res.lambda2))
    report("criterion 4 (Schmidt closed form, 20^3 grid)", worst < 1e-9,
           f"max dev {worst:.3e}")
    assert worst < 1e-9


def test_criterion_05_situation1():
    worst = 0.0
    for j, n in ((0.25, 2), (J6, 3), (0.375, 4)):
        p = params_from_bj(1.3, j)
        plan = plan_situation1(math.pi / 2, p, n, 1)
        assert plan.delta == pytest.approx(0.0, abs=1e-15)
        for theta in (0.0, 0.5, 1.1, math.pi / 2):
            b1, b2 = initial_pair(theta)
            for state in (b1, b2):
                fid = fidelity_overlap(state, plan.composite() @ state)
                worst = max(worst, abs(fid - 1.0))
    j_irr = 1.0 / math.sqrt(8.0)
    p = params_from_bj(1.3, j_irr)
    plan = plan_situation1(math.pi / 2, p, 2, 0)
    b1, _ = initial_pair(0.7)
    fid = fidelity_overlap(b1, plan.composite() @ b1)
    expected = math.cos(2 * plan.n * math.pi * plan.delta) ** 2
    worst_irr = abs(fid - expected)
    ok = worst < 1e-10 and worst_irr < 1e-10
    report("criterion 5 (situation 1 loops)", ok,
           f"rational worst {worst:.3e}, irrational worst {worst_irr:.3e}")
    assert worst < 1e-10
    assert worst_irr < 1e-10


def test_criterion_06_situation2():
    import dataclasses
    worst = 0.0
    # R t = 5 pi with rational 2J/R = 3/5 (phase closes at odd m), and the
    # homogeneous field where recovery is exact for any t
    configs = [
        (PhysicalFields(2.0, -2.0, 1.5), math.pi, 0, 1),
        (PhysicalFields(0.8, 0.8, 0.37), 1.234, 1, 0),
    ]
    for fields, t, n, m in configs:
        plan = plan_situation2(t, fields, 1.0, n, m)
        assert plan.r == pytest.approx(1.0, abs=1e-12)
        assert plan.r_prime == pytest.approx(1.0, abs=1e-12)
        for theta in (0.3, 0.9, math.pi / 2):
            _, b2 = initial_pair(theta)
            fid = fidelity_overlap(b2, plan.composite() @ b2)
            worst = max(worst, abs(fid - 1.0))
    # first state recovers under the B+' condition alone
    fields = PhysicalFields(1.3, 0.4, 0.55)
    plan = plan_situation2(0.9, fields, 1.7, 1, 0)
    b1, _ = initial_pair(0.8)
    rng = np.random.default_rng(13)
    worst_b1 = 0.0
    for _ in range(100):
        tampered = dataclasses.replace(plan, b_minus_prime=rng.uniform(-5.0, 5.0))
        fid = fidelity_overlap(b1, tampered.composite() @ b1)
        worst_b1 = max(worst_b1, abs(fid - 1.0))
    ok = worst < 1e-10 and worst_b1 < 1e-10
    report("criterion 6 (situation 2 recovery)", ok,
           f"beta2 worst {worst:.3e}, beta1-random-B-' worst {worst_b1:.3e}")
    assert worst < 1e-10
    assert worst_b1 < 1e-10


def test_criterion_07_discrimination_closed_forms():
    worst_dr1 = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 25):
        closed = f_dr1(theta)
        assert closed == 0.5 * (1.0 + math.sin(theta) ** 2)
        originals = initial_pair(theta)
        res = average_fidelity(originals, originals, originals, computational_povm())
        worst_dr1 = max(worst_dr1, abs(res.avg_fidelity - closed))
    worst_fn = 0.0
    rng = np.random.default_rng(3)
    for theta in np.linspace(0.0, math.pi / 2, 20):
        for t in np.linspace(0.1, 2.0 * math.pi, 20):
            for j in np.linspace(0.0, 0.5, 5):
                b_plus = rng.uniform(-5.0, 5.0)
                worst_fn = max(worst_fn, abs(f_n(theta, b_plus, j, t)
                                          - f_n_pipeline(theta, b_plus, j, t)))
    lim_devs = []
    for b_plus, j, t in ((1.0, J6, math.pi / 2), (2.3, 0.3, 1.1), (0.7, 0.45, 2.5)):
        lim_devs.append(abs(f_ab(1e-4, b_plus, j, t) - math.cos(b_plus * t) ** 2))
        assert lim_devs[-1] < 1e-6
        assert abs(f_ab(math.pi / 2, b_plus, j, t) - 1.0) < 1e-10
        fn_right = 0.5 * (1 + (4 * j * j - 1) * math.sin(t) ** 2 + math.cos(b_plus * t) ** 2)
        assert abs(f_n(math.pi / 2, b_plus, j, t) - fn_right) < 1e-10
    ok = worst_dr1 < 1e-12 and worst_fn < 1e-9
    report("criterion 7 (closed-form schemes and limits)", ok,
           f"F_DR1 pipeline {worst_dr1:.3e}, F_N grid {worst_fn:.3e}, "
           f"theta->0 limit {max(lim_devs):.3e}")
    assert worst_dr1 < 1e-12
    assert worst_fn < 1e-9


def test_criterion_08_zero_field_optimization():
    worst_opt = 0.0
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        res = optimize_fdr2(theta, 0.0, 0.5, 1.0)
        worst_opt = max(worst_opt, abs(res.value - 1.0))
    worst_table = 0.0
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        originals = initial_pair(theta)
        for variant in ("A", "B"):
            res = average_fidelity(originals, originals, originals,
                                   table1_povm(theta, variant))
            worst_table = max(worst_table, abs(res.avg_fidelity - 1.0))
    vals = zero_field_stationary_values(math.pi / 3)
    targets = critical_fidelities(math.pi / 3)
    worst_stat = max(float(np.min(np.abs(vals - target))) for target in targets)
    ok = worst_opt < 1e-6 and worst_table < 1e-12 and worst_stat < 1e-6
    report("criterion 8 (zero-field optimum and stationary values)", ok,
           f"optimum {worst_opt:.3e}, table {worst_table:.3e}, "
           f"stationary {worst_stat:.3e}")
    assert worst_opt < 1e-6
    assert worst_table < 1e-12
    assert worst_stat < 1e-6


@pytest.fixture(scope="module")
def figure4_result():
    start = time.monotonic()
    result = figure4_run(steps=25)
    elapsed = time.monotonic() - start
    return result, elapsed


def test_criterion_09a_fdr2_dominance_and_runtime(figure4_result):
    result, elapsed = figure4_result
    ok = result.dominance_gap <= 1e-6 and elapsed < 600.0
    report("criterion 9a (F_DR2 >= F_SO, runtime)", ok,
           f"mode {result.mode}, max gap {result.dominance_gap:.3e}, {elapsed:.0f}s")
    assert result.dominance_gap <= 1e-6
    assert elapsed < 600.0


def test_criterion_09b_fdr2_coverage_band(figure4_result):
    """Stated target: 70-90% of the 25x25 region exceeds fidelity 0.8.

    The correctly-optimized surface discriminates the orthogonal pair
    essentially perfectly across the region (phase-adapted product bases),
    so coverage lands at ~1.0 in the operative mode and the reported
    80% claim is not reproducible.  Kept as stated; fails honestly.
    """
    result, _ = figure4_result
    ok = 0.70 <= result.coverage <= 0.90
    report("criterion 9b (coverage band [0.70, 0.90])", ok,
           f"mode {result.mode}, coverage {result.coverage:.3f} "
           f"(as-printed {result.coverage_as_printed:.3f})")
    assert 0.70 <= result.coverage <= 0.90, (
        f"fraction of cells with F_DR2 > 0.8 is {result.coverage:.3f} in the "
        f"operative mode ({result.mode}); as-printed gives "
        f"{result.coverage_as_printed:.3f} and violates dominance")


def test_criterion_10_gaussian_mixing():
    worst_q, worst_pure = 0.0, 0.0
    min_eig, worst_herm, worst_tr = 0.0, 0.0, 0.0
    for theta in (0.0, 0.8, math.pi / 2):
        _, b2 = initial_pair(theta)
        rho = projector(b2)
        for b_plus in (0.0, 1.0, 2.0):
            p = params_from_bj(b_plus, J6)
            for t0 in (math.pi / 2, 7 * math.pi / 4):
                for s in (0.0, t0 / 6, t0 / 3):
                    g = GaussianTime(t0, s)
                    mixed = gaussian_mixed_state(rho, p, g)
                    worst_q = max(worst_q, float(np.abs(
                        mixed - quadrature_oracle(rho, p, g, nodes=64)).max()))
                    min_eig = min(min_eig, float(hermitian_eigenvalues(mixed).min()))
                    worst_herm = max(worst_herm, max_asymmetry(mixed))
                    worst_tr = max(worst_tr, abs(mixed.trace().real - 1.0))
                u = evolution_closed_form(p, t0)
                pure_dev = np.abs(gaussian_mixed_state(rho, p, GaussianTime(t0, 0.0))
                               - u @ rho @ dag(u)).max()
                worst_pure = max(worst_pure, float(pure_dev))
    ok = (worst_q < 1e-8 and min_eig > -1e-10 and worst_herm < 1e-12
          and worst_tr < 1e-12 and worst_pure < 1e-10)
    report("criterion 10 (Gaussian mixing)", ok,
           f"quadrature {worst_q:.3e}, min eig {min_eig:.1e}, sharp {worst_pure:.3e}")
    assert worst_q < 1e-8
    assert min_eig > -1e-10
    assert worst_herm < 1e-12
    assert worst_tr < 1e-12
    assert worst_pure < 1e-10


def test_criterion_11_witness_closed_forms():
    worst_1, worst_2 = 0.0, 0.0
    for theta in (0.0, 0.6, 1.2):
        for b_plus in np.linspace(0.0, 2.5, 4):
            p = params_from_bj(b_plus, J6)
            for t0 in (math.pi / 2, 1.9, 7 * math.pi / 4):
                for s in (0.0, 0.3, t0 / 3):
                    g = GaussianTime(t0, s)
                    closed = witness_table(theta, p, g)
                    numeric = witness_table_numeric(theta, p, g)
                    for (state, i, j), value in closed.items():
                        dev = abs(value - numeric[(state, i, j)])
                        if state == 1:
                            worst_1 = max(worst_1, dev)
                        else:
                            worst_2 = max(worst_2, dev)
    ok = worst_1 < 1e-9 and worst_2 < 1e-9
    report("criterion 11 (witness closed forms)", ok,
           f"first-state worst {worst_1:.3e}, second-state worst {worst_2:.3e}")
    assert worst_1 < 1e-9
    assert worst_2 < 1e-9


def test_criterion_12_mixed_fidelity_limits():
    worst_inf = 0.0
    for theta in (0.0, 0.7, math.pi / 2):
        for j in (J6, 0.5):
            got = f_n_mix(theta, 1.0, j, math.pi / 2, 1e3)
            expected = 0.25 * (1 + math.cos(theta) ** 4 + (1 + 4 * j * j) * math.sin(theta) ** 4)
            worst_inf = max(worst_inf, abs(got - expected))
    worst_sharp = 0.0
    for theta in (0.3, 1.0):
        worst_sharp = max(worst_sharp, abs(
            f_n_mix(theta, 1.0, J6, math.pi / 2, 0.0) - f_n(theta, 1.0, J6, math.pi / 2)))
    p = params_from_bj(1.0, J6)
    fields = fields_from_bj(1.0, J6)
    cap_excess = 0.0
    for theta in (0.0, 0.7, math.pi / 2):
        cap_excess = max(cap_excess,
                         f1(theta, p, math.pi / 2, 1e3, 1, 1) - 0.75,
                         f2(theta, fields, math.pi / 2, 1e3, 1.0, 1, 0) - 0.75)
    worst_resid = 0.0
    for scheme in (
        lambda th: f_n_mix(th, 1.0, J6, math.pi / 2, 0.4),
        lambda th: f1(th, p, math.pi / 2, 0.4, 1, 1),
        lambda th: f2(th, fields, math.pi / 2, 0.4, 1.0, 0, 0),
    ):
        coeffs = abd_decompose(scheme)
        for th in (math.pi / 8, 3 * math.pi / 8):
            worst_resid = max(worst_resid, abs(abd_reconstruct(coeffs, th) - scheme(th)))
    g_limit = abs(abd_decompose(lambda th: f_n_mix(th, 1.0, J6, math.pi / 2, 1e3)).g)
    ok = (worst_inf < 1e-6 and worst_sharp < 1e-8 and cap_excess < 1e-6
          and worst_resid < 1e-9 and g_limit < 1e-6)
    report("criterion 12 (mixed-fidelity limits)", ok,
           f"s->inf {worst_inf:.3e}, s->0 {worst_sharp:.3e}, cap excess {cap_excess:.1e}, "
           f"abd residual {worst_resid:.3e}, |G| {g_limit:.3e}")
    assert worst_inf < 1e-6
    assert worst_sharp < 1e-8
    assert cap_excess < 1e-6
    assert worst_resid < 1e-9
    assert g_limit < 1e-6


def test_criterion_13_figure5_surfaces():
    worst_jump, lo, hi = 0.0, 1.0, 0.0
    for which in ("a", "b", "c"):
        for scheme in ("n-mix", "f1", "f2"):
            spec = figure5_spec(which, scheme=scheme, theta_steps=9)
            result = run_sweep(spec)
            assert not result.failures
            lo = min(lo, float(result.values.min()))
            hi = max(hi, float(result.values.max()))
            jumps = np.abs(np.diff(result.values, axis=1)).max()
            worst_jump = max(worst_jump, float(jumps))
    # perfect-reconstruction plan at s = 0: F2 reaches 1 >= F_N
    fields = PhysicalFields(0.8, 0.8, 0.5)   # homogeneous, R = 1
    t0 = 1.1
    worst_order = 0.0
    for theta in (0.3, 0.9, 1.4):
        ftwo = f2(theta, fields, t0, 0.0, 1.0, 1, 0)
        fn = f_n_mix(theta, fields.b_plus, 0.5, t0, 0.0)
        worst_order = max(worst_order, fn - ftwo)
    ok = (lo >= -1e-9 and hi <= 1.0 + 1e-9 and worst_jump < 0.05
          and worst_order <= 1e-12)
    report("criterion 13 (mixed-state surfaces)", ok,
           f"range [{lo:.3f}, {hi:.3f}], max s-jump {worst_jump:.3f}, "
           f"F2 >= F_N margin {worst_order:.1e}")
    assert lo >= -1e-9
    assert hi <= 1.0 + 1e-9
    assert worst_jump < 0.05
    assert worst_order <= 1e-12
