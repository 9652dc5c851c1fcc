import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol.discrimination import (
    LocalPovm,
    average_fidelity,
    computational_povm,
    critical_fidelities,
    f_ab,
    f_dr1,
    f_n,
    f_n_pipeline,
    f_so,
    fold_angles,
    helstrom,
    povm_states,
    state_fidelity,
    table1_povm,
)
from isingcontrol.evolution import evolution_closed_form, params_from_bj
from isingcontrol.linalg import projector
from isingcontrol.states import evolved_pair_bj, initial_pair


def assert_complete(povm):
    total = sum(projector(v) for v in povm_states(povm))
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


class TestPovmStates:
    def test_computational_collapse(self):
        # outcomes are phase-free projectors; compare up to the sign the
        # epsilon vectors carry at polar angle zero
        dd, ee, de, ed = povm_states(computational_povm())
        for got, ket in ((dd, 0), (ee, 3), (de, 1), (ed, 2)):
            target = np.zeros(4)
            target[ket] = 1.0
            assert abs(np.vdot(got, target)) == pytest.approx(1.0, abs=1e-15)

    def test_completeness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            povm = LocalPovm(*rng.uniform(0.0, math.pi, 2), *rng.uniform(0.0, 2 * math.pi, 2))
            total = sum(projector(v) for v in povm_states(povm))
            assert np.abs(total - np.eye(4)).max() < 1e-12

    def test_table1_a_angles(self):
        theta = 0.6
        povm = table1_povm(theta, "A")
        assert povm.theta1 == povm.theta2 == pytest.approx((math.pi - 2 * theta) / 2)
        assert povm.alpha1 == povm.alpha2 == 0.0
        assert_complete(povm)

    def test_table1_b_sign_pattern(self):
        theta = 0.0
        povm = table1_povm(theta, "B")
        dd = povm_states(povm)[0]
        # delta_i = cos(pi/4)|0> - sin(pi/4)|1>: product has +,-,-,+ pattern
        expected = np.array([0.5, -0.5, -0.5, 0.5])
        np.testing.assert_allclose(dd, expected, atol=1e-12)
        assert_complete(povm)

    def test_table1_a_at_right_angle_is_computational_like(self):
        povm = table1_povm(math.pi / 2, "A")
        assert povm.theta1 == pytest.approx(0.0)

    def test_table1_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant must be 'A' or 'B', got 'C'"):
            table1_povm(0.3, "C")

    def test_angle_validation(self):
        with pytest.raises(ValueError, match="theta1"):
            LocalPovm(4.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="alpha1"):
            LocalPovm(0.0, 0.0, -1.0, 0.0)

    def test_fold_angles_preserves_states(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            raw = rng.uniform(-10.0, 10.0, 4)
            folded = fold_angles(*raw)
            a = povm_states(LocalPovm(*fold_angles(*raw).angles()))
            # compare outcome projectors, which ignore the fold's phase shuffle
            b_t1, b_a1 = raw[0], raw[2]
            c1, s1 = math.cos(b_t1 / 2), math.sin(b_t1 / 2)
            d1 = np.array([c1, np.exp(1j * b_a1) * s1])
            c2, s2 = math.cos(raw[1] / 2), math.sin(raw[1] / 2)
            d2 = np.array([c2, np.exp(1j * raw[3]) * s2])
            raw_dd = np.kron(d1, d2)
            assert abs(abs(np.vdot(a[0], raw_dd)) - 1.0) < 1e-10 or \
                   abs(abs(np.vdot(a[1], raw_dd)) - 1.0) < 1e-10

    def test_fold_angles_tiny_negative_phase(self):
        # -1e-17 % (2 pi) rounds to 2 pi itself, outside [0, 2 pi)
        assert fold_angles(0.3, 0.2, -1e-17, -1e-17).angles() == (0.3, 0.2, 0.0, 0.0)


class TestHelstrom:
    def test_undistorted_computational(self):
        for theta in (0.2, 0.9, math.pi / 2):
            b1, b2 = initial_pair(theta)
            p1, p2 = helstrom(b1, b2, computational_povm())
            assert p1 == pytest.approx(1.0, abs=1e-12)
            assert p2 == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    def test_distorted_second_probability_invariant(self):
        # the middle-sector weight sin^2 theta survives any distortion time
        for t in (0.4, 1.7, 5.0):
            _, (b1p, b2p) = evolved_pair_bj(0.8, 1.3, 0.2, t)
            _, p2 = helstrom(b1p, b2p, computational_povm())
            assert p2 == pytest.approx(math.sin(0.8) ** 2, abs=1e-12)

    def test_maximally_mixed(self):
        rho = np.eye(4) / 4
        p1, p2 = helstrom(rho, rho, LocalPovm(0.7, 1.1, 0.3, 2.2))
        assert p1 == pytest.approx(0.5, abs=1e-12)
        assert p2 == pytest.approx(0.5, abs=1e-12)

    def test_density_route_matches_pure_route(self):
        # the mixed version uses unsquared expectation sums, so pure
        # projectors must reproduce the amplitude route exactly
        _, (b1p, b2p) = evolved_pair_bj(0.7, 1.0, 1 / 6, math.pi / 2)
        povm = table1_povm(0.7, "A")
        pure = helstrom(b1p, b2p, povm)
        dens = helstrom(projector(b1p), projector(b2p), povm)
        assert dens == pytest.approx(pure, abs=1e-12)


class TestStateFidelity:
    def test_vector_and_density_in_either_order(self):
        # |<a|b>|^2 whichever of the two is given as its projector
        _, (b1p, b2p) = evolved_pair_bj(0.7, 1.0, 1 / 6, math.pi / 2)
        a, b = b1p, (b1p + b2p) / np.linalg.norm(b1p + b2p)
        expected = abs(np.vdot(a, b)) ** 2
        assert 0.1 < expected < 0.9
        for x, y in ((a, b), (projector(a), b), (a, projector(b)),
                     (projector(a), projector(b))):
            assert state_fidelity(x, y) == pytest.approx(expected, abs=1e-14)


class TestAverageFidelity:
    def test_perfect_reprepare_perfect_measure(self):
        b1, b2 = initial_pair(math.pi / 2)
        res = average_fidelity((b1, b2), (b1, b2), (b1, b2), computational_povm())
        assert res.avg_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_dr1_from_pipeline(self):
        for theta in (0.0, 0.5, 1.2, math.pi / 2):
            originals = initial_pair(theta)
            res = average_fidelity(originals, originals, originals, computational_povm())
            assert res.avg_fidelity == pytest.approx(f_dr1(theta), abs=1e-12)

    def test_termwise_expansion(self):
        theta = 0.9
        originals = initial_pair(theta)
        _, distorted = evolved_pair_bj(theta, 1.1, 0.2, 0.8)
        povm = LocalPovm(0.5, 1.3, 0.2, 4.0)
        res = average_fidelity(originals, distorted, distorted, povm)
        p1, p2 = helstrom(*distorted, povm)
        b1, b2 = originals
        expected = 0.5 * (p1 * state_fidelity(b1, distorted[0])
                          + (1 - p1) * state_fidelity(b1, distorted[1])) \
            + 0.5 * (p2 * state_fidelity(b2, distorted[1])
                     + (1 - p2) * state_fidelity(b2, distorted[0]))
        assert res.avg_fidelity == pytest.approx(expected, abs=1e-14)

    def test_results_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            theta = rng.uniform(0, math.pi / 2)
            originals = initial_pair(theta)
            _, distorted = evolved_pair_bj(theta, rng.uniform(0, 5), rng.uniform(0, 0.5),
                                        rng.uniform(0, 6))
            povm = LocalPovm(*rng.uniform(0, math.pi, 2), *rng.uniform(0, 2 * math.pi, 2))
            res = average_fidelity(originals, distorted, distorted, povm)
            assert -1e-12 <= res.p_h1 <= 1 + 1e-12
            assert -1e-12 <= res.p_h2 <= 1 + 1e-12
            assert -1e-12 <= res.avg_fidelity <= 1 + 1e-12


class TestClosedFormSchemes:
    def test_f_dr1_values(self):
        assert f_dr1(0.0) == pytest.approx(0.5)
        assert f_dr1(math.pi / 2) == pytest.approx(1.0)
        assert f_dr1(math.pi / 4) == pytest.approx(0.75)

    def test_f_dr1_monotone(self):
        thetas = np.linspace(0.0, math.pi / 2, 50)
        vals = [f_dr1(t) for t in thetas]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_f_n_at_zero_time(self):
        assert f_n(0.7, 2.0, 0.3, 0.0) == pytest.approx(1.0)

    def test_f_n_theta_limits(self):
        b_plus, j, t = 1.7, 0.2, 1.3
        assert f_n(0.0, b_plus, j, t) == pytest.approx(math.cos(b_plus * t) ** 2, abs=1e-12)
        expected = 0.5 * (1 + (4 * j * j - 1) * math.sin(t) ** 2 + math.cos(b_plus * t) ** 2)
        assert f_n(math.pi / 2, b_plus, j, t) == pytest.approx(expected, abs=1e-12)

    def test_f_n_matches_pipeline_grid(self):
        worst = 0.0
        for theta in np.linspace(0.0, math.pi / 2, 20):
            for b_plus in np.linspace(0.0, 5.0, 20):
                for j in np.linspace(0.0, 0.5, 5):
                    for t in np.linspace(0.2, 2 * math.pi, 5):
                        worst = max(worst, abs(f_n(theta, b_plus, j, t)
                                               - f_n_pipeline(theta, b_plus, j, t)))
        assert worst < 1e-9

    @given(st.lists(st.tuples(st.floats(0.0, math.pi / 2), st.floats(-5.0, 5.0),
                              st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
                              st.floats(-2 * math.pi, 2 * math.pi)), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_f_n_pipeline_stacked_equals_scalar_calls(self, cells):
        theta, b_plus, j, t = np.array(cells).T
        scalar = [f_n_pipeline(*cell) for cell in cells]
        np.testing.assert_allclose(f_n_pipeline(theta, b_plus, j, t), scalar, rtol=0, atol=1e-15)
        # one theta against a row of cells, as in the verify suite
        row = f_n_pipeline(theta[0], b_plus, j, t)
        np.testing.assert_allclose(row, [f_n_pipeline(theta[0], *cell[1:]) for cell in cells],
                                   rtol=0, atol=1e-15)

    def test_f_n_pipeline_checks_every_entry(self):
        with pytest.raises(ValueError, match="theta must lie"):
            f_n_pipeline(np.array([0.1, 2.0]), 1.0, 0.2, 1.0)
        with pytest.raises(ValueError, match="j must lie"):
            f_n_pipeline(0.1, 1.0, np.array([0.2, 0.6]), 1.0)

    def test_f_ab_limits(self):
        b_plus, j, t = 1.0, 1 / 6, math.pi / 2
        assert abs(f_ab(1e-4, b_plus, j, t) - math.cos(b_plus * t) ** 2) < 1e-6
        assert abs(f_ab(math.pi / 2, b_plus, j, t) - 1.0) < 1e-10

    def test_f_ab_frozen_value(self):
        # frozen from an independent term-wise average-fidelity evaluation
        assert f_ab(math.pi / 4, 1.0, 1 / 6, math.pi / 2) == pytest.approx(
            0.4861111111111111, abs=1e-12)

    def test_f_ab_approaches_f_n_quadratically(self):
        b_plus, j, t = 1.2, 0.25, 0.9
        d1 = abs(f_ab(1e-2, b_plus, j, t) - f_n(1e-2, b_plus, j, t))
        d2 = abs(f_ab(1e-3, b_plus, j, t) - f_n(1e-3, b_plus, j, t))
        assert d2 < d1 / 50.0

    @given(st.floats(0.0, math.pi / 2), st.floats(-5.0, 5.0),
           st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
           st.floats(-2 * math.pi, 2 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_f_ab_matches_the_matrix_route(self, theta, b_plus, j, t):
        # reference: the propagator matrix, a LocalPovm and state_fidelity
        originals = initial_pair(theta)
        u = evolution_closed_form(params_from_bj(b_plus, j), t)
        reference = average_fidelity(originals, [u @ beta for beta in originals],
                                     originals, table1_povm(theta, "A")).avg_fidelity
        assert abs(f_ab(theta, b_plus, j, t) - reference) <= 1e-13

    def test_f_ab_variant_b_equivalent(self):
        theta, b_plus, j, t = 0.7, 1.3, 0.2, 1.1
        originals = initial_pair(theta)
        _, distorted = evolved_pair_bj(theta, b_plus, j, t)
        fa = average_fidelity(originals, distorted, originals,
                              table1_povm(theta, "A")).avg_fidelity
        fb = average_fidelity(originals, distorted, originals,
                              table1_povm(theta, "B")).avg_fidelity
        assert fa == pytest.approx(fb, abs=1e-12)

    def test_f_so(self):
        assert f_so(math.pi / 2, 1.0, 1 / 6, math.pi / 2) == pytest.approx(1.0, abs=1e-10)
        # theta -> 0 with b+ t = pi/2: max(1/2, ~0) = 1/2
        assert f_so(1e-9, 1.0, 1 / 6, math.pi / 2) == pytest.approx(0.5, abs=1e-9)
        for theta in (0.2, 0.8, 1.3):
            v = f_so(theta, 1.0, 1 / 6, math.pi / 2)
            assert v >= f_dr1(theta) - 1e-15
            assert v >= f_ab(theta, 1.0, 1 / 6, math.pi / 2) - 1e-15

    def test_f_so_propagates_nan_from_f_ab(self):
        # b+ t overflows: F_AB is nan, and max(F_DR1, nan) must not hide it
        with np.errstate(invalid="ignore"):
            assert math.isnan(f_ab(0.0, 1e200, 0.1, 1e200))
            assert math.isnan(f_so(0.0, 1e200, 0.1, 1e200))

    def test_zero_field_no_distortion(self):
        # b+ = 0, j = 1/2 leaves both states invariant up to phase
        for theta in (0.3, 1.0):
            assert f_n(theta, 0.0, 0.5, 2.3) == pytest.approx(1.0, abs=1e-12)
            originals = initial_pair(theta)
            _, distorted = evolved_pair_bj(theta, 0.0, 0.5, 2.3)
            for variant in ("A", "B"):
                res = average_fidelity(originals, distorted, originals,
                                       table1_povm(theta, variant))
                assert res.avg_fidelity == pytest.approx(1.0, abs=1e-12)


class TestCriticalFidelities:
    def test_theta_zero(self):
        np.testing.assert_allclose(critical_fidelities(0.0),
                                   (0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0), atol=1e-15)

    def test_theta_right_angle(self):
        np.testing.assert_allclose(critical_fidelities(math.pi / 2),
                                   (0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0), atol=1e-15)

    def test_sorted_ascending(self):
        vals = critical_fidelities(1.0)
        assert list(vals) == sorted(vals)
