import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol.discrimination import (
    average_fidelity,
    computational_povm,
    f_so,
    fold_angles,
    table1_povm,
)
from isingcontrol.optimize import (
    Fdr2Result,
    OptimizerSettings,
    _correlations,
    _svd_optimum,
    coordinate_ascent,
    group_probs_batch,
    optimize_fdr2,
    zero_field_fidelity_batch,
    zero_field_objective,
    zero_field_stationary_values,
)
from isingcontrol.states import evolved_pair_bj, initial_pair


class TestSettings:
    def test_defaults(self):
        s = OptimizerSettings()
        assert s.objective_mode == "as-printed"

    def test_validation(self):
        with pytest.raises(ValueError, match="objective_mode"):
            OptimizerSettings(objective_mode="other")


class TestZeroFieldObjective:
    def test_table1_a_reaches_global_max(self):
        for theta in (0.2, math.pi / 4, 1.3):
            assert zero_field_objective(theta, table1_povm(theta, "A")) == pytest.approx(
                2.0, abs=1e-12)

    def test_computational_value(self):
        for theta in (0.0, 0.6, math.pi / 2):
            assert zero_field_objective(theta, computational_povm()) == pytest.approx(
                2.0 * math.sin(theta) ** 2, abs=1e-13)

    def test_gauge_flat_in_alpha1_at_zero_polar(self):
        from isingcontrol.discrimination import LocalPovm
        vals = {zero_field_objective(0.0, LocalPovm(0.0, 0.7, a, 0.4))
                for a in (0.0, 1.0, 2.5)}
        assert max(vals) - min(vals) < 1e-15

    def test_affine_to_fidelity_on_real_slice(self):
        # F = 1/2 + objective/4 whenever both phases are 0 or pi
        from isingcontrol.discrimination import LocalPovm
        rng = np.random.default_rng(8)
        for _ in range(200):
            theta = rng.uniform(0, math.pi / 2)
            povm = LocalPovm(rng.uniform(0, math.pi), rng.uniform(0, math.pi),
                             rng.choice([0.0, math.pi]), rng.choice([0.0, math.pi]))
            fid = zero_field_fidelity_batch(theta, np.array([povm.angles()]))[0]
            assert fid == pytest.approx(0.5 + zero_field_objective(theta, povm) / 4.0,
                                        abs=1e-12)


class TestCoordinateAscent:
    def test_monotone_improvement(self):
        def objective(x):
            return -((x - 1.2) ** 2).sum(axis=1)

        start = np.zeros((3, 4))
        start[1] = 2.0
        pts, vals, converged = coordinate_ascent(objective, start, 0.5, 1e-9, 5000)
        assert converged
        assert (vals >= objective(start) - 1e-15).all()
        np.testing.assert_allclose(pts, 1.2, atol=1e-7)

    def test_budget_exhaustion_flags(self):
        def objective(x):
            return -((x - 1.2) ** 2).sum(axis=1)

        _, _, converged = coordinate_ascent(objective, np.zeros((1, 4)), 0.5, 1e-12, 3)
        assert not converged


class TestOptimizeFdr2:
    def test_zero_field_reaches_unity(self):
        for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            res = optimize_fdr2(theta, 0.0, 0.5, 1.0)
            assert res.converged
            assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_dominates_analytic_seeds(self):
        theta, b_plus, j, t = 0.9, 2.4, 1 / 6, math.pi / 2
        for mode in ("as-printed", "reprepare-originals"):
            res = optimize_fdr2(theta, b_plus, j, t, OptimizerSettings(objective_mode=mode))
            originals = initial_pair(theta)
            distorted = evolved_pair_bj(theta, b_plus, j, t)
            reprepared = distorted if mode == "as-printed" else originals
            for povm in (computational_povm(), table1_povm(theta, "A"), table1_povm(theta, "B")):
                seed_val = average_fidelity(originals, distorted, reprepared, povm).avg_fidelity
                assert res.value >= seed_val - 1e-12

    def test_reprepare_originals_dominates_f_so(self):
        settings = OptimizerSettings(objective_mode="reprepare-originals")
        for theta in (0.1, 0.8):
            for b_plus in (0.5, 1.0, 3.7):
                res = optimize_fdr2(theta, b_plus, 1 / 6, math.pi / 2, settings)
                assert res.value >= f_so(theta, b_plus, 1 / 6, math.pi / 2) - 1e-6

    def test_deterministic(self):
        a = optimize_fdr2(0.7, 1.9, 0.2, 1.1)
        b = optimize_fdr2(0.7, 1.9, 0.2, 1.1)
        assert a.value == b.value
        assert a.povm == b.povm

    def test_relabel_symmetry(self):
        # theta_i -> pi - theta_i with alpha_i -> alpha_i + pi swaps the
        # outcome labels inside each group, so re-optimizing from the
        # mirrored optimum must reproduce the same value
        theta, b_plus, j, t = 0.6, 1.4, 0.25, 0.8
        settings = OptimizerSettings()
        res = optimize_fdr2(theta, b_plus, j, t, settings)
        mirrored = np.array([[
            math.pi - res.povm.theta1,
            math.pi - res.povm.theta2,
            (res.povm.alpha1 + math.pi) % (2 * math.pi),
            (res.povm.alpha2 + math.pi) % (2 * math.pi),
        ]])
        from isingcontrol.optimize import _objective_coefficients

        b1p, b2p, const, c1, c2 = _objective_coefficients(theta, b_plus, j, t, "as-printed")

        def objective(x):
            p1, p2 = group_probs_batch(x, b1p, b2p)
            return const + c1 * p1 + c2 * p2

        assert objective(mirrored)[0] == pytest.approx(res.value, abs=1e-9)
        _, vals, _ = coordinate_ascent(objective, mirrored, math.pi / 8, 1e-8, 2000)
        assert vals[0] == pytest.approx(res.value, abs=1e-7)

    def test_result_type(self):
        res = optimize_fdr2(0.3, 0.5, 0.1, 0.5)
        assert isinstance(res, Fdr2Result)
        assert 0.0 <= res.value <= 1.0 + 1e-12

    def test_degenerate_cell_choice_is_pinned(self):
        # at zero field sigma_1 = sigma_2 = 1, so the SVD's top pair is one
        # of many optimal bases; the returned one must still be fixed
        theta, b_plus, j, t = math.pi / 4, 0.0, 0.5, 1.0
        b1p, b2p = evolved_pair_bj(theta, b_plus, j, t)
        a = _correlations(b1p) - _correlations(b2p)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] - s[1] < 1e-12
        res = optimize_fdr2(theta, b_plus, j, t)
        again = optimize_fdr2(theta, b_plus, j, t)
        assert (again.povm, again.value) == (res.povm, res.value)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        # negating both Bloch vectors gives the other sign variant
        t1, t2, a1, a2 = res.povm.angles()
        flipped = fold_angles(math.pi - t1, math.pi - t2, a1 + math.pi, a2 + math.pi)
        assert flipped != res.povm
        assert res.povm.angles() < flipped.angles()
        value = zero_field_fidelity_batch(theta, np.array([flipped.angles()]))[0]
        assert value == pytest.approx(1.0, abs=1e-12)


EDGE_AND_INNER_THETAS = [0.0, 1e-3, math.pi / 8, math.pi / 3, 1.2, math.pi / 2]


class TestStationaryValues:
    def test_seven_critical_values_at_theta_pi_3(self):
        from isingcontrol.discrimination import critical_fidelities
        vals = zero_field_stationary_values(math.pi / 3)
        assert len(vals)
        for target in critical_fidelities(math.pi / 3):
            assert np.min(np.abs(vals - target)) < 1e-6

    @pytest.mark.parametrize("theta", EDGE_AND_INNER_THETAS)
    def test_values_are_exactly_the_critical_fidelities(self, theta):
        # the same set both ways: every value is critical and every critical
        # value is found, also at the edges where values coincide or crowd
        from isingcontrol.discrimination import critical_fidelities
        gaps = np.abs(zero_field_stationary_values(theta)[:, None]
                      - np.array(critical_fidelities(theta))[None, :])
        assert gaps.min(axis=1).max() < 1e-9
        assert gaps.min(axis=0).max() < 1e-9

    @pytest.mark.parametrize("theta", EDGE_AND_INNER_THETAS)
    def test_every_candidate_is_stationary(self, theta):
        # gradient through the matrix pipeline, a scorer independent of both
        # the SVD and group_probs_batch; no candidate may be filtered out
        from isingcontrol.discrimination import average_fidelity
        from isingcontrol.optimize import _stationary_points

        pair = initial_pair(theta)

        def fidelity(x):
            return average_fidelity(pair, pair, pair, fold_angles(*x)).avg_fidelity

        points = _stationary_points(theta)
        h = 1e-5
        for x in points:
            grad = [(fidelity(x + h * e) - fidelity(x - h * e)) / (2 * h) for e in np.eye(4)]
            assert np.linalg.norm(grad) < 1e-8
        assert len(zero_field_stationary_values(theta)) == len(points) == 18


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def weighted_objective(x, s1, s2, c1, c2):
    p1, p2 = group_probs_batch(x, s1, s2)
    return c1 * p1 + c2 * p2


weights = st.floats(min_value=-1.0, max_value=1.0)


def bloch(theta, alpha):
    """Bloch vectors (N, 3) of the delta states with the given angles."""
    sin_t = np.sin(theta)
    return np.stack([sin_t * np.cos(alpha), sin_t * np.sin(alpha), np.cos(theta)], axis=1)


class TestSvdOptimum:
    @given(st.integers(0, 2**32 - 1), weights, weights)
    @settings(max_examples=50, deadline=None)
    def test_objective_is_bilinear_in_bloch_vectors(self, seed, c1, c2):
        # the identity the closed form rests on
        rng = np.random.default_rng(seed)
        s1, s2 = random_state(rng), random_state(rng)
        x = rng.uniform(-2 * math.pi, 2 * math.pi, (64, 4))
        a = c1 * _correlations(s1) - c2 * _correlations(s2)
        bilinear = 0.5 * (c1 + c2) + 0.5 * np.einsum(
            "na,ab,nb->n", bloch(x[:, 0], x[:, 2]), a, bloch(x[:, 1], x[:, 3]))
        np.testing.assert_allclose(weighted_objective(x, s1, s2, c1, c2), bilinear, atol=1e-14)

    @given(st.integers(0, 2**32 - 1), weights, weights,
           st.floats(min_value=0.0, max_value=math.pi / 2))
    @settings(max_examples=200, deadline=None)
    def test_value_is_reached_and_never_beaten(self, seed, c1, c2, theta):
        rng = np.random.default_rng(seed)
        s1, s2 = random_state(rng), random_state(rng)
        value, povm = _svd_optimum(s1, s2, c1, c2)
        reached = weighted_objective(np.array([povm.angles()]), s1, s2, c1, c2)[0]
        assert abs(value - reached) <= 1e-14
        t1, t2, a1, a2 = povm.angles()   # the other sign variant must not be smaller
        assert povm.angles() <= fold_angles(math.pi - t1, math.pi - t2,
                                            a1 + math.pi, a2 + math.pi).angles()
        trial = np.vstack([
            rng.uniform([0, 0, 0, 0], [math.pi, math.pi, 2 * math.pi, 2 * math.pi], (256, 4)),
            [computational_povm().angles(), table1_povm(theta, "A").angles(),
             table1_povm(theta, "B").angles()]])
        assert value >= weighted_objective(trial, s1, s2, c1, c2).max() - 1e-14
