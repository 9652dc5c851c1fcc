import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol.evolution import evolution_closed_form, params_from_bj
from isingcontrol.linalg import projector
from isingcontrol.states import (
    _schmidt,
    bell,
    diagonal_trace_distance,
    evolved_pair_bj,
    initial_pair,
    pair_from_local_bases,
    schmidt,
    schmidt_closed_form,
    trace_distance,
    witness_value,
)

SQ2 = math.sqrt(2.0)


@st.composite
def unit_states(draw):
    """An evolved second preparation (j = 0 and j = 1/2, where b1 = b2, come
    up often) or a random unit vector."""
    if draw(st.booleans()):
        j = draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)))
        p = params_from_bj(draw(st.floats(-3.0, 3.0)), j)
        _, beta2 = initial_pair(draw(st.floats(0.0, math.pi / 2)))
        return evolution_closed_form(p, draw(st.floats(-2 * math.pi, 2 * math.pi))) @ beta2
    v = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(2, 4))
    v = v[0] + 1j * v[1]
    return v / np.linalg.norm(v)


@st.composite
def bad_states(draw):
    """A vector that fails schmidt's checks: off unit norm, or non-finite."""
    v = draw(unit_states())
    if draw(st.booleans()):
        return v * draw(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 10.0)))
    v = v.copy()
    v[draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf, -np.inf,
                                                       complex(0.0, np.nan)]))
    return v


class TestBell:
    def test_convention(self):
        np.testing.assert_allclose(bell(0, 0), np.array([1, 0, 0, 1]) / SQ2)
        np.testing.assert_allclose(bell(0, 1), np.array([0, 1, 1, 0]) / SQ2)
        np.testing.assert_allclose(bell(1, 0), np.array([1, 0, 0, -1]) / SQ2)
        np.testing.assert_allclose(bell(1, 1), np.array([0, 1, -1, 0]) / SQ2)

    def test_orthonormal(self):
        basis = [bell(i, j) for i in (0, 1) for j in (0, 1)]
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError, match="bits"):
            bell(2, 0)


class TestInitialPair:
    def test_first_state_is_phi_plus(self):
        for theta in (0.0, 0.4, math.pi / 2):
            b1, _ = initial_pair(theta)
            np.testing.assert_allclose(b1, bell(0, 0))

    def test_endpoints(self):
        _, b2 = initial_pair(math.pi / 2)
        np.testing.assert_allclose(b2, bell(0, 1), atol=1e-15)
        _, b2 = initial_pair(0.0)
        np.testing.assert_allclose(b2, -bell(1, 0), atol=1e-15)

    def test_orthogonal_unit_norm(self):
        for theta in np.linspace(0.0, math.pi / 2, 9):
            b1, b2 = initial_pair(theta)
            assert abs(np.vdot(b1, b2)) < 1e-14
            assert np.linalg.norm(b2) == pytest.approx(1.0)

    def test_matches_local_basis_construction(self):
        for theta in np.linspace(0.0, math.pi / 2, 21):
            got = initial_pair(theta)
            expected = pair_from_local_bases(theta)
            for g, e in zip(got, expected):
                assert np.abs(g - e).max() < 1e-12

    def test_overlap_between_angles(self):
        # <beta2(a)|beta2(b)> = cos(a - b)
        for a, b in ((0.2, 0.9), (0.0, math.pi / 2), (1.0, 1.0)):
            _, b2a = initial_pair(a)
            _, b2b = initial_pair(b)
            assert abs(np.vdot(b2a, b2b)) ** 2 == pytest.approx(math.cos(a - b) ** 2, abs=1e-12)

    def test_range_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            initial_pair(-0.1)
        with pytest.raises(ValueError, match="theta"):
            initial_pair(2.0)


PURE_CELLS = st.lists(st.tuples(
    st.floats(0.0, math.pi / 2), st.floats(-5.0, 5.0),
    st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    st.floats(-2 * math.pi, 2 * math.pi)), min_size=1, max_size=32)


class TestEvolvedPair:
    @given(PURE_CELLS)
    @settings(max_examples=100, deadline=None)
    def test_stack_equals_the_matrix_route(self, cells):
        # reference: the 4x4 closed-form propagator times each state
        theta, b_plus, j, t = (np.array(column) for column in zip(*cells))
        _, stacked = evolved_pair_bj(theta, b_plus, j, t)
        for k, (theta_k, b_plus_k, j_k, t_k) in enumerate(cells):
            u = evolution_closed_form(params_from_bj(b_plus_k, j_k), t_k)
            for beta, distorted in zip(initial_pair(theta_k), stacked):
                assert np.array_equal(distorted[k], u @ beta)


class TestTraceDistance:
    def test_identical_states(self):
        rho = projector(bell(0, 0))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pair_has_unit_distance(self):
        # The pair is orthogonal for every theta, so the full trace distance
        # is exactly 1; sin^2(theta) is the diagonal (computational-basis)
        # distinguishability instead.
        for theta in (0.1, math.pi / 4, 1.2):
            b1, b2 = initial_pair(theta)
            d = trace_distance(projector(b1), projector(b2))
            assert d == pytest.approx(1.0, abs=1e-12)
            diag = diagonal_trace_distance(projector(b1), projector(b2))
            assert diag == pytest.approx(math.sin(theta) ** 2, abs=1e-12)

    def test_unitary_invariance(self):
        p = params_from_bj(1.7, 0.2)
        for theta in (0.3, 1.0):
            b1, b2 = initial_pair(theta)
            before = trace_distance(projector(b1), projector(b2))
            for t in (0.5, 2.0, 5.5):
                u = evolution_closed_form(p, t)
                after = trace_distance(projector(u @ b1), projector(u @ b2))
                assert abs(after - before) < 1e-12

    def test_diagonal_distance_preserved_by_distortion(self):
        for theta in (0.2, 0.8, 1.4):
            for t in (0.7, 2.3):
                _, (b1p, b2p) = evolved_pair_bj(theta, 1.3, 0.2, t)
                diag = diagonal_trace_distance(projector(b1p), projector(b2p))
                assert diag == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


class TestSchmidt:
    def test_maximally_entangled(self):
        assert schmidt(bell(0, 0)) == pytest.approx((0.5, 0.5))

    def test_product_state(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        assert schmidt(v) == pytest.approx((1.0, 0.0))

    def test_initial_pair_maximally_entangled_all_theta(self):
        for theta in np.linspace(0.0, math.pi / 2, 11):
            _, b2 = initial_pair(theta)
            np.testing.assert_allclose(schmidt(b2), (0.5, 0.5), atol=1e-12)

    def test_first_state_stays_maximally_entangled(self):
        p = params_from_bj(2.2, 0.15)
        b1, _ = initial_pair(0.6)
        for t in np.linspace(0.0, 2.0 * math.pi, 13):
            lam = schmidt(evolution_closed_form(p, t) @ b1)
            np.testing.assert_allclose(lam, (0.5, 0.5), atol=1e-10)

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (4, 2), ()])
    def test_rejects_anything_but_4_vectors(self, shape):
        with pytest.raises(ValueError, match=r"state must be a 4-vector, got shape \("):
            schmidt(np.ones(shape) / 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            schmidt(np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("entry", [complex(np.inf, 1.0), -np.inf, np.nan,
                                       complex(0.0, np.nan)])
    def test_non_finite_entry_raises_before_the_norm(self, entry):
        """Alone or anywhere in a stack, a state with an infinite or nan
        entry fails with one message and writes no numpy warning (the norm
        of an infinite entry used to warn; a nan entry passed the norm check
        and failed later as "matrix has non-finite entries")."""
        bad = np.array([0.0, entry, 0.0, 0.0])
        stack = np.stack([bell(0, 0), bell(1, 1), bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for state in (bad, stack, stack[::-1, None]):
                with pytest.raises(ValueError, match="^state has a non-finite entry$"):
                    schmidt(state)

    def test_overflowing_norm_fails_the_norm_check_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^state norm inf is not 1$"):
                schmidt(np.array([1e200, 0.0, 0.0, 0.0]))

    @given(st.lists(unit_states(), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_stacked_equals_scalar_calls(self, states):
        expected = np.array([schmidt(v) for v in states])
        lam1, lam2 = schmidt(np.array(states))
        np.testing.assert_allclose(np.stack([lam1, lam2], axis=-1), expected, rtol=0, atol=1e-14)
        lam1, lam2 = schmidt(np.array(states)[:, None, :])   # two leading axes
        np.testing.assert_allclose(np.stack([lam1, lam2], axis=-1)[:, 0], expected,
                                   rtol=0, atol=1e-14)

    @given(st.lists(unit_states(), max_size=6), bad_states(), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_bad_state_anywhere_in_a_stack_raises_as_alone(self, states, bad, where):
        where = min(where, len(states))
        with pytest.raises(ValueError) as alone:
            schmidt(bad)
        with pytest.raises(ValueError) as stacked:
            schmidt(np.array(states[:where] + [bad] + states[where:]))
        assert str(stacked.value) == str(alone.value)


class TestSchmidtClosedForm:
    def test_t_zero(self):
        res = schmidt_closed_form(0.7, 0.3, 0.0)
        assert (res.lambda1, res.lambda2) == (0.5, 0.5)

    def test_theta_zero(self):
        res = schmidt_closed_form(0.0, 0.3, 1.7)
        assert (res.lambda1, res.lambda2) == (0.5, 0.5)

    def test_quarter_coupling_at_right_angles(self):
        # theta=pi/2, j=1/4, t=pi/2: A = 3/4, B term suppressed
        res = schmidt_closed_form(math.pi / 2, 0.25, math.pi / 2)
        assert res.a_term == pytest.approx(0.75, abs=1e-12)
        assert res.lambda1 == pytest.approx(0.5 * (1.0 + math.sqrt(0.75)), abs=1e-12)
        _, b2 = initial_pair(math.pi / 2)
        u = evolution_closed_form(params_from_bj(1.234, 0.25), math.pi / 2)
        lam = schmidt(u @ b2)
        assert lam[0] == pytest.approx(res.lambda1, abs=1e-10)

    def test_matches_reduced_density_grid(self):
        worst = 0.0
        for theta in np.linspace(0.0, math.pi / 2, 20):
            for j in np.linspace(0.0, 0.5, 20):
                p = params_from_bj(0.9, j)
                for t in np.linspace(0.0, 2.0 * math.pi, 20):
                    _, b2 = initial_pair(theta)
                    lam = schmidt(evolution_closed_form(p, t) @ b2)
                    res = schmidt_closed_form(theta, j, t)
                    worst = max(worst, abs(lam[0] - res.lambda1), abs(lam[1] - res.lambda2))
        assert worst < 1e-9

    def test_lambdas_sum_to_one_and_order(self):
        res = schmidt_closed_form(0.9, 0.2, 2.7)
        assert res.lambda1 + res.lambda2 == pytest.approx(1.0)
        assert 0.5 <= res.lambda1 <= 1.0
        assert 0.0 <= res.lambda2 <= 0.5

    def test_range_validation(self):
        with pytest.raises(ValueError, match="theta"):
            schmidt_closed_form(3.0, 0.2, 1.0)
        with pytest.raises(ValueError, match="j"):
            schmidt_closed_form(0.3, 0.7, 1.0)

    def test_grid_raises_when_one_entry_lies_beyond_the_clamp(self):
        # the unchecked formula does not check j; past j = 1/2 the sqrt
        # argument at theta = t = pi/2 is about -16 (j - 1/2)
        j = np.array([0.1, 0.25, 0.5 + 1e-12, 0.4])
        res = _schmidt(math.pi / 2, j, math.pi / 2)
        assert res.lambda1[2] == 0.5        # within SCHMIDT_CLAMP_TOL: clamped
        j[1] = 0.5 + 1e-9
        with pytest.raises(ValueError,
                           match=r"sqrt argument -1\.[0-9]+e-08 outside \[0, 1\] beyond tolerance"):
            _schmidt(math.pi / 2, j, math.pi / 2)


class TestWitness:
    def test_bell_projector_certifies_itself(self):
        assert witness_value(projector(bell(0, 0)), 0, 0) == pytest.approx(-1.0)

    def test_maximally_mixed(self):
        for i in (0, 1):
            for j in (0, 1):
                assert witness_value(np.eye(4) / 4, i, j) == pytest.approx(0.5)

    def test_completeness_sum(self):
        # sum over the four witnesses of Tr(W rho) = 4 Tr(rho) - 2 = 2
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= rho.trace().real
        total = sum(witness_value(rho, i, j) for i in (0, 1) for j in (0, 1))
        assert total == pytest.approx(2.0, abs=1e-12)
