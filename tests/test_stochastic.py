import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isingcontrol.control import fidelity_overlap, plan_situation1, plan_situation2
from isingcontrol.discrimination import f_n
from isingcontrol.evolution import (
    IsingParams,
    PhysicalFields,
    b_minus_magnitude,
    evolution_closed_form,
    hamiltonian,
    normalize_fields,
    params_from_bj,
    spectrum,
)
from isingcontrol.linalg import dag, hermitian_eigenvalues, max_asymmetry, projector
from isingcontrol.states import initial_pair
from isingcontrol.stochastic import (
    AbdCoefficients,
    GaussianTime,
    _hermite_rule,
    abd_decompose,
    abd_reconstruct,
    dephase,
    f1,
    f2,
    f_n_mix,
    f_n_mix_closed,
    f_n_mix_pipeline,
    gaussian_mixed_state,
    quadrature_oracle,
    witness_table,
    witness_table_numeric,
)
from isingcontrol.sweeps import fields_from_bj

J6 = 1.0 / 6.0


def fields_b_minus_zero(b_plus_phys: float, coupling: float) -> PhysicalFields:
    return PhysicalFields(b_plus_phys / 2.0, b_plus_phys / 2.0, coupling)


class TestGaussianTime:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianTime(0.0, 0.1)
        with pytest.raises(ValueError, match=">= 0"):
            GaussianTime(1.0, -0.1)
        with pytest.raises(ValueError, match=">= 0"):
            GaussianTime(1.0, math.nan)

    def test_validity_flag(self):
        assert GaussianTime(3.0, 1.0).is_model_valid
        assert not GaussianTime(2.9, 1.0).is_model_valid
        assert GaussianTime(1.0, 0.0).is_model_valid
        assert GaussianTime(1.0, 0.0).ratio == math.inf


class TestGaussianMixedState:
    def setup_method(self):
        self.p = params_from_bj(1.3, J6)
        _, beta2 = initial_pair(0.9)
        self.rho = projector(beta2)

    def test_sharp_limit_is_pure_evolution(self):
        g = GaussianTime(1.7, 0.0)
        u = evolution_closed_form(self.p, g.t0)
        np.testing.assert_allclose(gaussian_mixed_state(self.rho, self.p, g),
                                   u @ self.rho @ dag(u), atol=1e-10)

    def test_broad_limit_dephases_fully(self):
        g = GaussianTime(math.pi / 2, 1e3)
        mixed = gaussian_mixed_state(self.rho, self.p, g)
        energies, vectors = np.linalg.eigh(hamiltonian(self.p))
        expected = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            pk = projector(vectors[:, k])
            expected += pk @ self.rho @ pk
        np.testing.assert_allclose(mixed, expected, atol=1e-12)

    def test_matches_quadrature(self):
        for t0 in (math.pi / 2, 3 * math.pi / 4, 7 * math.pi / 4):
            for s in (0.0, 0.4, t0 / 3):
                g = GaussianTime(t0, s)
                dev = np.abs(gaussian_mixed_state(self.rho, self.p, g)
                             - quadrature_oracle(self.rho, self.p, g, nodes=64)).max()
                assert dev < 1e-8

    def test_quadrature_node_doubling_converged(self):
        g = GaussianTime(2.0, 1.5)
        a = quadrature_oracle(self.rho, self.p, g, nodes=32)
        b = quadrature_oracle(self.rho, self.p, g, nodes=64)
        assert np.abs(a - b).max() < 1e-10

    def test_quadrature_needs_nodes(self):
        with pytest.raises(ValueError, match="16"):
            quadrature_oracle(self.rho, self.p, GaussianTime(1.0, 0.1), nodes=8)

    def test_output_is_physical(self):
        g = GaussianTime(1.1, 0.5)
        mixed = gaussian_mixed_state(self.rho, self.p, g)
        assert max_asymmetry(mixed) < 1e-12
        assert mixed.trace().real == pytest.approx(1.0, abs=1e-12)
        assert hermitian_eigenvalues(mixed).min() > -1e-10

    def test_energy_populations_invariant(self):
        g = GaussianTime(1.1, 0.7)
        mixed = gaussian_mixed_state(self.rho, self.p, g)
        _, vectors = np.linalg.eigh(hamiltonian(self.p))
        before = np.diag(dag(vectors) @ self.rho @ vectors).real
        after = np.diag(dag(vectors) @ mixed @ vectors).real
        np.testing.assert_allclose(after, before, atol=1e-12)


class TestHermiteRule:
    """The oracle's Gauss-Hermite rule, built without an eigensolver."""

    SIZES = (16, 17, 32, 64, 65, 100)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_hermgauss(self, n):
        from numpy.polynomial.hermite import hermgauss   # the package never loads it

        x, w = _hermite_rule(n)
        expected_x, expected_w = hermgauss(n)
        assert np.abs(x - expected_x).max() <= 4e-15
        assert np.abs(w / expected_w - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", SIZES)
    def test_integrates_even_powers_exactly(self, n):
        # the rule is exact to degree 2n - 1: sum w x^2k = Gamma(k + 1/2)
        x, w = _hermite_rule(n)
        for k in range(n):
            assert np.dot(w, x ** (2 * k)) == pytest.approx(math.gamma(k + 0.5), rel=1e-13)

    def test_cached_and_read_only(self):
        x, w = _hermite_rule(64)
        again = _hermite_rule(64)
        assert again[0] is x and again[1] is w
        assert not x.flags.writeable and not w.flags.writeable


class TestWitnessTable:
    def test_closed_forms_match_pipeline(self):
        worst = 0.0
        for theta in (0.0, 0.7, math.pi / 2):
            for b_plus in (0.0, 1.0, 2.0):
                p = params_from_bj(b_plus, J6)
                for t0, s in ((math.pi / 2, 0.0), (math.pi / 2, 0.4), (2.0, 0.6)):
                    g = GaussianTime(t0, s)
                    closed = witness_table(theta, p, g)
                    numeric = witness_table_numeric(theta, p, g)
                    worst = max(worst, max(abs(closed[k] - numeric[k]) for k in closed))
        assert worst < 1e-9

    def test_undistorted_bell_state(self):
        p = params_from_bj(0.0, J6)
        table = witness_table(0.4, p, GaussianTime(1.0, 0.0))
        assert table[(1, 0, 0)] == pytest.approx(-1.0)

    def test_broad_limit_pattern(self):
        p = params_from_bj(1.0, J6)
        table = witness_table(0.4, p, GaussianTime(1.0, 1e3))
        got = [table[(1, 0, 0)], table[(1, 0, 1)], table[(1, 1, 0)], table[(1, 1, 1)]]
        np.testing.assert_allclose(got, [0.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_theta_zero_second_state(self):
        b_plus, t0, s = 1.3, 0.9, 0.2
        p = params_from_bj(b_plus, J6)
        table = witness_table(0.0, p, GaussianTime(t0, s))
        expected = math.exp(-2 * (b_plus * s) ** 2) * math.cos(2 * b_plus * t0)
        assert table[(2, 0, 0)] == pytest.approx(expected, abs=1e-12)


class TestFnMix:
    def test_sharp_limit_reduces_to_pure_scheme(self):
        for theta in (0.3, 1.1):
            assert abs(f_n_mix(theta, 1.0, J6, math.pi / 2, 0.0)
                       - f_n(theta, 1.0, J6, math.pi / 2)) < 1e-12

    def test_broad_limit(self):
        for theta in (0.0, 0.6, math.pi / 2):
            for j in (J6, 0.5):
                got = f_n_mix(theta, 1.0, j, math.pi / 2, 1e3)
                expected = 0.25 * (1 + math.cos(theta) ** 4
                                   + (1 + 4 * j * j) * math.sin(theta) ** 4)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_broad_limit_cap(self):
        assert f_n_mix(math.pi / 2, 1.0, 0.5, math.pi / 2, 1e3) == pytest.approx(0.75)

    def test_huge_field_damps_instead_of_overflowing(self):
        # (b+ s)^2 overflows a float: the damped terms vanish
        args = (0.7, 1e160, J6, 1.0, 0.3)
        scalar = f_n_mix_closed(*args)
        assert f_n_mix(*args) == scalar
        c2, s2 = math.cos(0.7) ** 2, math.sin(0.7) ** 2
        jj4 = 4.0 * J6 * J6
        undamped = 0.25 * ((1.0 + c2 * c2) + ((1.0 + jj4) + (1.0 - jj4) * math.exp(-0.18)
                                              * math.cos(2.0)) * s2 * s2)
        assert scalar == pytest.approx(undamped, abs=1e-15)

    @pytest.mark.parametrize("name", ["f_n_mix", "f_n_mix_closed", "f1", "f2", "witness_table"])
    def test_huge_field_damps_without_a_warning(self, name):
        # b+ = 1e160 overflows (w s)^2 in every damping factor, which is
        # meant to reach exp(-inf) = 0: no RuntimeWarning, scalar or stacked
        calls = {
            "f_n_mix": lambda b_plus: f_n_mix(0.7, b_plus, 0.2, 1.0, 0.3),
            "f_n_mix_closed": lambda b_plus: f_n_mix_closed(0.7, b_plus, 0.2, 1.0, 0.3),
            "f1": lambda b_plus: f1(0.7, params_from_bj(b_plus, 0.2), 1.0, 0.3, 1, 0),
            "f2": lambda b_plus: f2(0.7, fields_from_bj(b_plus, 0.2), 1.0, 0.3, 1.0, 1, 0),
            # the entries that depend on b+
            "witness_table": lambda b_plus: np.stack([
                witness_table(0.7, params_from_bj(b_plus, 0.2), GaussianTime(1.0, 0.3))[key]
                for key in ((1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0))]),
        }
        c2, s2 = math.cos(0.7) ** 2, math.sin(0.7) ** 2
        undamped = 0.25 * ((1.0 + c2 * c2) + (1.16 + 0.84 * math.exp(-0.18) * math.cos(2.0))
                           * s2 * s2)
        expected = {"f_n_mix": undamped, "f_n_mix_closed": undamped,
                    "f1": 0.41571246754097985, "f2": 0.4216707626997831,   # as before the fix
                    "witness_table": [0.0, 0.0, 1.0 - c2, 1.0 - c2]}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = calls[name](1e160)
            stack = calls[name](np.array([1e160, 2.0]))
            point = calls[name](2.0)
        np.testing.assert_allclose(huge, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(stack, np.stack([huge, point], axis=-1))

    def test_matches_pipeline(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            theta = rng.uniform(0, math.pi / 2)
            b_plus = rng.uniform(0, 3)
            j = rng.uniform(0, 0.5)
            t0 = rng.uniform(0.3, 6.0)
            s = rng.uniform(0, t0 / 3)
            assert abs(f_n_mix(theta, b_plus, j, t0, s)
                       - f_n_mix_pipeline(theta, b_plus, j, t0, s)) < 1e-9


class TestF1:
    def test_exact_loop_sharp_limit(self):
        p = params_from_bj(1.0, 0.25)
        for theta in (0.2, 1.0):
            assert f1(theta, p, math.pi / 2, 0.0, 2, 0) == pytest.approx(1.0, abs=1e-12)

    def test_sharp_limit_with_loop_equals_do_nothing_ceiling(self):
        # s -> 0 with an exact loop reaches the F_N <= 1 ceiling exactly
        p = params_from_bj(1.0, 0.25)
        assert f1(0.8, p, math.pi / 2, 1e-9, 2, 1) == pytest.approx(1.0, abs=1e-6)

    def test_broad_limit_bounded(self):
        p = params_from_bj(1.0, J6)
        for theta in (0.0, 0.7, math.pi / 2):
            assert f1(theta, p, math.pi / 2, 1e3, 1, 1) <= 0.75 + 1e-6

    def test_values_in_unit_interval(self):
        p = params_from_bj(1.0, J6)
        for s in np.linspace(0.0, math.pi / 6, 7):
            v = f1(0.9, p, math.pi / 2, s, 1, 1)
            assert -1e-12 <= v <= 1 + 1e-12


class TestF2:
    def test_perfect_reconstruction_sharp(self):
        fields = fields_b_minus_zero(1.6, 0.37)
        for theta in (0.2, 1.0):
            assert f2(theta, fields, 1.1, 0.0, 1.0, 1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_broad_limit_bounded(self):
        fields = PhysicalFields(1.0, 0.0, 0.5)
        for theta in (0.0, 0.7, math.pi / 2):
            assert f2(theta, fields, math.pi / 2, 1e3, 1.0, 1, 0) <= 0.75 + 1e-6

    def test_do_nothing_equivalence(self):
        # B- = 0, J = 1/2 (so R = 1), B+ t0 = 2 pi with n = 2, m = 0 makes the
        # correction the identity, so F2 equals the do-nothing value exactly
        fields = fields_b_minus_zero(4.0, 0.5)
        t0 = math.pi / 2
        for theta in (0.3, 1.2):
            for s in (0.0, 0.2, 0.5):
                got = f2(theta, fields, t0, s, 1.0, 2, 0)
                expected = f_n_mix(theta, 4.0, 0.5, t0, s)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_rejects_invalid_duration_model(self):
        fields = PhysicalFields(1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="mean duration"):
            f2(0.5, fields, -1.0, 0.1, 1.0, 1, 0)
        with pytest.raises(ValueError, match="spread"):
            f2(0.5, fields, 1.0, -0.1, 1.0, 1, 0)


def pure_plan_fidelity(theta, u):
    """Mean over the pair of |<beta|u beta>|^2, u a pure-state plan's composite."""
    return np.mean([fidelity_overlap(beta, u @ beta) for beta in initial_pair(theta)])


class TestPlannerRoundTrip:
    """At s = 0 the mixed schemes reduce to the pure-state plans: the pair is
    corrected by the very propagator that ends the plan's composite()."""

    @given(st.floats(0.0, math.pi / 2), st.floats(-3.0, 3.0), st.floats(0.0, 0.5),
           st.floats(0.01, 6.0), st.integers(0, 2), st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_f1_at_zero_spread_is_the_pure_plan(self, theta, b_plus, j, t0, extra, m):
        p = params_from_bj(b_plus, j)
        n = math.floor(t0 / math.pi) + 1 + extra      # leaves time for the loop
        plan = plan_situation1(t0, p, n, m)
        expected = pure_plan_fidelity(theta, plan.composite())
        assert f1(theta, p, t0, 0.0, n, m) == pytest.approx(expected, rel=0, abs=1e-12)

    @given(st.floats(0.0, math.pi / 2), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.05, 1.0), st.floats(0.01, 6.0), st.floats(0.5, 3.0),
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_f2_at_zero_spread_is_the_pure_plan(self, theta, b1, b2, coupling, t0, duration,
                                                n, m):
        fields = PhysicalFields(b1, b2, coupling)
        plan = plan_situation2(t0, fields, duration, n, m)
        expected = pure_plan_fidelity(theta, plan.composite())
        assert f2(theta, fields, t0, 0.0, duration, n, m) == pytest.approx(
            expected, rel=0, abs=1e-12)


def averaged_fidelity(theta, u, mix):
    """1/2 sum over the pair of Tr(rho u M(rho) u^dag), M(rho) a (..., 4, 4)
    stack of mixed states: the density-matrix route of the mixed schemes."""
    total = 0.0
    for beta in initial_pair(theta):
        rho = projector(beta)
        total = total + np.trace(rho @ u @ mix(rho) @ dag(u), axis1=-2, axis2=-1).real
    return 0.5 * total


def dephased_fidelity(theta, model, t0, spreads, u):
    """The matrix route through :func:`dephase`, one spread per entry."""
    return averaged_fidelity(theta, u, lambda rho: dephase(
        rho, spectrum(model), t0, np.asarray(spreads)[:, None, None]))


SPREADS = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6)
# largest deviation of the 4-term form from the matrix route seen in 9,000
# random draws of each scheme was 4.4e-16 (two ulps of 1)
FORM_TOL = 1e-15


class TestPairForm:
    """f1, f2 and the do-nothing pipeline evaluate the 4-term form in the
    eigenbasis; the matrix route (build, dephase, rotate, correct, trace)
    gives the same numbers."""

    @given(st.floats(0.0, math.pi / 2), st.floats(-5.0, 5.0), st.floats(0.0, 0.5),
           st.sampled_from([1.0, -1.0]), st.floats(0.01, 6.0), SPREADS,
           st.integers(0, 2), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_f1(self, theta, b_plus, j, sign, t0, spreads, extra, m):
        p = IsingParams(b_plus, sign * float(b_minus_magnitude(j)), j)
        n = math.floor(t0 / math.pi) + 1 + extra
        u = plan_situation1(t0, p, n, m).correction()
        got = f1(theta, p, t0, np.array(spreads), n, m)
        assert np.abs(got - dephased_fidelity(theta, p, t0, spreads, u)).max() < FORM_TOL

    @given(st.floats(0.0, math.pi / 2), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.05, 1.0), st.floats(0.01, 6.0), SPREADS, st.floats(0.5, 3.0),
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_f2(self, theta, b1, b2, coupling, t0, spreads, duration, n, m):
        fields = PhysicalFields(b1, b2, coupling)
        u = plan_situation2(t0, fields, duration, n, m).correction()
        got = f2(theta, fields, t0, np.array(spreads), duration, n, m)
        assert np.abs(got - dephased_fidelity(theta, fields, t0, spreads, u)).max() < FORM_TOL

    @given(st.floats(0.0, math.pi / 2), st.floats(-5.0, 5.0), st.floats(0.0, 0.5),
           st.floats(0.01, 6.0), SPREADS)
    @settings(max_examples=100, deadline=None)
    def test_do_nothing_pipeline(self, theta, b_plus, j, t0, spreads):
        got = f_n_mix_pipeline(theta, b_plus, j, t0, np.array(spreads))
        expected = dephased_fidelity(theta, params_from_bj(b_plus, j), t0, spreads, np.eye(4))
        assert np.abs(got - expected).max() < FORM_TOL


# spreads up to t0/3 with t0 <= 3 and moderate fields, where 64 nodes resolve
# the integrand; the largest deviation seen in 3,000 random cells was 6.7e-16
QUADRATURE_TOL = 1e-14
CELLS = st.lists(st.tuples(st.floats(0.0, math.pi / 2), st.floats(0.0, 1.0 / 3.0)),
                 min_size=1, max_size=5)


class TestPlansAgainstQuadrature:
    """F1 and F2 at s > 0, on stacks as the grid path runs them, equal the
    Gauss-Hermite average over the duration of the pure plan's fidelity
    |<beta| u U(t) |beta>|^2, with the average built by quadrature_oracle."""

    @staticmethod
    def quadrature_fidelity(theta, p, g, u):
        return averaged_fidelity(theta, u, lambda rho: quadrature_oracle(rho, p, g))

    @given(CELLS, st.floats(-2.0, 2.0), st.floats(0.0, 0.5), st.sampled_from([1.0, -1.0]),
           st.floats(0.01, 3.0), st.integers(0, 2), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_f1(self, cells, b_plus, j, sign, t0, extra, m):
        theta, fraction = np.array(cells).T
        p = IsingParams(b_plus, sign * float(b_minus_magnitude(j)), j)
        n = math.floor(t0 / math.pi) + 1 + extra
        u = plan_situation1(t0, p, n, m).correction()
        expected = [self.quadrature_fidelity(th, p, GaussianTime(t0, f * t0), u)
                    for th, f in cells]
        got = f1(theta, p, t0, fraction * t0, n, m)
        assert np.abs(got - expected).max() < QUADRATURE_TOL

    @given(CELLS, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.05, 0.5),
           st.floats(0.01, 3.0), st.floats(0.5, 3.0), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_f2(self, cells, b1, b2, coupling, t0, duration, n, m):
        """Physical units: the oracle runs in rescaled time, t' = R t."""
        theta, fraction = np.array(cells).T
        fields = PhysicalFields(b1, b2, coupling)
        p, r = normalize_fields(fields), fields.scale
        u = plan_situation2(t0, fields, duration, n, m).correction()
        expected = [self.quadrature_fidelity(th, p, GaussianTime(r * t0, r * f * t0), u)
                    for th, f in cells]
        got = f2(theta, fields, t0, fraction * t0, duration, n, m)
        assert np.abs(got - expected).max() < QUADRATURE_TOL


# a stack of (t0, s) points that mixes sharp (s = 0) and spread entries
POINTS = st.lists(st.tuples(st.floats(0.1, 6.0), st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
                  min_size=1, max_size=6)


class TestStackedOracles:
    """The Gaussian oracles on stacks equal their point-by-point calls bit for bit."""

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4), st.floats(0.0, 0.5),
           POINTS, st.floats(0.0, math.pi / 2))
    @settings(max_examples=40, deadline=None)
    def test_quadrature_oracle(self, b_plus, j, points, theta):
        t0, s = np.array(points).T
        rho = projector(initial_pair(theta)[1])
        stacked = quadrature_oracle(rho, params_from_bj(np.array(b_plus)[:, None], j),
                                    GaussianTime(t0, s))
        assert stacked.shape == (len(b_plus), len(points), 4, 4)
        for row, b in zip(stacked, b_plus):
            for entry, (t0_k, s_k) in zip(row, points):
                one = quadrature_oracle(rho, params_from_bj(b, j), GaussianTime(t0_k, s_k))
                assert np.array_equal(entry, one)

    def test_quadrature_oracle_stacks_densities(self):
        p, g = params_from_bj(1.3, J6), GaussianTime(np.array([1.1, 2.0, 2.0]),
                                                      np.array([0.0, 0.4, 0.0]))
        rho = projector(np.stack(initial_pair(0.7)))[:, None]           # (2, 1, 4, 4)
        stacked = quadrature_oracle(rho, p, g)
        assert stacked.shape == (2, 3, 4, 4)
        for k, t0, s in zip(range(3), g.t0, g.s):
            for state in range(2):
                one = quadrature_oracle(rho[state, 0], p, GaussianTime(t0, s))
                assert np.array_equal(stacked[state, k], one)

    @given(st.floats(-3.0, 3.0), st.floats(0.0, 0.5), POINTS, st.floats(0.0, math.pi / 2))
    @settings(max_examples=40, deadline=None)
    def test_mixing_and_witness_tables(self, b_plus, j, points, theta):
        t0, s = np.array(points).T
        p, rho = params_from_bj(b_plus, j), projector(initial_pair(theta)[1])
        mixed = gaussian_mixed_state(rho, p, GaussianTime(t0, s))
        table = witness_table_numeric(theta, p, GaussianTime(t0, s))
        for k, point in enumerate(points):
            g = GaussianTime(*point)
            assert np.array_equal(mixed[k], gaussian_mixed_state(rho, p, g))
            one = witness_table_numeric(theta, p, g)
            assert all(table[key][k] == one[key] for key in one)


class TestAbdDecomposition:
    def test_perfect_scheme_coefficients(self):
        # s = 0 and a vanishing mean duration: F is identically 1
        coeffs = abd_decompose(lambda th: f_n_mix(th, 1.0, J6, 1e-12, 0.0))
        assert coeffs.a == pytest.approx(2.0, abs=1e-9)
        assert coeffs.g == pytest.approx(4.0, abs=1e-7)
        assert coeffs.d == pytest.approx(2.0, abs=1e-9)

    def test_broad_limit_coefficients(self):
        for j in (J6, 0.3):
            coeffs = abd_decompose(lambda th: f_n_mix(th, 1.0, j, math.pi / 2, 1e3))
            assert coeffs.a == pytest.approx(1.0, abs=1e-9)
            assert coeffs.d == pytest.approx(1.0 + 4 * j * j, abs=1e-9)
            assert abs(coeffs.g) < 1e-6

    def test_reconstruction_probes(self):
        schemes = [
            lambda th: f_n_mix(th, 1.0, J6, math.pi / 2, 0.3),
            lambda th: f1(th, params_from_bj(1.0, J6), math.pi / 2, 0.3, 1, 1),
            lambda th: f2(th, PhysicalFields(1.0, 0.0, 0.5), math.pi / 2, 0.3, 1.0, 1, 0),
        ]
        for scheme in schemes:
            coeffs = abd_decompose(scheme)
            for th in (math.pi / 8, 3 * math.pi / 8, 0.2, 1.3):
                assert abd_reconstruct(coeffs, th) == pytest.approx(scheme(th), abs=1e-9)

    def test_structural_mismatch_raises(self):
        with pytest.raises(ValueError, match="not of the A/G/D form"):
            abd_decompose(lambda th: math.sin(5.0 * th))

    def test_g_vanishes_for_broad_spread(self):
        p = params_from_bj(1.0, J6)
        coeffs = abd_decompose(lambda th: f1(th, p, math.pi / 2, 1e3, 1, 1))
        assert abs(coeffs.g) < 1e-6
        fields = PhysicalFields(1.0, 0.0, 0.5)
        coeffs = abd_decompose(lambda th: f2(th, fields, math.pi / 2, 1e3, 1.0, 1, 0))
        assert abs(coeffs.g) < 1e-6

    def test_reconstruct_roundtrip(self):
        coeffs = AbdCoefficients(a=1.5, g=0.7, d=1.9)
        vals = [abd_reconstruct(coeffs, th) for th in (0.0, math.pi / 4, math.pi / 2)]
        assert vals[0] == pytest.approx(coeffs.a / 2)
        assert vals[2] == pytest.approx((coeffs.a + coeffs.d) / 4)


class TestDephaseCore:
    def test_degenerate_frequencies_untouched(self):
        # proportional Hamiltonian block: equal energies keep coherences
        h = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
        rho = np.full((4, 4), 0.25, dtype=complex)
        out = dephase(rho, np.linalg.eigh(h), 2.0, 50.0)
        assert abs(out[0, 1] - 0.25) < 1e-12
        assert abs(out[2, 3]) < 1e-12

    @staticmethod
    def assert_kernel_matches_eigh(m, seed, t0, s):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = projector(v / np.linalg.norm(v))
        closed = dephase(rho, spectrum(m), t0, s)
        oracle = dephase(rho, np.linalg.eigh(hamiltonian(m)), t0, s)
        assert np.abs(closed - oracle).max() < 1e-12

    @given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2.0), st.integers(0, 2**32 - 1),
           st.floats(min_value=0.01, max_value=2.0 * math.pi),
           st.floats(min_value=0.0, max_value=2.0))
    @example(0.7, 0.7, 0.0, 1, 1.0, 0.5)    # R = 0: equal fields, no coupling
    @example(1.3, -0.4, 0.0, 2, 1.0, 0.5)   # j = 0
    @settings(max_examples=150, deadline=None)
    def test_closed_form_spectrum_matches_eigh_physical(self, b1, b2, j, seed, t0, s):
        self.assert_kernel_matches_eigh(PhysicalFields(b1, b2, j), seed, t0, s)

    @given(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.0, max_value=0.5),
           st.sampled_from([1.0, -1.0]), st.integers(0, 2**32 - 1),
           st.floats(min_value=0.01, max_value=2.0 * math.pi),
           st.floats(min_value=0.0, max_value=2.0))
    @example(1.0, 0.0, -1.0, 3, 1.0, 0.5)   # j = 0, b- = -1
    @example(1.0, 0.5, 1.0, 4, 1.0, 0.5)    # j = 1/2, b- = 0
    @settings(max_examples=150, deadline=None)
    def test_closed_form_spectrum_matches_eigh_normalized(self, b_plus, j, sign, seed, t0, s):
        p = IsingParams(b_plus, sign * float(b_minus_magnitude(j)), j)
        self.assert_kernel_matches_eigh(p, seed, t0, s)
