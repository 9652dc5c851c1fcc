import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isingcontrol.evolution import (
    IsingParams,
    PhysicalFields,
    evolution_closed_form,
    evolution_oracle,
    hamiltonian,
    normalize_fields,
    params_from_bj,
    spectrum,
)
from isingcontrol.linalg import dag, hermitian_eigenvalues


def series_expm(h, t, terms=60):
    """Truncated power series of exp(-i h t); independent of both routes."""
    acc = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * t * h) / k
        acc = acc + term
    return acc


params_strategy = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),          # b_plus
    st.floats(min_value=0.0, max_value=0.5),           # j
    st.sampled_from([1.0, -1.0]),                      # sign of b_minus
    st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi),  # t
)


# stacks of physical draws (b1, b2, j, t); j = 0 and b1 = b2 come up often
field_stacks = st.lists(
    st.tuples(
        st.floats(min_value=-3.0, max_value=3.0),
        st.one_of(st.none(), st.floats(min_value=-3.0, max_value=3.0)),   # None: b2 = b1
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi),
    ).map(lambda d: (d[0], d[0] if d[1] is None else d[1], d[2], d[3])),
    min_size=1, max_size=8)


class TestNormalizeFields:
    def test_pure_coupling(self):
        p = normalize_fields(PhysicalFields(0.0, 0.0, 1.0))
        assert (p.b_plus, p.b_minus, p.j, p.scale) == (0.0, 0.0, 0.5, 2.0)

    def test_pure_field(self):
        p = normalize_fields(PhysicalFields(1.0, 0.0, 0.0))
        assert (p.b_plus, p.b_minus, p.j, p.scale) == (1.0, 1.0, 0.0, 1.0)

    def test_generic(self):
        # R = sqrt((2-1)^2 + 4/4) = sqrt(2)
        p = normalize_fields(PhysicalFields(2.0, 1.0, 0.5))
        assert p.scale == pytest.approx(math.sqrt(2.0))
        assert p.b_plus == pytest.approx(3.0 / math.sqrt(2.0))
        assert p.b_minus == pytest.approx(1.0 / math.sqrt(2.0))
        assert p.j == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))

    def test_constraint_holds(self):
        p = normalize_fields(PhysicalFields(0.3, -1.2, 0.7))
        assert abs(p.b_minus**2 + 4.0 * p.j**2 - 1.0) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate scale"):
            normalize_fields(PhysicalFields(1.0, 1.0, 0.0))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="constraint"):
            IsingParams(b_plus=0.0, b_minus=0.5, j=0.5)
        with pytest.raises(ValueError, match="j must lie"):
            IsingParams(b_plus=0.0, b_minus=0.0, j=0.7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["b_plus", "b_minus", "j", "scale"])
    def test_params_reject_non_finite_entries(self, entry, bad):
        fields = {"b_plus": 0.3, "b_minus": 0.0, "j": 0.5, "scale": 2.0, entry: bad}
        with pytest.raises(ValueError, match="IsingParams entries must be finite"):
            IsingParams(**fields)

    def test_params_accept_numpy_scalars(self):
        p = IsingParams(np.float64(0.3), np.float32(0.0), np.float64(0.5), np.int64(2))
        assert (p.b_plus, p.b_minus, p.j, p.scale) == (0.3, 0.0, 0.5, 2)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            PhysicalFields(0.0, 0.0, -1.0)

    def test_stacked_fields_checked_entrywise(self):
        fields = PhysicalFields(np.array([1.0, 2.0]), np.array([0.5, 2.0]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(fields.b_minus, [0.5, 0.0])
        with pytest.raises(ValueError, match="field b2 must be finite"):
            PhysicalFields(np.zeros(3), np.array([0.0, np.inf, 0.0]), np.zeros(3))
        with pytest.raises(ValueError, match=">= 0"):
            PhysicalFields(np.zeros(3), np.zeros(3), np.array([0.1, -1.0, 0.2]))


class TestHamiltonian:
    def test_pure_zeeman(self):
        h = hamiltonian(PhysicalFields(1.0, 1.0, 0.0))
        np.testing.assert_allclose(h, np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-15)

    def test_pure_ising_block(self):
        h = hamiltonian(PhysicalFields(0.0, 0.0, 1.0))
        expected = np.array([
            [-1, 0, 0, 0],
            [0, 1, -2, 0],
            [0, -2, 1, 0],
            [0, 0, 0, -1],
        ], dtype=complex)
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_eigenvalues_generic(self):
        f = PhysicalFields(1.3, 0.4, 0.6)
        got = sorted(hermitian_eigenvalues(hamiltonian(f)))
        bp, j, r = f.b_plus, f.j, f.scale
        expected = sorted([bp - j, -bp - j, j + r, j - r])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_normalized_matches_scaled(self):
        f = PhysicalFields(1.0, -0.5, 0.8)
        p = normalize_fields(f)
        np.testing.assert_allclose(hamiltonian(p), hamiltonian(f) / f.scale,
                                   atol=1e-14)


fields_strategy = st.tuples(
    st.floats(min_value=-5.0, max_value=5.0),          # b1
    st.floats(min_value=-5.0, max_value=5.0),          # b2
    st.floats(min_value=0.0, max_value=3.0),           # j
)


class TestSpectrum:
    @staticmethod
    def assert_eigensystem(m):
        energies, vectors = spectrum(m)
        tol = 1e-12 * max(1.0, math.hypot(m.b_minus, 2.0 * m.j))
        assert vectors.dtype == float
        assert np.abs(vectors.T @ vectors - np.eye(4)).max() < tol
        assert np.abs(vectors @ np.diag(energies) @ vectors.T - hamiltonian(m)).max() < tol

    @given(fields_strategy)
    @example((0.7, 0.7, 0.0))      # R = 0: equal fields, no coupling
    @example((1.3, -0.4, 0.0))     # j = 0
    @example((0.0, 0.0, 1.0))      # b- = 0
    @settings(max_examples=200, deadline=None)
    def test_physical_fields(self, draw):
        self.assert_eigensystem(PhysicalFields(*draw))

    @given(params_strategy)
    @example((1.0, 0.0, 1.0, 0.0))
    @example((1.0, 0.0, -1.0, 0.0))
    @example((-2.0, 0.5, 1.0, 0.0))
    @settings(max_examples=200, deadline=None)
    def test_ising_params(self, draw):
        b_plus, j, sign, _ = draw
        self.assert_eigensystem(params_from_bj(b_plus, j, sign))

    def test_energies_in_closed_form(self):
        f = PhysicalFields(1.3, 0.4, 0.6)
        energies, _ = spectrum(f)
        bp, j, r = f.b_plus, f.j, f.scale
        np.testing.assert_allclose(energies, [bp - j, j + r, j - r, -(bp + j)], atol=1e-15)

    def test_degenerate_scale_is_identity(self):
        _, vectors = spectrum(PhysicalFields(0.8, 0.8, 0.0))
        np.testing.assert_array_equal(vectors, np.eye(4))


class TestClosedForm:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(evolution_closed_form(params_from_bj(1.0, 0.25), 0.0),
                                   np.eye(4), atol=1e-15)

    def test_homogeneous_half_coupling_at_pi(self):
        # b- = 0, j = 1/2, t = pi: middle block is e^{-i pi/2} cos(pi) I = i I
        u = evolution_closed_form(IsingParams(0.7, 0.0, 0.5), math.pi)
        assert u[1, 2] == pytest.approx(0.0, abs=1e-15)
        assert u[1, 1] == pytest.approx(1j, abs=1e-12)
        assert u[2, 2] == pytest.approx(1j, abs=1e-12)

    def test_entries_against_formula(self):
        p = params_from_bj(1.9, 0.2, b_minus_sign=-1.0)
        t = 0.77
        u = evolution_closed_form(p, t)
        assert u[0, 0] == pytest.approx(np.exp(-1j * t * (p.b_plus - p.j)))
        assert u[3, 3] == pytest.approx(np.exp(1j * t * (p.b_plus + p.j)))
        ph = np.exp(-1j * t * p.j)
        assert u[1, 1] == pytest.approx(ph * (math.cos(t) - 1j * p.b_minus * math.sin(t)))
        assert u[2, 1] == pytest.approx(2j * p.j * ph * math.sin(t))
        assert np.abs(u[np.ix_([0, 3], [1, 2])]).max() == 0.0

    @given(params_strategy)
    @settings(max_examples=150, deadline=None)
    def test_unitary(self, draw):
        b_plus, j, sign, t = draw
        u = evolution_closed_form(params_from_bj(b_plus, j, sign), t)
        assert np.abs(dag(u) @ u - np.eye(4)).max() < 1e-12

    @given(params_strategy, st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=150, deadline=None)
    def test_group_property(self, draw, t2):
        b_plus, j, sign, t1 = draw
        p = params_from_bj(b_plus, j, sign)
        lhs = evolution_closed_form(p, t1 + t2)
        rhs = evolution_closed_form(p, t1) @ evolution_closed_form(p, t2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_swap_amplitude_periodic_in_pi(self):
        p = params_from_bj(0.9, 0.3)
        for t in np.linspace(-2.0, 2.0, 17):
            a = abs(evolution_closed_form(p, t)[1, 2])
            b = abs(evolution_closed_form(p, t + math.pi)[1, 2])
            assert a == pytest.approx(b, abs=1e-12)

    def test_negative_times_allowed(self):
        p = params_from_bj(2.0, 0.1)
        u = evolution_closed_form(p, -1.5)
        np.testing.assert_allclose(u @ evolution_closed_form(p, 1.5), np.eye(4), atol=1e-12)


class TestOracle:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(evolution_oracle(PhysicalFields(1.0, -1.0, 0.3), 0.0),
                                   np.eye(4), atol=1e-14)

    def test_diagonal_field_only(self):
        b, t = 0.8, 1.1
        u = evolution_oracle(PhysicalFields(b, b, 0.0), t)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-2j * b * t), 1.0, 1.0, np.exp(2j * b * t)]), atol=1e-12)

    def test_degenerate_scale_allowed(self):
        u = evolution_oracle(PhysicalFields(1.0, 1.0, 0.0), 0.5)
        assert np.abs(dag(u) @ u - np.eye(4)).max() < 1e-12

    def test_against_power_series(self):
        f = PhysicalFields(1.0, 0.0, 0.5)
        t = 1.0
        np.testing.assert_allclose(evolution_oracle(f, t),
                                   series_expm(hamiltonian(f), t), atol=1e-8)

    @given(field_stacks)
    @settings(max_examples=150, deadline=None)
    def test_stacked_oracle_equals_scalar_calls(self, draws):
        b1, b2, j, t = np.array(draws).T
        stacked = PhysicalFields(b1, b2, j)
        singles = [PhysicalFields(*draw[:3]) for draw in draws]
        np.testing.assert_array_equal(hamiltonian(stacked), [hamiltonian(f) for f in singles])
        np.testing.assert_allclose(evolution_oracle(stacked, t),
                                   [evolution_oracle(f, d[3]) for f, d in zip(singles, draws)],
                                   rtol=0, atol=1e-13)
        # one model at stacked times
        np.testing.assert_allclose(evolution_oracle(singles[0], t),
                                   [evolution_oracle(singles[0], time) for time in t],
                                   rtol=0, atol=1e-13)

    @given(params_strategy)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_equals_oracle_exactly(self, draw):
        """No global-phase slack: the closed form IS the matrix exponential."""
        b_plus, j, sign, t = draw
        p = params_from_bj(b_plus, j, sign)
        b_minus = p.b_minus
        fields = PhysicalFields((b_plus + b_minus) / 2.0, (b_plus - b_minus) / 2.0, j)
        dev = np.abs(evolution_closed_form(p, t) - evolution_oracle(fields, t)).max()
        assert dev < 1e-10
