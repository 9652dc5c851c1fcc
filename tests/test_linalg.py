import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol.linalg import (
    dag,
    hermitian_eigenvalues,
    max_asymmetry,
    partial_trace,
    projector,
    require_hermitian,
    trace_norm,
)
from isingcontrol.states import bell


def random_hermitian(seed, dim=4):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + dag(m)


class TestHermitianEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4))

    def test_diagonal_sorted_descending(self):
        ev = hermitian_eigenvalues(np.diag([2.0, -1.0, 0.0, 0.0]))
        np.testing.assert_allclose(ev, [2.0, 0.0, 0.0, -1.0], atol=1e-14)

    def test_rank_one_projector(self):
        ev = hermitian_eigenvalues(projector(bell(0, 0)))
        np.testing.assert_allclose(ev, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_two_by_two(self):
        ev = hermitian_eigenvalues(np.array([[1.0, 1.0], [1.0, 1.0]]))
        np.testing.assert_allclose(ev, [2.0, 0.0], atol=1e-14)

    def test_rejects_non_hermitian_with_asymmetry(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError, match="max asymmetry"):
            hermitian_eigenvalues(m)
        assert max_asymmetry(m) == pytest.approx(1e-3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="2x2 or 4x4"):
            hermitian_eigenvalues(np.eye(3))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_entry(self, entry):
        m = np.eye(4, dtype=complex)
        m[2, 2] = entry
        for stack in (m, np.stack([np.eye(4), m])):
            with pytest.raises(ValueError, match="^density has non-finite entries$"):
                require_hermitian(stack, name="density")

    def test_stack_equals_matrix_by_matrix(self):
        stack = np.array([random_hermitian(seed) for seed in range(6)]).reshape(2, 3, 4, 4)
        np.testing.assert_array_equal(
            hermitian_eigenvalues(stack),
            [[hermitian_eigenvalues(m) for m in row] for row in stack])

    def test_stack_with_one_non_hermitian_matrix_rejected(self):
        stack = np.array([np.eye(2, dtype=complex)] * 3)
        stack[1, 0, 1] = 1e-3
        with pytest.raises(ValueError, match="max asymmetry 1.000e-03"):
            hermitian_eigenvalues(stack)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_eigenvalue_sum_equals_trace(self, seed):
        m = random_hermitian(seed)
        assert abs(hermitian_eigenvalues(m).sum() - m.trace().real) < 1e-10

    def test_eigenvalue_sum_equals_trace_bulk(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(10_000):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = m + dag(m)
            worst = max(worst, abs(hermitian_eigenvalues(m).sum() - m.trace().real))
        assert worst < 1e-10


class TestTraceNorm:
    def test_zero_matrix(self):
        assert trace_norm(np.zeros((4, 4))) == 0.0

    def test_plus_minus_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0, 0.0, 0.0])) == pytest.approx(2.0)

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            trace_norm(m)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_dominates_absolute_trace(self, seed):
        m = random_hermitian(seed)
        assert trace_norm(m) >= abs(m.trace().real) - 1e-12

    def test_equality_iff_single_signed_spectrum(self):
        pos = projector(bell(0, 0)) + 0.5 * np.eye(4)
        assert trace_norm(pos) == pytest.approx(abs(pos.trace().real), abs=1e-12)


class TestPartialTrace:
    def test_product_state_traces_to_pure(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        np.testing.assert_allclose(partial_trace(rho, traced=2), np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, traced=1), np.diag([1.0, 0.0]), atol=1e-14)

    def test_maximally_entangled_traces_to_mixed(self):
        rho = projector(bell(0, 0))
        for traced in (1, 2):
            np.testing.assert_allclose(partial_trace(rho, traced), np.eye(2) / 2, atol=1e-14)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(np.eye(4) / 4, 1), np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 2), (4,), (2, 4, 4)])
    def test_rejects_shape_other_than_4x4(self, shape):
        with pytest.raises(ValueError, match=r"density matrix must be 4x4, got shape \("):
            partial_trace(np.ones(shape) / 4, 1)

    def test_bad_qubit_index(self):
        with pytest.raises(ValueError, match="traced qubit"):
            partial_trace(np.eye(4) / 4, 3)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            partial_trace(np.eye(4), 1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_unit_trace_preserved(self, seed):
        m = random_hermitian(seed)
        rho = m @ dag(m)
        rho /= rho.trace().real
        for traced in (1, 2):
            reduced = partial_trace(rho, traced)
            assert abs(reduced.trace().real - 1.0) < 1e-12
            assert max_asymmetry(reduced) < 1e-12
