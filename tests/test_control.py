import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol.control import (
    fidelity_overlap,
    local_propagator,
    plan_situation1,
    plan_situation2,
    unwrap_arctan,
)
from isingcontrol.evolution import PhysicalFields, params_from_bj
from isingcontrol.states import bell, initial_pair

SQ8 = math.sqrt(8.0)


class TestFidelityOverlap:
    def test_identical(self):
        assert fidelity_overlap(bell(0, 0), bell(0, 0)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity_overlap(bell(0, 0), bell(1, 1)) == pytest.approx(0.0)

    def test_global_phase_invariant(self):
        v = bell(0, 1)
        assert fidelity_overlap(v, np.exp(0.7j) * v) == pytest.approx(1.0)

    def test_angle_family(self):
        for a, b in ((0.3, 1.1), (0.0, 0.9)):
            _, b2a = initial_pair(a)
            _, b2b = initial_pair(b)
            assert fidelity_overlap(b2a, b2b) == pytest.approx(math.cos(a - b) ** 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            fidelity_overlap(np.ones(4), bell(0, 0))


class TestUnwrapArctan:
    def test_zero_at_origin(self):
        assert unwrap_arctan(0.7, 0.0) == 0.0

    def test_unit_slope_is_identity(self):
        for x in np.linspace(-7.0, 7.0, 31):
            assert unwrap_arctan(1.0, x) == pytest.approx(x, abs=1e-12)
        for x in np.linspace(-7.0, 7.0, 31):
            assert unwrap_arctan(-1.0, x) == pytest.approx(-x, abs=1e-12)

    def test_zero_coefficient(self):
        assert unwrap_arctan(0.0, 5.0) == 0.0

    def test_continuity_fine_sweep(self):
        # step pi/1000: adjacent samples never jump by more than pi/2
        for k in (0.5, 2.0, -0.8):
            xs = np.arange(0.0, 3.0 * math.pi, math.pi / 1000.0)
            vals = np.array([unwrap_arctan(k, x) for x in xs])
            assert np.abs(np.diff(vals)).max() < math.pi / 2

    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        st.one_of(st.floats(-50.0, 50.0),
                  st.integers(-15, 15).map(lambda m: (m + 0.5) * math.pi))),
        min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_stack_follows_the_half_to_even_formula(self, pairs):
        # reference: the formula point by point with Python's round, which
        # takes halves to even as np.round does
        def reference(k, x):
            if k == 0.0:
                return 0.0
            n = round(x / math.pi)
            return math.copysign(math.pi, k) * n + math.atan(k * math.tan(x - n * math.pi))

        k, x = (np.array(column) for column in zip(*pairs))
        np.testing.assert_allclose(unwrap_arctan(k, x), [reference(*p) for p in pairs],
                                   rtol=1e-14, atol=1e-14)

    def test_monotone_for_positive_k(self):
        xs = np.linspace(0.0, 2.5 * math.pi, 500)
        vals = [unwrap_arctan(0.3, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestSituation1Planning:
    def test_quarter_coupling(self):
        p = params_from_bj(1.0, 0.25)
        plan = plan_situation1(math.pi / 2, p, n=2, m=0)
        assert plan.s_num == 1
        assert plan.delta == 0.0
        assert plan.duration == pytest.approx(3.0 * math.pi / 2.0)

    def test_sixth_coupling(self):
        p = params_from_bj(0.3, 1.0 / 6.0)
        plan = plan_situation1(math.pi / 2, p, n=3, m=0)
        assert plan.s_num == 1
        assert plan.delta == pytest.approx(0.0, abs=1e-16)
        assert plan.duration == pytest.approx(5.0 * math.pi / 2.0)

    def test_irrational_coupling_residual(self):
        p = params_from_bj(1.7, 1.0 / SQ8)
        plan = plan_situation1(math.pi / 2, p, n=2, m=0)
        assert plan.s_num == 1
        assert plan.delta == pytest.approx(1.0 / SQ8 - 0.25)
        assert abs(plan.delta) <= 1.0 / (4 * plan.n)

    def test_delta_b_plus_formula(self):
        p = params_from_bj(0.9, 0.25)
        plan = plan_situation1(1.0, p, n=1, m=2)
        expected = math.pi * (4 - 1 * (0.9 - 0.5 + 1.0)) / (math.pi - 1.0)
        assert plan.delta_b_plus == pytest.approx(expected)

    def test_no_time_left(self):
        p = params_from_bj(0.5, 0.25)
        with pytest.raises(ValueError, match="no time"):
            plan_situation1(4.0, p, n=1, m=0)

    def test_zero_loop_index(self):
        # a negative t leaves time for n = 0, but Q(j) = s/(2n) has no value
        p = params_from_bj(1.0, 0.25)
        with pytest.raises(ValueError, match="loop index n must be nonzero, got 0"):
            plan_situation1(-1.0, p, n=0, m=0)


class TestSituation1Application:
    def test_composite_diagonal_and_loop_phase(self):
        for b_plus, j, n, m, t in ((1.0, 0.25, 2, 0, math.pi / 2),
                                   (2.3, 1.0 / SQ8, 2, 1, 1.1),
                                   (0.4, 0.4, 3, 2, 2.0)):
            p = params_from_bj(b_plus, j)
            plan = plan_situation1(t, p, n, m)
            comp = plan.composite()
            off = comp - np.diag(np.diag(comp))
            assert np.abs(off).max() < 1e-12
            normalized = np.diag(comp) / comp[0, 0]
            target = np.array([1.0, 1.0, 1.0, np.exp(4j * n * math.pi * plan.delta)])
            np.testing.assert_allclose(normalized, target, atol=1e-10)

    def test_exact_loop_restores_any_state(self):
        p = params_from_bj(1.0, 0.25)
        plan = plan_situation1(math.pi / 2, p, n=2, m=0)
        b1, b2 = initial_pair(math.pi / 3)
        assert fidelity_overlap(b1, plan.composite() @ b1) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_overlap(b2, plan.composite() @ b2) == pytest.approx(1.0, abs=1e-12)

    def test_residual_phase_fidelity_on_first_state(self):
        p = params_from_bj(1.7, 1.0 / SQ8)
        plan = plan_situation1(math.pi / 2, p, n=2, m=0)
        b1, _ = initial_pair(0.5)
        out = plan.composite() @ b1
        expected = math.cos(2 * plan.n * math.pi * plan.delta) ** 2
        assert fidelity_overlap(b1, out) == pytest.approx(expected, abs=1e-10)

    def test_middle_component_untouched(self):
        p = params_from_bj(1.7, 1.0 / SQ8)
        plan = plan_situation1(1.3, p, n=2, m=1)
        ket01 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        assert fidelity_overlap(ket01, plan.composite() @ ket01) == pytest.approx(1.0, abs=1e-12)


class TestSituation2Planning:
    def test_r_unity_at_full_periods(self):
        # R t = pi: r = r' = 1
        fields = PhysicalFields(1.0, 0.0, 0.5)   # R = sqrt(2)
        t = math.pi / fields.scale
        plan = plan_situation2(t, fields, 1.0, 1, 0)
        assert plan.r == pytest.approx(1.0, abs=1e-12)
        assert plan.r_prime == pytest.approx(1.0, abs=1e-12)

    def test_r_unity_homogeneous(self):
        fields = PhysicalFields(0.8, 0.8, 0.37)
        for t in (0.3, 1.1, 2.9):
            plan = plan_situation2(t, fields, 1.0, 1, 0)
            assert plan.r == plan.r_prime == 1.0

    def test_r_values_generic(self):
        # frozen from the amplitude-modulus route for (B1=1, B2=0, J=1/2), t=1
        fields = PhysicalFields(1.0, 0.0, 0.5)
        plan = plan_situation2(1.0, fields, 1.7, 1, 0)
        assert plan.r == pytest.approx(0.1559436947653748, abs=1e-12)
        assert plan.r_prime == pytest.approx(1.40558940094998, abs=1e-11)

    def test_r_product_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            fields = PhysicalFields(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                    rng.uniform(0.05, 2.0))
            t = rng.uniform(0.05, 6.0)
            plan = plan_situation2(t, fields, 1.0, 0, 0)
            assert plan.r * plan.r_prime <= 1.0 + 1e-12

    def test_field_products(self):
        fields = PhysicalFields(1.3, 0.4, 0.55)
        t, duration, n, m = 0.9, 1.7, 2, 1
        plan = plan_situation2(t, fields, duration, n, m)
        assert plan.b_plus_prime * duration == pytest.approx(n * math.pi - fields.b_plus * t)
        assert plan.b_minus_prime * duration == pytest.approx(
            (m + n) * math.pi - (plan.phi + plan.phi_prime) / 2.0)
        assert plan.f_value == pytest.approx(plan.phi - plan.phi_prime - 4.0 * fields.j * t)

    def test_needs_coupling_and_duration(self):
        with pytest.raises(ValueError, match="coupling"):
            plan_situation2(1.0, PhysicalFields(1.0, 0.0, 0.0), 1.0, 0, 0)
        with pytest.raises(ValueError, match="duration"):
            plan_situation2(1.0, PhysicalFields(1.0, 0.0, 0.5), -1.0, 0, 0)

    def test_rejects_non_finite_fields(self):
        # the products are finite, but dividing them by T overflows
        with pytest.raises(ValueError, match="correcting fields are not finite"):
            plan_situation2(1.0, PhysicalFields(1.0, 0.0, 0.5), 1e-320, 1, 0)


class TestSituation2Application:
    def test_first_state_recovered_regardless_of_minus_field(self):
        fields = PhysicalFields(1.3, 0.4, 0.55)
        t = 0.9
        plan = plan_situation2(t, fields, 1.7, 1, 0)
        b1, _ = initial_pair(0.8)
        rng = np.random.default_rng(7)
        for _ in range(100):
            tampered = dataclasses.replace(plan, b_minus_prime=rng.uniform(-5.0, 5.0))
            out = tampered.composite() @ b1
            assert fidelity_overlap(b1, out) == pytest.approx(1.0, abs=1e-10)

    def test_homogeneous_field_perfect_recovery(self):
        fields = PhysicalFields(0.8, 0.8, 0.37)
        _, b2 = initial_pair(0.8)
        for t in (0.3, 1.1, 2.9):
            plan = plan_situation2(t, fields, 1.0, 1, 0)
            out = plan.composite() @ b2
            assert fidelity_overlap(b2, out) == pytest.approx(1.0, abs=1e-10)

    def test_rational_ratio_full_period_recovery(self):
        # B- = 4, 2J = 3: R = 5, 2J/R = 3/5; t = pi gives R t = 5 pi and the
        # middle phase closes with odd m
        fields = PhysicalFields(2.0, -2.0, 1.5)
        t = math.pi
        plan = plan_situation2(t, fields, 1.0, 0, 1)
        assert plan.r == pytest.approx(1.0, abs=1e-12)
        _, b2 = initial_pair(0.8)
        out = plan.composite() @ b2
        assert fidelity_overlap(b2, out) == pytest.approx(1.0, abs=1e-10)

    def test_reprepared_form_matches_plan_quantities(self):
        # output = e^{i middle_phase} sin/sqrt2 (r |01> + r' |10>) - cos |b10>
        # up to a global phase
        fields = PhysicalFields(1.3, 0.4, 0.55)
        t, theta = 0.9, 0.8
        plan = plan_situation2(t, fields, 1.7, 1, 0)
        _, b2 = initial_pair(theta)
        out = plan.composite() @ b2
        out = out / (out[0] / (-math.cos(theta) / math.sqrt(2.0)))
        s = math.sin(theta) / math.sqrt(2.0)
        expected = np.array([
            -math.cos(theta) / math.sqrt(2.0),
            s * plan.r * np.exp(1j * plan.middle_phase),
            s * plan.r_prime * np.exp(1j * plan.middle_phase),
            math.cos(theta) / math.sqrt(2.0),
        ])
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_local_propagator_is_diagonal_unitary(self):
        u = local_propagator(1.3, -0.7, 2.0)
        assert np.abs(u - np.diag(np.diag(u))).max() == 0.0
        np.testing.assert_allclose(np.abs(np.diag(u)), np.ones(4), atol=1e-15)


class TestStackedComposite:
    """A stack of plans composes as its points do, bit for bit."""

    CELLS = 500

    def test_situation1(self):
        rng = np.random.default_rng(11)
        b_plus, j = rng.uniform(-3.0, 3.0, self.CELLS), rng.uniform(0.0, 0.5, self.CELLS)
        t = rng.uniform(0.01, 6.0, self.CELLS)
        n = np.floor(t / math.pi) + 1.0 + rng.integers(0, 3, self.CELLS)  # time for the loop
        m = rng.integers(-3, 4, self.CELLS) + 0.0
        stack = plan_situation1(t, params_from_bj(b_plus, j), n, m).composite()
        points = [plan_situation1(t[i], params_from_bj(b_plus[i], j[i]), n[i], m[i]).composite()
                  for i in range(self.CELLS)]
        np.testing.assert_array_equal(stack, points)

    def test_situation2(self):
        rng = np.random.default_rng(12)
        b1, b2 = rng.uniform(-2.0, 2.0, (2, self.CELLS))
        coupling = rng.uniform(0.05, 1.0, self.CELLS)
        t, duration = rng.uniform(0.01, 6.0, self.CELLS), rng.uniform(0.5, 3.0, self.CELLS)
        n, m = rng.integers(-3, 4, (2, self.CELLS)) + 0.0
        stack = plan_situation2(t, PhysicalFields(b1, b2, coupling), duration, n, m).composite()
        points = [plan_situation2(t[i], PhysicalFields(b1[i], b2[i], coupling[i]), duration[i],
                                  n[i], m[i]).composite()
                  for i in range(self.CELLS)]
        np.testing.assert_array_equal(stack, points)
