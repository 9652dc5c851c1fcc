"""Every scheme function takes floats or stacks of cells: a stack equals its
point-by-point calls bit for bit, and a stack with one out-of-range entry
raises that entry's own message, with a mask that marks that entry.  So do
the spectrum, the model builders, the default indices and the planners."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol.control import plan_situation1, plan_situation2, situation2_phases
from isingcontrol.discrimination import f_ab, f_dr1, f_n, f_so
from isingcontrol.evolution import OutOfRange, PhysicalFields, params_from_bj, spectrum
from isingcontrol.linalg import STACK_CELLS
from isingcontrol.optimize import fdr2_value
from isingcontrol.states import evolved_pair_bj, schmidt_closed_form
from isingcontrol.stochastic import GaussianTime, f1, f2, f_n_mix, witness_table
from isingcontrol.sweeps import (
    default_situation1_indices,
    default_situation2_indices,
    fields_from_bj,
)


def _schmidt_fields(theta, j, t):
    res = schmidt_closed_form(theta, j, t)
    return np.stack([res.lambda1, res.lambda2, res.a_term, res.b_term], axis=-1)


def _f1(theta, s, b_plus, j, t0):
    p = params_from_bj(b_plus, j)
    return f1(theta, p, t0, s, *default_situation1_indices(t0, p))


def _f2(theta, s, b_plus, j, t0):
    fields = fields_from_bj(b_plus, j)
    return f2(theta, fields, t0, s, 1.0, *default_situation2_indices(t0, fields))


def _f_n_mix(theta, s, b_plus, j, t0):
    return f_n_mix(theta, b_plus, j, t0, s)


def _fdr2_as_printed(theta, b_plus, j, t):
    return fdr2_value(theta, b_plus, j, t, "as-printed")


def _fdr2_reprepare_originals(theta, b_plus, j, t):
    return fdr2_value(theta, b_plus, j, t, "reprepare-originals")


def _evolved_pair(theta, b_plus, j, t):
    return np.stack(evolved_pair_bj(theta, b_plus, j, t)[1], axis=-2)


def _witness_entries(theta, s, b_plus, j, t0):
    table = witness_table(theta, params_from_bj(b_plus, j), GaussianTime(t0, s))
    # an entry has the shape of the stacked parameters it depends on
    entries = np.broadcast_arrays(theta, s, *(table[key] for key in sorted(table)))[2:]
    return np.stack(entries, axis=-1)


def _f_curve_phases(ratio, t):
    # the phases of the f-curve scheme: 2J = 1 and B- = ratio
    return np.stack(situation2_phases(ratio, 0.5, np.hypot(ratio, 1.0), t), axis=-1)


PURE = (("theta", "b_plus", "j", "t"), ())
MIXED = (("theta", "s"), ("b_plus", "j", "t0"))     # one model shared by every cell
MIXED_ALL = (("theta", "s", "b_plus", "j", "t0"), ())
# name -> (function, parameters it takes stacked, parameters it takes as floats)
SCHEMES = {
    "f_dr1": (f_dr1, ("theta",), ()),
    "f_n": (f_n, *PURE),
    "f_ab": (f_ab, *PURE),
    "f_so": (f_so, *PURE),
    "schmidt_closed_form": (_schmidt_fields, ("theta", "j", "t"), ()),
    "f_n_mix": (_f_n_mix, *MIXED),
    "f_n_mix all stacked": (_f_n_mix, *MIXED_ALL),
    "f1": (_f1, *MIXED),
    "f1 all stacked": (_f1, *MIXED_ALL),
    "f2": (_f2, *MIXED),
    "f2 all stacked": (_f2, *MIXED_ALL),
    "fdr2_value as-printed": (_fdr2_as_printed, *PURE),
    "fdr2_value reprepare-originals": (_fdr2_reprepare_originals, *PURE),
    "evolved_pair_bj": (_evolved_pair, *PURE),
    "witness_table": (_witness_entries, *MIXED),
    "witness_table all stacked": (_witness_entries, *MIXED_ALL),
    "situation2_phases": (_f_curve_phases, ("ratio", "t"), ()),
}
VALID = {
    "theta": st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(0.0, math.pi / 2)),
    "b_plus": st.floats(-5.0, 5.0),
    "j": st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
    "t": st.floats(-2.0 * math.pi, 2.0 * math.pi),
    "t0": st.floats(0.3, 8.0),
    "s": st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    "ratio": st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
}
INVALID = {
    "theta": st.one_of(st.just(math.nan), st.floats(-3.0, -1e-9),
                       st.floats(math.pi / 2 + 1e-9, 4.0)),
    "j": st.one_of(st.just(math.nan), st.floats(-1.0, -1e-9), st.floats(0.5 + 1e-9, 2.0)),
    "s": st.one_of(st.just(math.nan), st.floats(-3.0, -1e-9)),
    "t0": st.one_of(st.just(math.nan), st.floats(-3.0, 0.0)),
}


# the situation-2 planner needs a nonzero coupling
PLANNABLE = {name: {"j": st.floats(1e-3, 0.5)} for name in ("f2", "f2 all stacked")}


def draw_stack(data, name):
    """Columns of a valid stack (n = one to eight cells, repeated up to past
    one STACK_CELLS block), the floats of the other parameters, and n."""
    _, stacked, scalar = SCHEMES[name]
    valid = {**VALID, **PLANNABLE.get(name, {})}
    n = data.draw(st.integers(1, 8))
    size = data.draw(st.sampled_from([n, STACK_CELLS + 3]))
    columns = {k: np.resize(data.draw(st.lists(valid[k], min_size=n, max_size=n)), size)
               for k in stacked}
    return columns, {k: data.draw(valid[k]) for k in scalar}, n


def checked(name):
    """The stacked parameters whose out-of-range values the function rejects."""
    return sorted(INVALID.keys() & set(SCHEMES[name][1]))


def cell(columns, i):
    return {k: float(v[i]) for k, v in columns.items()}


@pytest.mark.parametrize("name", sorted(SCHEMES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stack_equals_point_by_point_calls(name, data):
    fn = SCHEMES[name][0]
    columns, floats, n = draw_stack(data, name)
    size = len(next(iter(columns.values())))
    # row i repeats row i mod n; indexing, unlike a dict keyed on floats, keeps -0.0 apart
    distinct = np.array([fn(**cell(columns, i), **floats) for i in range(n)])
    expected = distinct[np.arange(size) % n]
    assert np.array_equal(fn(**columns, **floats), expected)


@pytest.mark.parametrize("name", sorted(name for name in SCHEMES if checked(name)))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_bad_entry_raises_its_own_message(name, data):
    fn = SCHEMES[name][0]
    columns, floats, _ = draw_stack(data, name)
    column = data.draw(st.sampled_from(checked(name)))
    where = data.draw(st.integers(0, len(columns["theta"]) - 1))
    columns[column] = columns[column].copy()
    columns[column][where] = data.draw(INVALID[column])
    with pytest.raises(ValueError) as alone:
        fn(**cell(columns, where), **floats)
    with pytest.raises(OutOfRange) as stack:
        fn(**columns, **floats)
    assert str(stack.value) == str(alone.value)
    # the mask marks exactly the bad entry, in the stack's shape
    assert np.flatnonzero(stack.value.failed).tolist() == [where]
    assert stack.value.failed.shape == columns[column].shape


def _spectrum(b1, b2, coupling):
    energies, vectors = spectrum(PhysicalFields(b1, b2, coupling))
    return np.concatenate([energies, vectors.reshape(*vectors.shape[:-2], 16)], axis=-1)


def _spectrum_params(b_plus, j):
    energies, vectors = spectrum(params_from_bj(b_plus, j))
    return np.concatenate([energies, vectors.reshape(*vectors.shape[:-2], 16)], axis=-1)


def _params(b_plus, j):
    p = params_from_bj(b_plus, j)
    return np.stack(np.broadcast_arrays(p.b_plus, p.b_minus, p.j, p.scale), axis=-1)


def _fields(b_plus, j):
    f = fields_from_bj(b_plus, j)
    return np.stack(np.broadcast_arrays(f.b1, f.b2, f.j, f.scale), axis=-1)


def _indices1(b_plus, j, t0):
    return np.stack(default_situation1_indices(t0, params_from_bj(b_plus, j)), axis=-1)


def _indices2(b_plus, j, t0):
    return np.stack(default_situation2_indices(t0, fields_from_bj(b_plus, j)), axis=-1)


def _plan_record(plan, names):
    """A plan's fields and its correction's real and imaginary parts."""
    u = plan.correction()
    fields = np.stack(np.broadcast_arrays(*(getattr(plan, k) for k in names)), axis=-1)
    return np.concatenate([fields, u.reshape(*u.shape[:-2], 16).view(float)], axis=-1)


PLAN1 = ("duration", "delta_b_plus", "delta", "s_num")
PLAN2 = ("b_plus_prime", "b_minus_prime", "r", "r_prime", "delta_phase", "phi", "phi_prime",
         "f_value", "middle_phase")


def _plan1(b_plus, j, t0):
    p = params_from_bj(b_plus, j)
    return _plan_record(plan_situation1(t0, p, *default_situation1_indices(t0, p)), PLAN1)


def _plan1_given(b_plus, j, t0, n, m):
    return _plan_record(plan_situation1(t0, params_from_bj(b_plus, j), n, m), PLAN1)


def _plan2(b_plus, j, t0, T):
    fields = fields_from_bj(b_plus, j)
    plan = plan_situation2(t0, fields, T, *default_situation2_indices(t0, fields))
    return _plan_record(plan, PLAN2)


def _plan2_given(b_plus, j, t0, T, n, m):
    return _plan_record(plan_situation2(t0, fields_from_bj(b_plus, j), T, n, m), PLAN2)


# name -> (function, parameters); every parameter is stacked
PLANNERS = {
    "spectrum PhysicalFields": (_spectrum, ("b1", "b2", "coupling")),
    "spectrum IsingParams": (_spectrum_params, ("b_plus", "j")),
    "params_from_bj": (_params, ("b_plus", "j")),
    "fields_from_bj": (_fields, ("b_plus", "j")),
    "default_situation1_indices": (_indices1, ("b_plus", "j", "t0")),
    "default_situation2_indices": (_indices2, ("b_plus", "j", "t0")),
    "plan_situation1 default indices": (_plan1, ("b_plus", "j", "t0")),
    "plan_situation1": (_plan1_given, ("b_plus", "j", "t0", "n", "m")),
    "plan_situation2 default indices": (_plan2, ("b_plus", "j", "t0", "T")),
    "plan_situation2": (_plan2_given, ("b_plus", "j", "t0", "T", "n", "m")),
}
# huge times reach index arithmetic past 2**53, where n and m are not all
# representable and a Python int would round differently from a float
PLANNER_VALUES = {
    **VALID,
    "b1": st.floats(-5.0, 5.0),
    "b2": st.floats(-5.0, 5.0),
    "coupling": st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    "b_plus": st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-1e160, 1e160])),
    "t0": st.one_of(st.floats(-1.0, 8.0), st.sampled_from([2.0**53 * math.pi, 1e17, 1e20]),
                    st.floats(1e15, 1e300)),
    "T": st.one_of(st.floats(-0.5, 3.0), st.just(1e-300)),
    "n": st.integers(-2, 6).map(float),
    "m": st.integers(-4, 4).map(float),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("name", sorted(PLANNERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_planner_stack_equals_point_by_point_calls(name, data):
    """The cells a point call accepts give the same bits as a stack of them;
    a point call that raises must raise OutOfRange."""
    fn, params = PLANNERS[name]
    n = data.draw(st.integers(1, 8))
    columns = {k: np.array(data.draw(st.lists(PLANNER_VALUES[k], min_size=n, max_size=n)))
               for k in params}
    kept, expected = [], []
    with np.errstate(all="ignore"):
        for i in range(n):
            try:
                expected.append(fn(**cell(columns, i)))
            except OutOfRange:
                continue
            kept.append(i)
        stacked = fn(**{k: v[kept] for k, v in columns.items()}) if kept else None
    if kept:
        assert same_bits(stacked, np.array(expected))
