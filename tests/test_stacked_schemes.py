"""Every scheme function takes floats or stacks of cells: a stack equals its
point-by-point calls bit for bit, and a stack with one out-of-range entry
raises that entry's own message, with a mask that marks that entry."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingcontrol.control import situation2_phases
from isingcontrol.discrimination import f_ab, f_dr1, f_n, f_so
from isingcontrol.evolution import OutOfRange, params_from_bj
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
    return np.stack(evolved_pair_bj(theta, b_plus, j, t), axis=-2)


def _witness_entries(theta, s, b_plus, j, t0):
    table = witness_table(theta, params_from_bj(b_plus, j), GaussianTime(t0, s))
    # an entry has the shape of the stacked parameters it depends on
    entries = np.broadcast_arrays(theta, s, *(table[key] for key in sorted(table)))[2:]
    return np.stack(entries, axis=-1)


def _f_curve_phases(ratio, t):
    # the phases of the f-curve scheme: 2J = 1 and B- = ratio
    return np.stack(situation2_phases(ratio, 0.5, np.hypot(ratio, 1.0), t), axis=-1)


PURE = (("theta", "b_plus", "j", "t"), ())
MIXED = (("theta", "s"), ("b_plus", "j", "t0"))
# name -> (function, parameters it takes stacked, parameters it takes as floats)
SCHEMES = {
    "f_dr1": (f_dr1, ("theta",), ()),
    "f_n": (f_n, *PURE),
    "f_ab": (f_ab, *PURE),
    "f_so": (f_so, *PURE),
    "schmidt_closed_form": (_schmidt_fields, ("theta", "j", "t"), ()),
    "f_n_mix": (_f_n_mix, *MIXED),
    "f1": (_f1, *MIXED),
    "f2": (_f2, *MIXED),
    "fdr2_value as-printed": (_fdr2_as_printed, *PURE),
    "fdr2_value reprepare-originals": (_fdr2_reprepare_originals, *PURE),
    "evolved_pair_bj": (_evolved_pair, *PURE),
    "witness_table": (_witness_entries, *MIXED),
    "situation2_phases": (_f_curve_phases, ("ratio", "t"), ()),
}
# stacked parameters whose range a function leaves unchecked
UNCHECKED = {"f_n": {"theta", "j"}, "witness_table": {"theta"}}
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
}


# the situation-2 planner needs a nonzero coupling
PLANNABLE = {"f2": {"j": st.floats(1e-3, 0.5)}}


def draw_stack(data, name):
    """Columns of a valid stack, one to eight cells repeated up to past one
    STACK_CELLS block, and the floats of the other parameters."""
    _, stacked, scalar = SCHEMES[name]
    valid = {**VALID, **PLANNABLE.get(name, {})}
    n = data.draw(st.integers(1, 8))
    size = data.draw(st.sampled_from([n, STACK_CELLS + 3]))
    columns = {k: np.resize(data.draw(st.lists(valid[k], min_size=n, max_size=n)), size)
               for k in stacked}
    return columns, {k: data.draw(valid[k]) for k in scalar}


def checked(name):
    """The stacked parameters whose out-of-range values the function rejects."""
    return sorted(INVALID.keys() & set(SCHEMES[name][1]) - UNCHECKED.get(name, set()))


def cell(columns, i):
    return {k: float(v[i]) for k, v in columns.items()}


@pytest.mark.parametrize("name", sorted(SCHEMES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_stack_equals_point_by_point_calls(name, data):
    fn = SCHEMES[name][0]
    columns, floats = draw_stack(data, name)
    size = len(next(iter(columns.values())))
    expected = np.array([fn(**cell(columns, i), **floats) for i in range(size)])
    assert np.array_equal(fn(**columns, **floats), expected)


@pytest.mark.parametrize("name", sorted(name for name in SCHEMES if checked(name)))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_bad_entry_raises_its_own_message(name, data):
    fn = SCHEMES[name][0]
    columns, floats = draw_stack(data, name)
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
