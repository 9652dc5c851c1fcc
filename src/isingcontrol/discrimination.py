"""Local product measurements, discrimination probabilities and the
closed-form fidelity schemes.

The measurement on each qubit i is the orthonormal pair

    delta_i   = cos(theta_i/2)|0> + e^{i alpha_i} sin(theta_i/2)|1>
    epsilon_i = sin(theta_i/2)|0> - e^{i alpha_i} cos(theta_i/2)|1>

and the four product outcomes are grouped so that {delta1 delta2,
epsilon1 epsilon2} votes for the first preparation and {delta1 epsilon2,
epsilon1 delta2} for the second.  The success ("Helstrom") probabilities
are the summed outcome weights of each group in the corresponding
distorted state, and the average fidelity weighs the repreparation
overlaps by them.

The fidelity schemes take floats or arrays of cells that broadcast against
each other: a cell's states are stacked and propagated by the five
propagator entries, so a whole grid costs a few numpy calls.  A stack
equals its point-by-point calls bit for bit, which is why powers are ufunc
calls (``np.square``, ``np.power``): ``**`` on a Python or numpy float goes
through C ``pow``, which rounds differently from numpy's array loops for
about 1 value in 1,000 when squaring and 1 in 20 for a fourth power.  A
stack with one entry out of range raises as that entry would alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import check_coupling
from .states import check_angle, evolved_pair_bj


@dataclass(frozen=True)
class LocalPovm:
    """Angles of the product measurement basis (polars in [0, pi], phases in [0, 2 pi))."""

    theta1: float
    theta2: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            v = getattr(self, name)
            if not 0.0 <= v <= math.pi:
                raise ValueError(f"{name} must lie in [0, pi], got {v}")
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not 0.0 <= v < 2.0 * math.pi:
                raise ValueError(f"{name} must lie in [0, 2 pi), got {v}")

    def angles(self) -> tuple[float, float, float, float]:
        return (self.theta1, self.theta2, self.alpha1, self.alpha2)


@dataclass(frozen=True)
class SchemeResult:
    p_h1: float
    p_h2: float
    avg_fidelity: float


def computational_povm() -> LocalPovm:
    """theta_i = alpha_i = 0: outcomes are the computational basis states."""
    return LocalPovm(0.0, 0.0, 0.0, 0.0)


def fold_angles(theta1: float, theta2: float, alpha1: float, alpha2: float) -> LocalPovm:
    """Map arbitrary real angles onto the canonical ranges.

    The product states are unchanged under theta -> -theta with
    alpha -> alpha + pi, and are 2 pi periodic in everything, so any
    point found by an unconstrained search folds into the ranges.
    """
    two_pi = 2.0 * math.pi

    def fold_one(th, al):
        th = th % two_pi
        if th > math.pi:
            th = two_pi - th
            al = al + math.pi
        al = al % two_pi   # a tiny negative phase rounds up to 2 pi itself
        return th, 0.0 if al == two_pi else al

    t1, a1 = fold_one(theta1, alpha1)
    t2, a2 = fold_one(theta2, alpha2)
    return LocalPovm(t1, t2, a1, a2)


def povm_states(povm: LocalPovm) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four product outcome states, ordered (d1 d2, e1 e2, d1 e2, e1 d2)."""
    return _product_outcomes(*povm.angles())


def _product_outcomes(theta1, theta2, alpha1, alpha2):
    """:func:`povm_states` from the angles; arrays of angles give stacked
    states (..., 4)."""
    d1, e1 = _single_qubit_pair(theta1, alpha1)
    d2, e2 = _single_qubit_pair(theta2, alpha2)
    return tuple((a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], 4)
                 for a, b in ((d1, d2), (e1, e2), (d1, e2), (e1, d2)))


def _single_qubit_pair(theta, alpha):
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * alpha)
    return np.stack([c, e * s], axis=-1), np.stack([s, -e * c], axis=-1)


def helstrom(rho1_distorted, rho2_distorted, povm: LocalPovm) -> tuple[float, float]:
    """Success probabilities of the two-outcome-group vote.

    P_H1 sums the first-group weights in the first distorted state, P_H2
    the second-group weights in the second.  Inputs may be state vectors
    or density matrices (the mixed case uses the same unsquared expectation
    sums; squaring them would not reduce to the pure case).
    """
    return _votes(povm_states(povm), rho1_distorted, rho2_distorted, state_fidelity)


def _votes(outcomes, first, second, weight):
    dd, ee, de, ed = outcomes
    return weight(dd, first) + weight(ee, first), weight(de, second) + weight(ed, second)


def state_fidelity(a, b) -> float:
    """Overlap fidelity between vectors and/or densities (Tr rho sigma form)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape == (4,) and b.shape == (4,):
        return float(abs(np.vdot(a, b)) ** 2)
    if a.shape == (4,):
        return float(np.real(np.vdot(a, b @ a)))
    if b.shape == (4,):
        return float(np.real(np.vdot(b, a @ b)))
    return float(np.real(np.trace(a @ b)))


def average_fidelity(originals, distorted, reprepared, povm: LocalPovm) -> SchemeResult:
    """Measurement-weighted average fidelity of the reprepared pair.

        F = 1/2 [ P_H1 F(b1, b1'') + (1 - P_H1) F(b1, b2'') ]
          + 1/2 [ P_H2 F(b2, b2'') + (1 - P_H2) F(b2, b1'') ]

    ``originals``, ``distorted`` and ``reprepared`` are pairs of states or
    densities; the Helstrom probabilities are evaluated on the distorted
    pair and the fidelities against the originals.
    """
    p1, p2 = helstrom(distorted[0], distorted[1], povm)
    avg = _average(p1, p2, originals, reprepared, state_fidelity)
    return SchemeResult(p_h1=p1, p_h2=p2, avg_fidelity=avg)


def _average(p1, p2, originals, reprepared, fidelity):
    (b1, b2), (r1, r2) = originals, reprepared
    return 0.5 * (p1 * fidelity(b1, r1) + (1.0 - p1) * fidelity(b1, r2)) \
        + 0.5 * (p2 * fidelity(b2, r2) + (1.0 - p2) * fidelity(b2, r1))


def _overlaps(a, b):
    """|<a|b>|^2 of stacked state vectors, through the same BLAS dot product
    and hypot as ``abs(np.vdot(a, b)) ** 2``, which they match to the bit
    in nearly every cell."""
    z = (a.conj()[..., None, :] @ np.asarray(b, dtype=complex)[..., :, None])[..., 0, 0]
    return np.square(np.hypot(z.real, z.imag))


def f_dr1(theta):
    """Discriminate-and-reprepare with the computational basis: (1 + sin^2 theta)/2."""
    check_angle(theta)
    return _dr1(theta)


def _dr1(theta):
    return 0.5 * (1.0 + np.square(np.sin(theta)))


def f_n(theta, b_plus, j, t):
    """Do-nothing fidelity (no measurement, no correction), closed form:

        F_N = 1/2 [ cos^2(b+ t) (1 + cos^4 theta)
                    + 1/2 cos(b+ t) (cos t cos 2jt + 2 j sin t sin 2jt) sin^2 2 theta
                    + (4 j^2 sin^2 t + cos^2 t) sin^4 theta ]

    Independent of the field inhomogeneity b-.  Raises if any theta or j is
    out of range (theta is checked first); a non-finite b+ or t gives nan.
    """
    check_angle(theta)
    check_coupling(j)
    c2 = np.square(np.cos(theta))
    s2 = np.square(np.sin(theta))
    cbt = np.cos(b_plus * t)
    cross = np.cos(t) * np.cos(2.0 * j * t) + 2.0 * j * np.sin(t) * np.sin(2.0 * j * t)
    return 0.5 * (
        cbt * cbt * (1.0 + c2 * c2)
        + 0.5 * cbt * cross * np.square(np.sin(2.0 * theta))
        + (4.0 * j * j * np.square(np.sin(t)) + np.square(np.cos(t))) * s2 * s2
    )


def f_n_pipeline(theta, b_plus, j, t):
    """Do-nothing fidelity evaluated from the evolved states directly, by the
    route of :func:`f_ab`.  Raises if any theta or j is out of range; a
    non-finite b+ or t gives nan.
    """
    originals, distorted = evolved_pair_bj(theta, b_plus, j, t)
    stay1, stay2 = (_overlaps(beta, d) for beta, d in zip(originals, distorted))
    return 0.5 * (stay1 + stay2)


def table1_povm(theta: float, variant: str) -> LocalPovm:
    """The two measurement families that reach fidelity 1 at zero field.

    Variant A uses half-angle (pi - 2 theta)/4 on both qubits with no
    phases; variant B uses (pi + 2 theta)/4 with the sign pattern encoded
    as alpha = pi.
    """
    check_angle(theta)
    return LocalPovm(*_table1_angles(theta, variant))


def _table1_angles(theta, variant: str) -> tuple:
    """(theta1, theta2, alpha1, alpha2) of :func:`table1_povm`, unchecked;
    theta may be an array."""
    if variant == "A":
        ang = (math.pi - 2.0 * theta) / 2.0
        return ang, ang, 0.0, 0.0
    if variant == "B":
        ang = (math.pi + 2.0 * theta) / 2.0
        return ang, ang, math.pi, math.pi
    raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")


def f_ab(theta, b_plus, j, t):
    """Fidelity of the zero-field-optimal measurement under a live field.

    Evaluated through the full pipeline (variant-A measurement, original
    states as repreparation): the pair distorted by
    :func:`states.evolved_pair_bj` is scored with the variant-A outcome
    states.  The printed closed form for this scheme has garbled theta
    arguments, so the pipeline is the ground truth and the theta -> 0,
    pi/2 limits serve as regression anchors.  A non-finite b+ or t gives
    nan.
    """
    originals, distorted = evolved_pair_bj(theta, b_plus, j, t)
    outcomes = _product_outcomes(*_table1_angles(theta, "A"))
    p1, p2 = _votes(outcomes, distorted[0], distorted[1], _overlaps)
    return _average(p1, p2, originals, originals, _overlaps)


def f_so(theta, b_plus, j, t):
    """Suboptimal-control envelope: max of the two closed schemes (nan where
    F_AB is nan); theta is checked once, by :func:`f_ab`."""
    return np.maximum(_dr1(theta), f_ab(theta, b_plus, j, t))


def critical_fidelities(theta: float) -> tuple[float, ...]:
    """The seven stationary fidelity values of the zero-field optimization,
    sorted ascending:

        0, (1 - sin theta)/2, (1 - sin^2 theta)/2, 1/2,
        (1 + sin^2 theta)/2, (1 + sin theta)/2, 1.
    """
    check_angle(theta)
    s = math.sin(theta)
    return tuple(sorted((
        0.0,
        0.5 * (1.0 - s),
        0.5 * (1.0 - s * s),
        0.5,
        0.5 * (1.0 + s * s),
        0.5 * (1.0 + s),
        1.0,
    )))
