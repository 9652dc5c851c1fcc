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

The ``*_grid`` functions evaluate a scheme over arrays of cells at once
(stacked states, the propagator's five entries broadcast over the grid).
They skip the scalar functions' range checks, so the caller masks the
cells that the scalar function rejects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import b_minus_magnitude, check_coupling, propagate, propagator_entries
from .states import check_angle, evolved_pair_bj, initial_pair, initial_pair_grid


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
    return _product_outcomes(math, *povm.angles())


def _product_outcomes(xp, theta1, theta2, alpha1, alpha2):
    """:func:`povm_states` from the angles, with the cos and sin of ``xp``:
    math for one measurement, numpy for arrays of angles (states (..., 4))."""
    d1, e1 = _single_qubit_pair(xp, theta1, alpha1)
    d2, e2 = _single_qubit_pair(xp, theta2, alpha2)
    return tuple((a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], 4)
                 for a, b in ((d1, d2), (e1, e2), (d1, e2), (e1, d2)))


def _single_qubit_pair(xp, theta, alpha):
    c, s = xp.cos(theta / 2.0), xp.sin(theta / 2.0)
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
    return np.hypot(z.real, z.imag) ** 2


def f_dr1(theta: float) -> float:
    """Discriminate-and-reprepare with the computational basis: (1 + sin^2 theta)/2."""
    check_angle(theta)
    return _dr1(math.sin(theta))


def f_dr1_grid(theta: np.ndarray) -> np.ndarray:
    return _dr1(np.sin(theta))


def _dr1(sin_theta):
    return 0.5 * (1.0 + sin_theta ** 2)


def f_n(theta: float, b_plus: float, j: float, t: float) -> float:
    """Do-nothing fidelity (no measurement, no correction), closed form:

        F_N = 1/2 [ cos^2(b+ t) (1 + cos^4 theta)
                    + 1/2 cos(b+ t) (cos t cos 2jt + 2 j sin t sin 2jt) sin^2 2 theta
                    + (4 j^2 sin^2 t + cos^2 t) sin^4 theta ]

    Independent of the field inhomogeneity b-.
    """
    return _f_n(math, theta, b_plus, j, t)


def f_n_grid(theta, b_plus, j, t) -> np.ndarray:
    return _f_n(np, theta, b_plus, j, t)


def _f_n(xp, theta, b_plus, j, t):
    """The F_N formula with the elementary functions of ``xp`` (math or numpy)."""
    c2 = xp.cos(theta) ** 2
    s2 = xp.sin(theta) ** 2
    cbt = xp.cos(b_plus * t)
    cross = xp.cos(t) * xp.cos(2.0 * j * t) + 2.0 * j * xp.sin(t) * xp.sin(2.0 * j * t)
    return 0.5 * (
        cbt * cbt * (1.0 + c2 * c2)
        + 0.5 * cbt * cross * xp.sin(2.0 * theta) ** 2
        + (4.0 * j * j * xp.sin(t) ** 2 + xp.cos(t) ** 2) * s2 * s2
    )


def f_n_pipeline(theta: float, b_plus: float, j: float, t: float) -> float:
    """Do-nothing fidelity evaluated from the evolved states directly.

    The arguments may be arrays that broadcast against each other: the pair
    is then propagated stacked, by the route of :func:`f_ab_grid`.  Raises
    if any theta or j is out of range; a non-finite b+ or t gives nan.
    """
    check_angle(theta)
    check_coupling(j)
    originals = initial_pair_grid(theta)
    entries = propagator_entries(b_plus, b_minus_magnitude(j), j, t)
    stay1, stay2 = (_overlaps(beta, propagate(entries, beta)) for beta in originals)
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


def f_ab(theta: float, b_plus: float, j: float, t: float) -> float:
    """Fidelity of the zero-field-optimal measurement under a live field.

    Evaluated through the full pipeline (variant-A measurement, original
    states as repreparation); the printed closed form for this scheme has
    garbled theta arguments, so the pipeline is the ground truth and the
    theta -> 0, pi/2 limits serve as regression anchors.
    """
    originals = initial_pair(theta)
    distorted = evolved_pair_bj(theta, b_plus, j, t)
    return average_fidelity(originals, distorted, originals,
                            table1_povm(theta, "A")).avg_fidelity


def f_ab_grid(theta, b_plus, j, t) -> np.ndarray:
    """:func:`f_ab` over arrays of cells: the stacked pair is propagated by
    the five propagator entries and scored with the stacked variant-A
    measurements."""
    originals = initial_pair_grid(theta)
    entries = propagator_entries(b_plus, b_minus_magnitude(j), j, t)
    distorted = [propagate(entries, beta) for beta in originals]
    outcomes = _product_outcomes(np, *_table1_angles(theta, "A"))
    p1, p2 = _votes(outcomes, distorted[0], distorted[1], _overlaps)
    return _average(p1, p2, originals, originals, _overlaps)


def f_so(theta: float, b_plus: float, j: float, t: float) -> float:
    """Suboptimal-control envelope: max of the two closed schemes (nan if
    F_AB is nan)."""
    dr1, ab = f_dr1(theta), f_ab(theta, b_plus, j, t)
    return ab if math.isnan(ab) else max(dr1, ab)


def f_so_grid(theta, b_plus, j, t) -> np.ndarray:
    return np.maximum(f_dr1_grid(theta), f_ab_grid(theta, b_plus, j, t))


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
