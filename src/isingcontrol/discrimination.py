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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import evolved_pair_bj, initial_pair


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


def _single_qubit_pair(theta: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    e = np.exp(1j * alpha)
    return np.array([c, e * s]), np.array([s, -e * c])


def povm_states(povm: LocalPovm) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four product outcome states, ordered (d1 d2, e1 e2, d1 e2, e1 d2)."""
    d1, e1 = _single_qubit_pair(povm.theta1, povm.alpha1)
    d2, e2 = _single_qubit_pair(povm.theta2, povm.alpha2)
    return (np.kron(d1, d2), np.kron(e1, e2), np.kron(d1, e2), np.kron(e1, d2))


def _weight(outcome: np.ndarray, state_or_rho: np.ndarray) -> float:
    """Probability of a measurement outcome in a pure state or density."""
    arr = np.asarray(state_or_rho, dtype=complex)
    if arr.shape == (4,):
        return float(abs(np.vdot(outcome, arr)) ** 2)
    if arr.shape == (4, 4):
        return float(np.real(np.vdot(outcome, arr @ outcome)))
    raise ValueError(f"expected a 4-vector or 4x4 matrix, got shape {arr.shape}")


def helstrom(rho1_distorted, rho2_distorted, povm: LocalPovm) -> tuple[float, float]:
    """Success probabilities of the two-outcome-group vote.

    P_H1 sums the first-group weights in the first distorted state, P_H2
    the second-group weights in the second.  Inputs may be state vectors
    or density matrices (the mixed case uses the same unsquared expectation
    sums; squaring them would not reduce to the pure case).
    """
    dd, ee, de, ed = povm_states(povm)
    p1 = _weight(dd, rho1_distorted) + _weight(ee, rho1_distorted)
    p2 = _weight(de, rho2_distorted) + _weight(ed, rho2_distorted)
    return p1, p2


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
    b1, b2 = originals
    r1, r2 = reprepared
    p1, p2 = helstrom(distorted[0], distorted[1], povm)
    avg = 0.5 * (p1 * state_fidelity(b1, r1) + (1.0 - p1) * state_fidelity(b1, r2)) \
        + 0.5 * (p2 * state_fidelity(b2, r2) + (1.0 - p2) * state_fidelity(b2, r1))
    return SchemeResult(p_h1=p1, p_h2=p2, avg_fidelity=avg)


def f_dr1(theta: float) -> float:
    """Discriminate-and-reprepare with the computational basis: (1 + sin^2 theta)/2."""
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    return 0.5 * (1.0 + math.sin(theta) ** 2)


def f_n(theta: float, b_plus: float, j: float, t: float) -> float:
    """Do-nothing fidelity (no measurement, no correction), closed form:

        F_N = 1/2 [ cos^2(b+ t) (1 + cos^4 theta)
                    + 1/2 cos(b+ t) (cos t cos 2jt + 2 j sin t sin 2jt) sin^2 2 theta
                    + (4 j^2 sin^2 t + cos^2 t) sin^4 theta ]

    Independent of the field inhomogeneity b-.
    """
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    cbt = math.cos(b_plus * t)
    cross = math.cos(t) * math.cos(2.0 * j * t) + 2.0 * j * math.sin(t) * math.sin(2.0 * j * t)
    return 0.5 * (
        cbt * cbt * (1.0 + c2 * c2)
        + 0.5 * cbt * cross * math.sin(2.0 * theta) ** 2
        + (4.0 * j * j * math.sin(t) ** 2 + math.cos(t) ** 2) * s2 * s2
    )


def f_n_pipeline(theta: float, b_plus: float, j: float, t: float) -> float:
    """Do-nothing fidelity evaluated from the evolved states directly."""
    b1, b2 = initial_pair(theta)
    b1p, b2p = evolved_pair_bj(theta, b_plus, j, t)
    return 0.5 * (state_fidelity(b1, b1p) + state_fidelity(b2, b2p))


def table1_povm(theta: float, variant: str) -> LocalPovm:
    """The two measurement families that reach fidelity 1 at zero field.

    Variant A uses half-angle (pi - 2 theta)/4 on both qubits with no
    phases; variant B uses (pi + 2 theta)/4 with the sign pattern encoded
    as alpha = pi.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    if variant == "A":
        ang = (math.pi - 2.0 * theta) / 2.0
        return LocalPovm(ang, ang, 0.0, 0.0)
    if variant == "B":
        ang = (math.pi + 2.0 * theta) / 2.0
        return LocalPovm(ang, ang, math.pi, math.pi)
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


def f_so(theta: float, b_plus: float, j: float, t: float) -> float:
    """Suboptimal-control envelope: max of the two closed schemes."""
    return max(f_dr1(theta), f_ab(theta, b_plus, j, t))


def critical_fidelities(theta: float) -> tuple[float, ...]:
    """The seven stationary fidelity values of the zero-field optimization,
    sorted ascending:

        0, (1 - sin theta)/2, (1 - sin^2 theta)/2, 1/2,
        (1 + sin^2 theta)/2, (1 + sin theta)/2, 1.
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
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
