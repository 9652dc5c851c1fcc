"""Exact maximization of the average fidelity over the local measurement
family (four angles), plus the zero-field stationary points, both in
closed form from one 3x3 SVD.

The objective for fixed (theta, b+, j, t) is affine in the two group
probabilities,

    F(x) = const + c1 P_H1(x) + c2 P_H2(x).

A qubit basis with Bloch vector n has delta projector (I + n.sigma)/2, so
the group operators are (I x I +- (n1.sigma) x (n2.sigma))/2 and

    c1 P_H1 + c2 P_H2 = (c1 + c2)/2 + n1 . (A n2) / 2,
    A = c1 T(b1') - c2 T(b2'),

with T the real 3x3 correlation matrix of a two-qubit pure state
(R. & M. Horodecki, PRA 54, 1838, 1996).  Over unit vectors n1, n2 the
bilinear form peaks at the largest singular value of A, attained by the
top singular vectors, so one 3x3 SVD gives the optimum and the measurement.

Two objective modes exist because the repreparation entering the optimized
scheme is ambiguous: ``as-printed`` scores overlaps of the originals with
the *distorted* pair, ``reprepare-originals`` assumes the identified
original is re-issued (the overlap matrix becomes the identity).  Both are
exposed; at zero field they coincide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrimination import LocalPovm, fold_angles, state_fidelity
from .states import evolved_pair_bj, initial_pair

OBJECTIVE_MODES = ("as-printed", "reprepare-originals")


@dataclass(frozen=True)
class OptimizerSettings:
    """``objective_mode`` picks the objective (see the module docstring)."""

    objective_mode: str = "as-printed"

    def __post_init__(self):
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(
                f"objective_mode must be one of {OBJECTIVE_MODES}, got {self.objective_mode!r}")


@dataclass(frozen=True)
class Fdr2Result:
    """The optimal measurement and its average fidelity.

    ``converged`` is always True, since the optimum is exact; the field stays
    because the benchmark's tracer (``perfbench/tracing.py``) reads it.
    """

    povm: LocalPovm
    value: float
    converged: bool = True


def group_probs_batch(x: np.ndarray, state1, state2) -> tuple[np.ndarray, np.ndarray]:
    """P_H1, P_H2 for a batch of angle tuples x with shape (N, 4).

    ``state1``/``state2`` are the 4-vectors the two outcome groups are
    scored against (normally the distorted pair).
    """
    t1, t2, a1, a2 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    c1, s1 = np.cos(t1 / 2.0), np.sin(t1 / 2.0)
    c2, s2 = np.cos(t2 / 2.0), np.sin(t2 / 2.0)
    e1, e2 = np.exp(-1j * a1), np.exp(-1j * a2)
    # conjugated amplitudes of d = (c, e^{ia} s) and f = (s, -e^{ia} c)
    d1, f1 = (c1, e1 * s1), (s1, -e1 * c1)
    d2, f2 = (c2, e2 * s2), (s2, -e2 * c2)

    def prob(u, v, state):
        # |<u x v|state>|^2 written out elementwise: faster than the
        # (N x 4)(4) BLAS product, which OpenBLAS splits over worker
        # threads for large N, so its cost varied with the machine's load
        s = np.asarray(state)
        a = u[0] * (s[0] * v[0] + s[1] * v[1]) + u[1] * (s[2] * v[0] + s[3] * v[1])
        return a.real ** 2 + a.imag ** 2

    p1 = prob(d1, d2, state1) + prob(f1, f2, state1)
    p2 = prob(d1, f2, state2) + prob(f1, d2, state2)
    return p1, p2


def _objective_coefficients(theta, b_plus, j, t, mode):
    b1, b2 = initial_pair(theta)
    b1p, b2p = evolved_pair_bj(theta, b_plus, j, t)
    if mode == "as-printed":
        a1 = state_fidelity(b1, b1p)
        b1x = state_fidelity(b1, b2p)
        a2 = state_fidelity(b2, b2p)
        b2x = state_fidelity(b2, b1p)
    else:
        a1, b1x, a2, b2x = 1.0, 0.0, 1.0, 0.0
    const = 0.5 * (b1x + b2x)
    return b1p, b2p, const, 0.5 * (a1 - b1x), 0.5 * (a2 - b2x)


def coordinate_ascent(objective, points: np.ndarray, step0: float,
                      tolerance: float, max_steps: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Batched coordinate ascent with halving step on a (N, 4) point set.

    Each sweep tries +-step on every coordinate of every point and keeps
    improvements; when a full sweep improves nothing the step halves.
    Returns (points, values, converged); converged is False when the sweep
    budget ran out before the step fell below the tolerance.

    Nothing in the package calls it any more; it stays because the
    benchmark's tracer (``perfbench/tracing.py``) wraps it by name.
    """
    pts = points.copy()
    vals = objective(pts)
    step = step0
    sweeps = 0
    while step > tolerance:
        improved = True
        while improved:
            sweeps += 1
            if sweeps > max_steps:
                return pts, vals, False
            improved = False
            for k in range(4):
                for sign in (1.0, -1.0):
                    cand = pts.copy()
                    cand[:, k] += sign * step
                    cand_vals = objective(cand)
                    better = cand_vals > vals
                    if better.any():
                        pts[better] = cand[better]
                        vals[better] = cand_vals[better]
                        improved = True
        step *= 0.5
    return pts, vals, True


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _correlations(state) -> np.ndarray:
    """Real 3x3 matrix T_ab = <state| sigma_a x sigma_b |state>."""
    m = np.asarray(state).reshape(2, 2)
    return np.einsum("ij,aik,bjl,kl->ab", m.conj(), _PAULI, _PAULI, m).real


def _angles(n: np.ndarray) -> tuple[float, float]:
    """(theta, alpha) of the Bloch vector n = (sin t cos a, sin t sin a, cos t)."""
    x, y, z = n.tolist()
    return math.atan2(math.hypot(x, y), z), math.atan2(y, x)


def _svd_optimum(state1, state2, c1: float, c2: float) -> tuple[float, LocalPovm]:
    """Maximum of c1 P_H1 + c2 P_H2 over product bases, and a basis reaching it.

    The maximum is (c1 + c2)/2 + sigma_1/2 for the largest singular value
    sigma_1 of A = c1 T(state1) - c2 T(state2), at the Bloch vectors
    (u_1, v_1) or, equally, (-u_1, -v_1).  Of these two the one with the
    lexicographically smaller folded angles is returned, which also fixes
    the choice when sigma_1 = sigma_2 and the SVD's pair is one of many.
    """
    a = c1 * _correlations(state1) - c2 * _correlations(state2)
    u, s, vt = np.linalg.svd(a)
    variants = []
    for n1, n2 in ((u[:, 0], vt[0]), (-u[:, 0], -vt[0])):
        (t1, a1), (t2, a2) = _angles(n1), _angles(n2)
        variants.append(fold_angles(t1, t2, a1, a2))
    return 0.5 * (c1 + c2) + 0.5 * float(s[0]), min(variants, key=LocalPovm.angles)


def optimize_fdr2(theta: float, b_plus: float, j: float, t: float,
                  settings: OptimizerSettings | None = None) -> Fdr2Result:
    """Maximize the average fidelity over the four measurement angles, exactly.

    Deterministic: where several bases reach the optimum, the choice is
    the fixed rule of :func:`_svd_optimum`.
    """
    settings = settings or OptimizerSettings()
    b1p, b2p, const, c1, c2 = _objective_coefficients(
        theta, b_plus, j, t, settings.objective_mode)
    value, povm = _svd_optimum(b1p, b2p, c1, c2)
    return Fdr2Result(povm=povm, value=const + value)


def zero_field_objective(theta: float, povm: LocalPovm) -> float:
    """Bracketed zero-field objective in the four measurement angles:

        cos a1 sin t1 (cos t2 sin 2 theta + 2 cos a2 cos^2 theta sin t2)
        + cos t1 (2 cos t2 sin^2 theta + cos a2 sin 2 theta sin t2)

    On the real-phase slice (a1, a2 in {0, pi}) the zero-field average
    fidelity is exactly 1/2 + objective/4, so its maximum 2 corresponds to
    fidelity 1; off that slice the relation is not exact and the pipeline
    fidelity is the authority.
    """
    t1, t2, a1, a2 = povm.angles()
    s2t = math.sin(2.0 * theta)
    return (math.cos(a1) * math.sin(t1)
            * (math.cos(t2) * s2t + 2.0 * math.cos(a2) * math.cos(theta) ** 2 * math.sin(t2))
            + math.cos(t1)
            * (2.0 * math.cos(t2) * math.sin(theta) ** 2
               + math.cos(a2) * s2t * math.sin(t2)))


def zero_field_fidelity_batch(theta: float, x: np.ndarray) -> np.ndarray:
    """Zero-field average fidelity (P_H1 + P_H2)/2 for a batch of angles."""
    b1, b2 = initial_pair(theta)
    p1, p2 = group_probs_batch(x, b1, b2)
    return 0.5 * (p1 + p2)


def _stationary_angles(n: np.ndarray, field: np.ndarray) -> tuple[float, float]:
    """:func:`_angles` of n, except that at a pole, where the phase is free,
    the phase makes (cos a, sin a, 0) orthogonal to the partner's field, so
    that the polar derivative vanishes there too."""
    t, alpha = _angles(n)
    if n[0] == n[1] == 0.0:
        alpha = math.atan2(-field[0], field[1])
    return t, alpha


def _stationary_points(theta: float) -> np.ndarray:
    """Angles (18, 4) of one point per stationary family member at zero field.

    At zero field F = 1/2 + n1 . (A n2)/2 with A = (T(beta1) - T(beta2))/2.
    In the four angles a point is stationary when each Bloch vector is
    parallel to its field (A n2 for n1, A^T n1 for n2) or sits at a pole
    with the phase of :func:`_stationary_angles`.  That gives four
    families: the singular pairs (u_k, +-v_k); n1 = +-z with
    n2 = +-A^T n1/|A^T n1|; n2 = +-z with n1 = +-A n2/|A n2|; and both
    vectors at poles.  Their values are 1/2 +- v/2 for v in sigma_1,
    sigma_2, sigma_3, |A^T z|, |A z| and |A_zz|.
    """
    b1, b2 = initial_pair(theta)
    a = 0.5 * (_correlations(b1) - _correlations(b2))
    u, _, vt = np.linalg.svd(a)
    z = np.array([0.0, 0.0, 1.0])

    def unit(v):
        # a zero field leaves the vector free; the pole is as good as any
        norm = np.linalg.norm(v)
        return v / norm if norm > 0.0 else z

    pairs = [(u[:, k], sign * vt[k]) for k in range(3) for sign in (1.0, -1.0)]
    for pole in (z, -z):
        for sign in (1.0, -1.0):
            pairs += [(pole, sign * unit(a.T @ pole)),
                      (sign * unit(a @ pole), pole),
                      (pole, sign * z)]
    points = []
    for n1, n2 in pairs:
        (t1, a1), (t2, a2) = _stationary_angles(n1, a @ n2), _stationary_angles(n2, a.T @ n1)
        points.append((t1, t2, a1, a2))
    return np.array(points)


def zero_field_stationary_values(theta: float, grad_tol: float = 1e-7) -> np.ndarray:
    """Fidelity values at stationary points of the zero-field objective.

    Builds the candidates of :func:`_stationary_points` and returns the
    sorted fidelities of those whose central-difference gradient, taken
    through the independent scorer :func:`group_probs_batch`, has magnitude
    below ``grad_tol``.
    """
    x = _stationary_points(theta)
    h = 1e-6
    steps = h * np.vstack([np.eye(4), -np.eye(4)])
    f = zero_field_fidelity_batch(theta, (x[:, None, :] + steps).reshape(-1, 4))
    f = f.reshape(-1, 8)
    grad = (f[:, :4] - f[:, 4:]) / (2.0 * h)
    keep = np.linalg.norm(grad, axis=1) < grad_tol
    return np.sort(zero_field_fidelity_batch(theta, x[keep]))
