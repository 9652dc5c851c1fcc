"""Numerical maximization of the average fidelity over the local measurement
family (four angles), plus the zero-field stationary structure.

The objective for fixed (theta, b+, j, t) is affine in the two group
probabilities,

    F(x) = const + c1 P_H1(x) + c2 P_H2(x).

With qubit 2's basis (d2, f2) fixed it is const' + <d1|M|d1> for the 2x2
Hermitian M = c1(uu' - vv') + c2(ww' - zz'), where u = (I x <d2|) b1',
v = (I x <f2|) b1', w = (I x <f2|) b2' and z = (I x <d2|) b2' (' is the
conjugate transpose), so the best qubit-1 basis is the top eigenvector of
M in closed form; the same holds with the qubits swapped.  The search
scores a coarse grid of seeds, then runs this see-saw (alternating exact
block maximization) from the best grid seeds and the analytic candidates
(computational basis and both zero-field-optimal families).  Every
half-step maximizes exactly, so the result never falls below any start,
and everything is deterministic for fixed settings.

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

from .discrimination import LocalPovm, fold_angles, state_fidelity, table1_povm
from .states import evolved_pair_bj, initial_pair

OBJECTIVE_MODES = ("as-printed", "reprepare-originals")


@dataclass(frozen=True)
class OptimizerSettings:
    """``grid_per_axis`` seeds per angle in the coarse grid; the see-saw
    stops once no qubit's Bloch vector moves by more than
    ``refine_tolerance`` (any component) in a full sweep, or after
    ``max_refine_steps`` sweeps, and then reports ``converged=False``."""

    grid_per_axis: int = 8
    refine_tolerance: float = 1e-8
    max_refine_steps: int = 2000
    objective_mode: str = "as-printed"

    def __post_init__(self):
        if self.grid_per_axis < 4:
            raise ValueError(f"grid_per_axis must be >= 4, got {self.grid_per_axis}")
        if not self.refine_tolerance > 0:
            raise ValueError("refine_tolerance must be positive")
        if self.max_refine_steps < 1:
            raise ValueError("max_refine_steps must be >= 1")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(
                f"objective_mode must be one of {OBJECTIVE_MODES}, got {self.objective_mode!r}")


@dataclass(frozen=True)
class Fdr2Result:
    povm: LocalPovm
    value: float
    converged: bool


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


def _analytic_seed_angles(theta: float) -> np.ndarray:
    a = table1_povm(theta, "A")
    b = table1_povm(theta, "B")
    return np.array([
        [0.0, 0.0, 0.0, 0.0],
        list(a.angles()),
        list(b.angles()),
    ])


def coordinate_ascent(objective, points: np.ndarray, step0: float,
                      tolerance: float, max_steps: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Batched coordinate ascent with halving step on a (N, 4) point set.

    Each sweep tries +-step on every coordinate of every point and keeps
    improvements; when a full sweep improves nothing the step halves.
    Returns (points, values, converged); converged is False when the sweep
    budget ran out before the step fell below the tolerance.
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


def _bloch(theta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Bloch vectors (N, 3) of the delta states with the given angles."""
    st = np.sin(theta)
    return np.stack([st * np.cos(alpha), st * np.sin(alpha), np.cos(theta)], axis=1)


def _angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, alpha) of the Bloch vectors n, the inverse of :func:`_bloch`."""
    return np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2]), np.arctan2(n[:, 1], n[:, 0])


def _align(a: np.ndarray, partner: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Unit vectors n maximizing n . (a partner) row by row; rows where
    a partner vanishes (the objective is flat there) keep ``previous``."""
    h = np.einsum("ab,nb->na", a, partner)   # not @: BLAS dgemm adds 0.3 MB peak RSS
    norm = np.linalg.norm(h, axis=1, keepdims=True)
    return np.divide(h, norm, out=previous.copy(), where=norm > 0)


def seesaw(x: np.ndarray, state1, state2, c1: float, c2: float,
           tolerance: float, max_steps: int) -> tuple[np.ndarray, bool]:
    """Alternating exact maximization of c1 P_H1 + c2 P_H2 over qubit 1's and
    qubit 2's bases, from every row of the (N, 4) angle array x at once.

    A basis with Bloch vector n has delta projector (I + n.sigma)/2, so the
    group operators are (I x I +- (n1.sigma) x (n2.sigma))/2 and

        c1 P_H1 + c2 P_H2 = (c1 + c2)/2 + n1 . (A n2) / 2,
        A = c1 T(state1) - c2 T(state2)

    with T the correlation matrices of the (unit) states.  With qubit 2
    fixed this is the 2x2 eigenproblem for M = c1(uu' - vv') + c2(ww' - zz'),
    whose traceless part is (A n2).sigma / 2, so the top eigenvector has
    Bloch vector A n2 / |A n2|; the qubit-2 update uses A^T n1.  A sweep
    updates qubit 1, then qubit 2.
    Returns (angles, converged); converged is False when ``max_steps`` sweeps
    ran without every Bloch vector settling to within ``tolerance``.
    """
    a = c1 * _correlations(state1) - c2 * _correlations(state2)
    n1, n2 = _bloch(x[:, 0], x[:, 2]), _bloch(x[:, 1], x[:, 3])
    converged = False
    for _ in range(max_steps):
        m1 = _align(a, n2, n1)
        m2 = _align(a.T, m1, n2)
        converged = max(np.abs(m1 - n1).max(), np.abs(m2 - n2).max()) <= tolerance
        n1, n2 = m1, m2
        if converged:
            break
    (t1, a1), (t2, a2) = _angles(n1), _angles(n2)
    return np.stack([t1, t2, a1, a2], axis=1), bool(converged)


def optimize_fdr2(theta: float, b_plus: float, j: float, t: float,
                  settings: OptimizerSettings | None = None) -> Fdr2Result:
    """Maximize the average fidelity over the four measurement angles.

    Deterministic for fixed settings; the result value is never below the
    objective at any of the best grid seeds, the computational basis, or
    either zero-field-optimal family.  Ties between refined candidates
    break by lexicographic order of the folded angles.
    """
    settings = settings or OptimizerSettings()
    b1p, b2p, const, c1, c2 = _objective_coefficients(
        theta, b_plus, j, t, settings.objective_mode)

    def objective(x: np.ndarray) -> np.ndarray:
        p1, p2 = group_probs_batch(x, b1p, b2p)
        return const + c1 * p1 + c2 * p2

    g = settings.grid_per_axis
    polar = np.linspace(0.0, math.pi, g)
    phase = np.linspace(0.0, 2.0 * math.pi, g, endpoint=False)
    mesh = np.meshgrid(polar, polar, phase, phase, indexing="ij")
    seeds = np.stack([m.ravel() for m in mesh], axis=1)
    analytic = _analytic_seed_angles(theta)
    seeds = np.vstack([analytic, seeds])
    seed_vals = objective(seeds)

    top = np.argsort(-seed_vals, kind="stable")[:8]
    start = np.vstack([seeds[top], analytic])
    refined, converged = seesaw(start, b1p, b2p, c1, c2,
                                settings.refine_tolerance, settings.max_refine_steps)
    pts = np.vstack([refined, start])   # the starts too, against rounding
    vals = objective(pts)

    order = np.argsort(-vals, kind="stable")
    best_val = vals[order[0]]
    candidates = [fold_angles(*pts[i]) for i in order if vals[i] >= best_val]
    best_povm = min(candidates, key=lambda p: p.angles())
    return Fdr2Result(povm=best_povm, value=float(best_val), converged=converged)


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


def _stationary_seed_angles(theta: float) -> np.ndarray:
    """Candidates hitting the known stationary families, including the
    boundary corners (theta_i in {0, pi} with free phases) that random
    descent tends to miss."""
    th2 = math.atan2(math.sin(2.0 * theta), 2.0 * math.sin(theta) ** 2)
    half = math.pi / 2.0
    ta = (math.pi - 2.0 * theta) / 2.0
    tb = (math.pi + 2.0 * theta) / 2.0
    return np.array([
        [0.0, 0.0, 0.0, 0.0],
        [ta, ta, 0.0, 0.0],
        [tb, tb, math.pi, math.pi],
        [0.0, th2, half, 0.0],
        [0.0, math.pi - th2, half, math.pi],
        [0.0, 0.0, half, half],
        [0.0, math.pi, half, half],
        [math.pi, 0.0, half, half],
        [math.pi, math.pi, 0.0, 0.0],
    ])


def zero_field_stationary_values(theta: float, n_random: int = 48,
                                 rng_seed: int = 20240, grad_tol: float = 1e-7) -> np.ndarray:
    """Fidelity values at stationary points of the zero-field objective.

    Minimizes the squared gradient norm (central differences) by batched
    coordinate descent from targeted plus random seeds and returns the
    sorted fidelities of every point whose gradient magnitude fell below
    ``grad_tol``.
    """
    h = 1e-6
    shifts = np.zeros((8, 4))
    for k in range(4):
        shifts[2 * k, k] = h
        shifts[2 * k + 1, k] = -h

    def grad_norm2(x: np.ndarray) -> np.ndarray:
        probe = (x[:, None, :] + shifts[None, :, :]).reshape(-1, 4)
        f = zero_field_fidelity_batch(theta, probe).reshape(-1, 8)
        g = (f[:, 0::2] - f[:, 1::2]) / (2.0 * h)
        return (g ** 2).sum(axis=1)

    rng = np.random.default_rng(rng_seed)
    random_seeds = rng.uniform(
        [0.0, 0.0, 0.0, 0.0], [math.pi, math.pi, 2.0 * math.pi, 2.0 * math.pi],
        size=(n_random, 4))
    seeds = np.vstack([_stationary_seed_angles(theta), random_seeds])

    pts, g2, _ = coordinate_ascent(
        lambda x: -grad_norm2(x), seeds, step0=0.4,
        tolerance=1e-10, max_steps=4000)
    keep = (-g2) < grad_tol**2
    if not keep.any():
        return np.array([])
    return np.sort(zero_field_fidelity_batch(theta, pts[keep]))
