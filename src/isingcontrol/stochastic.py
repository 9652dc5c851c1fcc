"""Gaussian-duration mixing and the mixed-state control fidelities.

When the distortion time is only known as t ~ N(t0, s^2), the state after
the interaction is the Gaussian average of the unitary orbit,

    rho' = integral f(t) U(t) rho U(t)^dag dt,

which in the energy eigenbasis of H is pure dephasing: the (k, l) matrix
element picks up exp(-i w t0 - w^2 s^2 / 2) with w = E_k - E_l.
:func:`dephase` evaluates that analytically in the closed-form eigensystem
of :func:`evolution.spectrum`; :func:`quadrature_oracle` recomputes it by
Gauss-Hermite quadrature as an independent check.

The integration range is the whole real line, which physically presumes
t0/s >> 1; ``GaussianTime`` accepts any ratio but flags models below
t0/s = 3 (the working range of the fidelity surfaces) as suspect.

The repreparation fidelities F1 and F2 apply the protocol planned at
t = t0 to the mixed state and score 1/2 (Tr rho1 rho1'' + Tr rho2 rho2''),
the no-measurement form of the average fidelity, from the density-matrix
pipeline.  The do-nothing closed form ``f_n_mix`` is correct and
cross-checked against its pipeline on every call.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import (
    local_propagator,
    plan_situation1,
    plan_situation2,
)
from .evolution import (
    IsingParams,
    PhysicalFields,
    evolution_closed_form,
    params_from_bj,
    propagate,
    propagator_entries,
    spectrum,
)
from .linalg import dag, projector
from .states import initial_pair, witness_value

MODEL_VALIDITY_RATIO = 3.0
FNMIX_CROSSCHECK_TOL = 1e-9


class FormulaDeviationWarning(UserWarning):
    """A printed closed form disagreed with the numerical pipeline."""


def mean_in_range(t0):
    """Whether t0 > 0 is a valid mean duration; elementwise for arrays."""
    return t0 > 0


def spread_in_range(s):
    """Whether s >= 0 is a valid spread (False for nan); elementwise for arrays."""
    return s >= 0


@dataclass(frozen=True)
class GaussianTime:
    """Normal duration model: mean t0 > 0, spread s >= 0."""

    t0: float
    s: float

    def __post_init__(self):
        if not mean_in_range(self.t0):
            raise ValueError(f"mean duration must be positive, got {self.t0}")
        if not spread_in_range(self.s):
            raise ValueError(f"spread must be >= 0, got {self.s}")

    @property
    def ratio(self) -> float:
        """t0/s; infinite for the sharp (s = 0) model."""
        return math.inf if self.s == 0 else self.t0 / self.s

    @property
    def is_model_valid(self) -> bool:
        """Whether the infinite integration range is trustworthy (t0/s >= 3)."""
        return self.ratio >= MODEL_VALIDITY_RATIO


def dephase(rho: np.ndarray, eigensystem: tuple, t0, s) -> np.ndarray:
    """Gaussian-averaged evolution of rho; ``eigensystem`` is the Hamiltonian's
    (energies, orthonormal column vectors), as from :func:`evolution.spectrum`.

    Exact: with U(t) = sum_k e^{-i E_k t} P_k, the average is
    sum_{k,l} P_k rho P_l e^{-i (E_k - E_l) t0 - (E_k - E_l)^2 s^2 / 2}.
    Degenerate pairs have zero frequency difference and are untouched,
    which is the correct limit of the integral.

    Also dephases a stack of densities (..., 4, 4) at once: t0 and s then
    broadcast against it, e.g. an array of spreads shaped (n, 1, 1).
    """
    energies, vectors = eigensystem
    rot = dag(vectors) @ np.asarray(rho, dtype=complex) @ vectors
    w = energies[..., :, None] - energies[..., None, :]
    rot = rot * np.exp(-1j * w * t0 - 0.5 * (w * s) ** 2)
    return vectors @ rot @ dag(vectors)


def gaussian_mixed_state(rho: np.ndarray, p: IsingParams, g: GaussianTime) -> np.ndarray:
    """Mixed state after a Gaussian-duration distortion (rescaled time units)."""
    return dephase(rho, spectrum(p), g.t0, g.s)


@functools.cache
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, computed once per size and read-only."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadrature_oracle(rho: np.ndarray, p: IsingParams, g: GaussianTime,
                      nodes: int = 64) -> np.ndarray:
    """Gauss-Hermite evaluation of the Gaussian average; checks :func:`dephase`.

    Substituting t = t0 + sqrt(2) s x turns the integral into
    (1/sqrt(pi)) sum_i w_i U(t_i) rho U(t_i)^dag, with the node propagators
    built as one stack.  The s = 0 model is the delta distribution and is
    evaluated directly.
    """
    if nodes < 16:
        raise ValueError(f"need at least 16 quadrature nodes, got {nodes}")
    rho = np.asarray(rho, dtype=complex)
    if g.s == 0.0:
        u = evolution_closed_form(p, g.t0)
        return u @ rho @ dag(u)
    x, w = _hermite_rule(nodes)
    t = g.t0 + math.sqrt(2.0) * g.s * x
    # row k of the propagated identity is U e_k, column k of U
    u = propagate(propagator_entries(p.b_plus, p.b_minus, p.j, t[:, None]),
                  np.eye(4)).swapaxes(-1, -2)
    return (w[:, None, None] * (u @ rho @ dag(u))).sum(axis=0) / math.sqrt(math.pi)


def witness_table(theta: float, p: IsingParams, g: GaussianTime) -> dict:
    """Closed-form witness expectations for both Gaussian-mixed preparations.

    Returns {(state, i, j): value} with state in {1, 2} and (i, j) the Bell
    indices of the witness.  With E+ = exp(-2 b+^2 s^2) cos(2 b+ t0) and
    E1 = exp(-2 s^2) cos(2 t0):

        state 1:  W00 -> -E+,  W10 -> +E+,  W01 = W11 -> 1
        state 2:  W00 -> 1 - cos^2(th) (1 - E+)
                  W10 -> 1 - cos^2(th) (1 + E+)
                  W01 -> 1 - sin^2(th) ((1 + 4j^2) + (1 - 4j^2) E1)
                  W11 -> 1 - (1 - 4j^2) sin^2(th) (1 - E1)
    """
    ep = math.exp(-2.0 * (p.b_plus * g.s) ** 2) * math.cos(2.0 * p.b_plus * g.t0)
    e1 = math.exp(-2.0 * g.s**2) * math.cos(2.0 * g.t0)
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    jj4 = 4.0 * p.j**2
    return {
        (1, 0, 0): -ep,
        (1, 0, 1): 1.0,
        (1, 1, 0): ep,
        (1, 1, 1): 1.0,
        (2, 0, 0): 1.0 - c2 * (1.0 - ep),
        (2, 0, 1): 1.0 - s2 * ((1.0 + jj4) + (1.0 - jj4) * e1),
        (2, 1, 0): 1.0 - c2 * (1.0 + ep),
        (2, 1, 1): 1.0 - (1.0 - jj4) * s2 * (1.0 - e1),
    }


def witness_table_numeric(theta: float, p: IsingParams, g: GaussianTime) -> dict:
    """Same table computed through the mixing pipeline (oracle side)."""
    beta1, beta2 = initial_pair(theta)
    mixed = {
        1: gaussian_mixed_state(projector(beta1), p, g),
        2: gaussian_mixed_state(projector(beta2), p, g),
    }
    return {(state, i, j): witness_value(rho, i, j)
            for state, rho in mixed.items() for i in (0, 1) for j in (0, 1)}


def pair_fidelity(pair: tuple, eigensystem: tuple, t0, s,
                  u: np.ndarray | None = None):
    """No-measurement average fidelity (Tr rho1 rho1'' + Tr rho2 rho2'')/2 of
    the pair dephased in ``eigensystem`` and then corrected by u.

    The states may be stacked (..., 4), with s broadcasting as in
    :func:`dephase`; the result then has the stack's shape.
    """
    total = 0.0
    for beta in pair:
        rho = projector(beta)
        mixed = dephase(rho, eigensystem, t0, s)
        if u is not None:
            mixed = u @ mixed @ dag(u)
        total = total + np.trace(rho @ mixed, axis1=-2, axis2=-1).real
    return 0.5 * total


def _mixed_fidelity(theta: float, model: IsingParams | PhysicalFields, t0: float,
                    s: float, u: np.ndarray | None = None) -> float:
    return float(pair_fidelity(initial_pair(theta), spectrum(model), t0, s, u))


def f_n_mix_pipeline(theta: float, b_plus: float, j: float, t0: float, s: float) -> float:
    g = GaussianTime(t0, s)
    return _mixed_fidelity(theta, params_from_bj(b_plus, j), g.t0, g.s)


def f_n_mix(theta: float, b_plus: float, j: float, t0: float, s: float) -> float:
    """Do-nothing fidelity for the Gaussian-mixed pair, closed form:

        F = 1/4 [ (1 + e^{-2 b+^2 s^2} cos 2 b+ t0)(1 + cos^4 th)
                  + G_N cos^2 th sin^2 th
                  + ((1 + 4j^2) + (1 - 4j^2) e^{-2 s^2} cos 2 t0) sin^4 th ]

    with G_N summing (1 -+ 2j) e^{-(1 +- b+ +- 2j)^2 s^2 / 2}
    cos((1 +- b+ +- 2j) t0) over the four sign choices (upper sign of the
    prefactor pairing with +2j in the frequency).  Cross-checked against
    the mixing pipeline on every call; on disagreement beyond 1e-9 the
    pipeline value is returned with a FormulaDeviationWarning.
    """
    closed = f_n_mix_closed(math, theta, b_plus, j, t0, s)
    pipeline = f_n_mix_pipeline(theta, b_plus, j, t0, s)
    return float(cross_checked(closed, pipeline))


def f_n_mix_closed(xp, theta, b_plus, j, t0, s):
    """The closed form of :func:`f_n_mix`, with the elementary functions of
    ``xp``: math for one cell, numpy for arrays of cells.  Squares are
    products, so a huge w s gives exp(-inf) = 0 on both backends where
    math's ``** 2`` would raise OverflowError."""
    c2 = xp.cos(theta) ** 2
    s2t = xp.sin(theta) ** 2
    jj4 = 4.0 * j * j
    bs = b_plus * s

    def damped_cos(w):
        ws = w * s
        return xp.exp(-0.5 * (ws * ws)) * xp.cos(w * t0)

    g_n = ((1.0 - 2.0 * j) * (damped_cos(1.0 + b_plus + 2.0 * j)
                              + damped_cos(1.0 - b_plus + 2.0 * j))
           + (1.0 + 2.0 * j) * (damped_cos(1.0 + b_plus - 2.0 * j)
                                + damped_cos(1.0 - b_plus - 2.0 * j)))
    return 0.25 * (
        (1.0 + xp.exp(-2.0 * (bs * bs)) * xp.cos(2.0 * b_plus * t0)) * (1.0 + c2 * c2)
        + g_n * c2 * s2t
        + ((1.0 + jj4) + (1.0 - jj4) * xp.exp(-2.0 * s * s) * xp.cos(2.0 * t0)) * s2t * s2t
    )


def cross_checked(closed, pipeline):
    """The closed-form value, or the pipeline value with one
    FormulaDeviationWarning per cell where the two differ by more than
    FNMIX_CROSSCHECK_TOL; takes floats or arrays of cells."""
    deviation = np.abs(closed - pipeline)
    for dev in np.atleast_1d(deviation)[np.atleast_1d(deviation > FNMIX_CROSSCHECK_TOL)]:
        warnings.warn(
            f"do-nothing closed form deviates from pipeline by {dev:.3e}; "
            "returning the pipeline value", FormulaDeviationWarning, stacklevel=3)
    return np.where(deviation > FNMIX_CROSSCHECK_TOL, pipeline, closed)


def f1(theta: float, p: IsingParams, t0: float, s: float, n: int, m: int) -> float:
    """Quasi-loop repreparation fidelity on the mixed pair (pipeline).

    The correction field and duration come from the plan at t = t0; the
    mixing itself runs over the uncertain duration.
    """
    u = f1_correction(p, t0, n, m)
    g = GaussianTime(t0, s)
    return _mixed_fidelity(theta, p, g.t0, g.s, u)


def f1_correction(p: IsingParams, t0: float, n: int, m: int) -> np.ndarray:
    """Propagator of the quasi-loop correction planned at t = t0."""
    plan = plan_situation1(t0, p, n, m)
    corrected = IsingParams(b_plus=p.b_plus + plan.delta_b_plus,
                            b_minus=p.b_minus, j=p.j, scale=p.scale)
    return evolution_closed_form(corrected, plan.duration)


def f2(theta: float, fields: PhysicalFields, t0: float, s: float,
       duration: float, n: int, m: int) -> float:
    """Local-field repreparation fidelity on the mixed pair (pipeline).

    Mixing and planning both use physical units here; the plan is solved at
    t = t0 and applied to the Gaussian-mixed states.
    """
    u = f2_correction(fields, t0, duration, n, m)
    g = GaussianTime(t0, s)
    return _mixed_fidelity(theta, fields, g.t0, g.s, u)


def f2_correction(fields: PhysicalFields, t0: float, duration: float,
                  n: int, m: int) -> np.ndarray:
    """Propagator of the local-field correction planned at t = t0."""
    plan = plan_situation2(t0, fields, duration, n, m)
    return local_propagator(plan.b_plus_prime, plan.b_minus_prime, plan.duration)


@dataclass(frozen=True)
class AbdCoefficients:
    """Structural coefficients of a mixed-state scheme in the mixing angle:

        F(theta) = 1/4 ( A (1 + cos^4 th) + G cos^2 th sin^2 th + D sin^4 th )

    F is identically 1 iff (A, G, D) = (2, 4, 2); G -> 0 as s -> infinity,
    which is what caps every scheme at 3/4 in the fully dephased limit.
    """

    a: float
    g: float
    d: float


ABD_RESIDUAL_TOL = 1e-6


def abd_decompose(scheme: Callable[[float], float]) -> AbdCoefficients:
    """Extract (A, G, D) from a scheme evaluated at probe angles.

    From the ansatz: A = 2 F(0); D = 4 F(pi/2) - A (the first bracket keeps
    contributing at theta = pi/2); G = 16 F(pi/4) - 5 A - D.  The
    reconstruction is then verified at theta in {pi/8, 3 pi/8}; a residual
    above ABD_RESIDUAL_TOL means the scheme is not of this form and raises.
    """
    a = 2.0 * scheme(0.0)
    d = 4.0 * scheme(math.pi / 2.0) - a
    g = 16.0 * scheme(math.pi / 4.0) - 5.0 * a - d
    coeffs = AbdCoefficients(a=a, g=g, d=d)
    worst = max(abs(abd_reconstruct(coeffs, th) - scheme(th))
                for th in (math.pi / 8.0, 3.0 * math.pi / 8.0))
    if worst > ABD_RESIDUAL_TOL:
        raise ValueError(
            f"scheme is not of the A/G/D form: reconstruction residual {worst:.3e}")
    return coeffs


def abd_reconstruct(coeffs: AbdCoefficients, theta: float) -> float:
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    return 0.25 * (coeffs.a * (1.0 + c2 * c2) + coeffs.g * c2 * s2 + coeffs.d * s2 * s2)
