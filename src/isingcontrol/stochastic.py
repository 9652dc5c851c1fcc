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
the no-measurement form of the average fidelity.  The corresponding
printed closed forms are retained verbatim (``f1_printed``/``f2_printed``)
for deviation reporting only; their decay exponents are garbled, so the
pipeline is authoritative.  The do-nothing closed form ``f_n_mix`` is
correct and cross-checked against its pipeline on every call.
"""
from __future__ import annotations

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
    normalize_fields,
    params_from_bj,
    spectrum,
)
from .linalg import dag, projector
from .states import initial_pair, witness_value

MODEL_VALIDITY_RATIO = 3.0
FNMIX_CROSSCHECK_TOL = 1e-9


class FormulaDeviationWarning(UserWarning):
    """A printed closed form disagreed with the numerical pipeline."""


@dataclass(frozen=True)
class GaussianTime:
    """Normal duration model: mean t0 > 0, spread s >= 0."""

    t0: float
    s: float

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError(f"mean duration must be positive, got {self.t0}")
        if self.s < 0:
            raise ValueError(f"spread must be >= 0, got {self.s}")

    @property
    def ratio(self) -> float:
        """t0/s; infinite for the sharp (s = 0) model."""
        return math.inf if self.s == 0 else self.t0 / self.s

    @property
    def is_model_valid(self) -> bool:
        """Whether the infinite integration range is trustworthy (t0/s >= 3)."""
        return self.ratio >= MODEL_VALIDITY_RATIO


def dephase(rho: np.ndarray, eigensystem: tuple, t0: float, s: float) -> np.ndarray:
    """Gaussian-averaged evolution of rho; ``eigensystem`` is the Hamiltonian's
    (energies, orthonormal column vectors), as from :func:`evolution.spectrum`.

    Exact: with U(t) = sum_k e^{-i E_k t} P_k, the average is
    sum_{k,l} P_k rho P_l e^{-i (E_k - E_l) t0 - (E_k - E_l)^2 s^2 / 2}.
    Degenerate pairs have zero frequency difference and are untouched,
    which is the correct limit of the integral.
    """
    energies, vectors = eigensystem
    rot = dag(vectors) @ np.asarray(rho, dtype=complex) @ vectors
    w = energies[:, None] - energies[None, :]
    rot = rot * np.exp(-1j * w * t0 - 0.5 * (w * s) ** 2)
    return vectors @ rot @ dag(vectors)


def gaussian_mixed_state(rho: np.ndarray, p: IsingParams, g: GaussianTime) -> np.ndarray:
    """Mixed state after a Gaussian-duration distortion (rescaled time units)."""
    return dephase(rho, spectrum(p), g.t0, g.s)


def quadrature_oracle(rho: np.ndarray, p: IsingParams, g: GaussianTime,
                      nodes: int = 64) -> np.ndarray:
    """Gauss-Hermite evaluation of the Gaussian average; checks :func:`dephase`.

    Substituting t = t0 + sqrt(2) s x turns the integral into
    (1/sqrt(pi)) sum_i w_i U(t_i) rho U(t_i)^dag.  The s = 0 model is the
    delta distribution and is evaluated directly.
    """
    if nodes < 16:
        raise ValueError(f"need at least 16 quadrature nodes, got {nodes}")
    rho = np.asarray(rho, dtype=complex)
    if g.s == 0.0:
        u = evolution_closed_form(p, g.t0)
        return u @ rho @ dag(u)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    out = np.zeros((4, 4), dtype=complex)
    for xi, wi in zip(x, w):
        u = evolution_closed_form(p, g.t0 + math.sqrt(2.0) * g.s * xi)
        out += wi * (u @ rho @ dag(u))
    return out / math.sqrt(math.pi)


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


def _mixed_fidelity(theta: float, model: IsingParams | PhysicalFields, t0: float,
                    s: float, u: np.ndarray | None = None) -> float:
    """No-measurement average fidelity (Tr rho1 rho1'' + Tr rho2 rho2'')/2 of
    the pair dephased under the model's spectrum and then corrected by u."""
    eigensystem = spectrum(model)
    total = 0.0
    for beta in initial_pair(theta):
        rho = projector(beta)
        mixed = dephase(rho, eigensystem, t0, s)
        if u is not None:
            mixed = u @ mixed @ dag(u)
        total += np.trace(rho @ mixed).real
    return 0.5 * float(total)


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
    c2 = math.cos(theta) ** 2
    s2t = math.sin(theta) ** 2
    jj4 = 4.0 * j * j

    def damped_cos(w):
        return math.exp(-0.5 * (w * s) ** 2) * math.cos(w * t0)

    g_n = ((1.0 - 2.0 * j) * (damped_cos(1.0 + b_plus + 2.0 * j)
                              + damped_cos(1.0 - b_plus + 2.0 * j))
           + (1.0 + 2.0 * j) * (damped_cos(1.0 + b_plus - 2.0 * j)
                                + damped_cos(1.0 - b_plus - 2.0 * j)))
    closed = 0.25 * (
        (1.0 + math.exp(-2.0 * (b_plus * s) ** 2) * math.cos(2.0 * b_plus * t0)) * (1.0 + c2 * c2)
        + g_n * c2 * s2t
        + ((1.0 + jj4) + (1.0 - jj4) * math.exp(-2.0 * s * s) * math.cos(2.0 * t0)) * s2t * s2t
    )
    pipeline = f_n_mix_pipeline(theta, b_plus, j, t0, s)
    if abs(closed - pipeline) > FNMIX_CROSSCHECK_TOL:
        warnings.warn(
            f"do-nothing closed form deviates from pipeline by {abs(closed - pipeline):.3e}; "
            "returning the pipeline value", FormulaDeviationWarning, stacklevel=2)
        return pipeline
    return closed


def f1(theta: float, p: IsingParams, t0: float, s: float, n: int, m: int) -> float:
    """Quasi-loop repreparation fidelity on the mixed pair (pipeline).

    The correction field and duration come from the plan at t = t0; the
    mixing itself runs over the uncertain duration.
    """
    plan = plan_situation1(t0, p, n, m)
    corrected = IsingParams(b_plus=p.b_plus + plan.delta_b_plus,
                            b_minus=p.b_minus, j=p.j, scale=p.scale)
    u = evolution_closed_form(corrected, plan.duration)
    g = GaussianTime(t0, s)
    return _mixed_fidelity(theta, p, g.t0, g.s, u)


def f1_printed(theta: float, b_plus: float, j: float, t0: float, s: float, n: int) -> float:
    """Printed closed form of the quasi-loop fidelity, transcribed verbatim
    for deviation reporting (its decay exponents are not squared and one
    cos factor pairs differently than the pipeline; do not use for results).
    """
    c2 = math.cos(theta) ** 2
    s2t = math.sin(theta) ** 2
    jj4 = 4.0 * j * j
    cosj = math.cos(4.0 * j * n * math.pi)
    g_1 = ((1.0 - 2.0 * j) * math.exp(-0.5 * (1.0 + b_plus + 2.0 * j) * s * s) * cosj
           + (1.0 - 2.0 * j) * math.exp(-0.5 * (1.0 - b_plus + 2.0 * j) * s * s)
           + (1.0 + 2.0 * j) * math.exp(-0.5 * (1.0 - b_plus - 2.0 * j) * s * s) * cosj
           + (1.0 + 2.0 * j) * math.exp(-0.5 * (1.0 + b_plus - 2.0 * j) * s * s))
    return 0.25 * (
        (1.0 + math.exp(-2.0 * (b_plus * s) ** 2) * cosj) * (1.0 + c2 * c2)
        + g_1 * c2 * s2t
        + ((1.0 + jj4) + (1.0 - jj4) * math.exp(-2.0 * s * s)) * s2t * s2t
    )


def f2(theta: float, fields: PhysicalFields, t0: float, s: float,
       duration: float, n: int, m: int) -> float:
    """Local-field repreparation fidelity on the mixed pair (pipeline).

    Mixing and planning both use physical units here; the plan is solved at
    t = t0 and applied to the Gaussian-mixed states.
    """
    plan = plan_situation2(t0, fields, duration, n, m)
    u = local_propagator(plan.b_plus_prime, plan.b_minus_prime, plan.duration)
    return _mixed_fidelity(theta, fields, t0, s, u)


def f2_printed(theta: float, fields: PhysicalFields, t0: float, s: float,
               n: int, m: int) -> float:
    """Printed closed form of the local-field fidelity, transcribed verbatim
    for deviation reporting (the exponent '(1 + p b+ 2 q j)' is a known
    misprint, the phase Delta is defined as phi + phi' there, and the cos
    argument carries no t0; do not use for results).
    """
    p = normalize_fields(fields)
    b_plus, b_minus, j = p.b_plus, p.b_minus, p.j
    plan = plan_situation2(t0, fields, 1.0, n, m)
    delta = plan.phi + plan.phi_prime
    c2 = math.cos(theta) ** 2
    s2t = math.sin(theta) ** 2
    jj4 = 4.0 * j * j
    g_2 = 0.0
    for pp in (-1.0, 1.0):
        for q in (-1.0, 1.0):
            for rr in (-1.0, 1.0):
                g_2 += ((-1.0) ** m * (1.0 - q * rr * b_minus - 2.0 * q * j)
                        * math.exp(-0.5 * (1.0 + pp * b_plus + 2.0 * q * j) * s * s)
                        * math.cos(q + 2.0 * j + rr * delta / 2.0))
    return 0.25 * (
        (1.0 + math.exp(-2.0 * (b_plus * s) ** 2)) * (1.0 + c2 * c2)
        + g_2 * c2 * s2t
        + ((1.0 + jj4 * math.cos(delta))
           + b_minus * math.exp(-2.0 * s * s) * math.sin(delta) * math.sin(2.0 * t0)
           + (1.0 - jj4) * math.exp(-2.0 * s * s) * math.cos(delta) * math.cos(2.0 * t0)) * s2t * s2t
    )


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
