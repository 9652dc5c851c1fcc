"""Gaussian-duration mixing and the mixed-state control fidelities.

When the distortion time is only known as t ~ N(t0, s^2), the state after
the interaction is the Gaussian average of the unitary orbit,

    rho' = integral f(t) U(t) rho U(t)^dag dt,

which in the energy eigenbasis of H is pure dephasing: the (k, l) matrix
element picks up exp(-i w t0 - w^2 s^2 / 2) with w = E_k - E_l.
:func:`dephase` evaluates that analytically in the closed-form eigensystem
of :func:`evolution.spectrum`, as matrices; :func:`quadrature_oracle`
recomputes it by Gauss-Hermite quadrature as an independent check, with a
rule built from the Hermite recurrence by Newton steps, so that neither
``numpy.polynomial`` nor an eigensolver runs for it.  Both take stacks, so
``verify`` runs them once per theta row or (theta, b+).

The integration range is the whole real line, which physically presumes
t0/s >> 1; ``GaussianTime`` accepts any ratio but flags models below
t0/s = 3 (the working range of the fidelity surfaces) as suspect.

The repreparation fidelities F1 and F2 apply the protocol planned at
t = t0 to the mixed state and score 1/2 (Tr rho1 rho1'' + Tr rho2 rho2''),
the no-measurement form of the average fidelity.  Their pipeline builds no
density: for a pure state each trace is a quadratic form in its four
eigen-components, with the factors of :func:`dephase` as coefficients (see
``_mixed_fidelity``); ``dephase`` stays the matrix route, which the mixed
states and the tests use.  The quadrature oracle does not call it: it
propagates the state node by node with ``evolution_closed_form``.  The
do-nothing closed form ``f_n_mix`` is correct and cross-checked against
that pipeline on every call.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# f1 and f2 import control when they run, so verify and n-mix jobs do not load it
from .evolution import (
    IsingParams,
    PhysicalFields,
    evolution_closed_form,
    params_from_bj,
    require,
    spectrum,
)
from .linalg import STACK_CELLS, dag, projector
from .states import check_angle, initial_pair, witness_value

MODEL_VALIDITY_RATIO = 3.0
FNMIX_CROSSCHECK_TOL = 1e-9


class FormulaDeviationWarning(UserWarning):
    """A printed closed form disagreed with the numerical pipeline."""


@dataclass(frozen=True)
class GaussianTime:
    """Normal duration model: mean t0 > 0, spread s >= 0.

    The checks also take arrays (a stack of spreads, say), entry by entry;
    ``ratio`` and ``is_model_valid`` need floats.
    """

    t0: float
    s: float

    def __post_init__(self):
        require(self.t0 > 0, "mean duration must be positive, got {}", self.t0)
        require(self.s >= 0, "spread must be >= 0, got {}", self.s)

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
    """Mixed state after a Gaussian-duration distortion (rescaled time units).

    Stacked params and the mean and spread of ``g`` broadcast against each
    other and the stack of rho; the result is the (..., 4, 4) stack of the
    mixed states, each equal to its point-by-point call bit for bit.
    """
    t0, s = (np.asarray(v)[..., None, None] for v in np.broadcast_arrays(g.t0, g.s))
    return dephase(rho, spectrum(p), t0, s)


@functools.cache
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, computed once per size and read-only.

    The rule of numpy's ``hermgauss`` without an eigensolver.  The k-th zero
    of H_n from either end starts at -+sqrt(2n+1) cos(phi), where
    phi - sin(phi) cos(phi) = pi (4k - 1) / (4n + 2) (the semicircle law),
    and Newton steps on the orthonormal recurrence
    h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1}, with
    h_n' = sqrt(2n) h_{n-1}, refine it.  The weights are 1/h_{n-1}^2; as
    in ``hermgauss``, nodes and weights are symmetrized and the weights
    scaled to sum to sqrt(pi).
    """
    area = math.pi * (4 * np.arange(1, nodes + 1) - 1) / (4 * nodes + 2)
    half = np.minimum(area, math.pi - area)     # the upper zeros mirror the lower ones
    phi = np.cbrt(1.5 * half)                   # phi - sin(phi) cos(phi) ~ 2 phi^3 / 3
    for _ in range(3):
        phi -= (phi - np.sin(phi) * np.cos(phi) - half) / (2.0 * np.sin(phi) ** 2)
    x = np.copysign(math.sqrt(2 * nodes + 1) * np.cos(phi), area - math.pi / 2)

    def recurrence(x):
        """h_{n-1}(x) and h_n(x), from h_0 = pi^(-1/4)."""
        below, h = np.zeros_like(x), np.full_like(x, math.pi ** -0.25)
        for k in range(nodes):
            below, h = h, math.sqrt(2 / (k + 1)) * x * h - math.sqrt(k / (k + 1)) * below
        return below, h

    step = math.inf
    while step > 1e-10:                         # quadratic: the next step would be < 1e-20
        below, h = recurrence(x)
        dx = h / (math.sqrt(2 * nodes) * below)
        x = x - dx
        step = np.abs(dx).max()
    below = recurrence(x)[0]
    below /= np.abs(below).max()
    w = 1.0 / (below * below)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= math.sqrt(math.pi) / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadrature_oracle(rho: np.ndarray, p: IsingParams, g: GaussianTime,
                      nodes: int = 64) -> np.ndarray:
    """Gauss-Hermite evaluation of the Gaussian average; checks :func:`dephase`.

    Substituting t = t0 + sqrt(2) s x turns the integral into
    (1/sqrt(pi)) sum_i w_i U(t_i) rho U(t_i)^dag, with the nodes x_i and
    weights w_i of :func:`_hermite_rule` and the node propagators built as
    one stack by :func:`evolution_closed_form`.  The s = 0 model is the
    delta distribution and is evaluated directly.

    rho (..., 4, 4), stacked params and the mean and spread of ``g`` may be
    arrays that broadcast against each other; the result is the (..., 4, 4)
    stack of their averages.  The sharp entries take one call of the
    propagator; the others take one call per block of entries whose node
    propagators fill STACK_CELLS matrices, which bounds the memory of any
    stack.  Each entry equals its point-by-point call bit for bit.
    """
    if nodes < 16:
        raise ValueError(f"need at least 16 quadrature nodes, got {nodes}")
    rho = np.asarray(rho, dtype=complex)
    columns = np.broadcast_arrays(p.b_plus, p.b_minus, p.j, p.scale, g.t0, g.s)
    shape = np.broadcast_shapes(columns[0].shape, rho.shape[:-2])
    *models, t0, s = (np.broadcast_to(v, shape).ravel() for v in columns)
    rho = np.broadcast_to(rho, shape + (4, 4)).reshape(-1, 4, 4)
    out = np.empty_like(rho)
    sharp = s == 0.0
    if sharp.any():
        u = evolution_closed_form(IsingParams(*(v[sharp] for v in models)), t0[sharp])
        out[sharp] = u @ rho[sharp] @ dag(u)
    x, w = _hermite_rule(nodes)
    spread = np.flatnonzero(~sharp)
    step = max(1, STACK_CELLS // nodes)         # entries per block
    for start in range(0, spread.size, step):
        index = spread[start:start + step]
        q = IsingParams(*(v[index, None] for v in models))
        u = evolution_closed_form(q, t0[index, None] + math.sqrt(2.0) * s[index, None] * x)
        mixed = u @ rho[index, None] @ dag(u)
        out[index] = (w[:, None, None] * mixed).sum(axis=-3) / math.sqrt(math.pi)
    return out.reshape(shape + (4, 4))


def witness_table(theta, p: IsingParams, g: GaussianTime) -> dict:
    """Closed-form witness expectations for both Gaussian-mixed preparations.

    Returns {(state, i, j): value} with state in {1, 2} and (i, j) the Bell
    indices of the witness.  With E+ = exp(-2 b+^2 s^2) cos(2 b+ t0) and
    E1 = exp(-2 s^2) cos(2 t0):

        state 1:  W00 -> -E+,  W10 -> +E+,  W01 = W11 -> 1
        state 2:  W00 -> 1 - cos^2(th) (1 - E+)
                  W10 -> 1 - cos^2(th) (1 + E+)
                  W01 -> 1 - sin^2(th) ((1 + 4j^2) + (1 - 4j^2) E1)
                  W11 -> 1 - (1 - 4j^2) sin^2(th) (1 - E1)

    Every argument may be an array of cells; each entry has the shape of
    those it depends on.  Squares are ``np.square``, so floats round as
    arrays do and a huge b+ s damps to 0, its overflow unreported.  Raises
    if any theta is out of range.
    """
    check_angle(theta)
    with np.errstate(over="ignore"):
        ep = np.exp(-2.0 * np.square(p.b_plus * g.s)) * np.cos(2.0 * p.b_plus * g.t0)
        e1 = np.exp(-2.0 * np.square(g.s)) * np.cos(2.0 * g.t0)
    c2 = np.square(np.cos(theta))
    s2 = np.square(np.sin(theta))
    jj4 = 4.0 * np.square(p.j)
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


def witness_table_numeric(theta, p: IsingParams, g: GaussianTime) -> dict:
    """Same table computed through the mixing pipeline (oracle side).

    Stacked params and the mean and spread of ``g`` broadcast against each
    other: every entry is then an array of their shape, from one stacked
    :func:`gaussian_mixed_state` per preparation, and equals its
    point-by-point call bit for bit.
    """
    mixed = {state: gaussian_mixed_state(projector(beta), p, g)
             for state, beta in enumerate(initial_pair(theta), start=1)}
    return {(state, i, j): witness_value(rho, i, j)
            for state, rho in mixed.items() for i in (0, 1) for j in (0, 1)}


def _mixed_fidelity(theta, model: IsingParams | PhysicalFields, t0, s,
                    u: np.ndarray | None = None):
    """No-measurement average fidelity (Tr rho1 rho1'' + Tr rho2 rho2'')/2 of
    the pair at theta, dephased in the model's eigenbasis and then corrected
    by u; every input may be an array of cells (u a stack (..., 4, 4)).

    No density is built.  With V the model's real eigenvectors, a = V^T beta
    and c = V^T u^dag beta, the trace for rho = |beta><beta| is the
    quadratic form in the four eigen-components

        Tr(rho u D(rho) u^dag) = sum_kl f_kl z_k conj(z_l),  z_k = conj(c_k) a_k,

    with f_kl = exp(-i w_kl t0 - w_kl^2 s^2 / 2) the factors of
    :func:`dephase`.  As f_kk = 1 and f_lk = conj(f_kl), it is summed as
    sum_k |z_k|^2 plus twice the real parts of the six pairs k < l.  Each
    step is entry by entry, so a stack equals its point-by-point calls bit
    for bit.
    """
    energies, vectors = spectrum(model)
    rotation = vectors if u is None else np.conj(u) @ vectors     # c = beta @ rotation
    total = 0.0
    for beta in initial_pair(theta):
        total = total + _pure_term(beta.real, energies, vectors, rotation, t0, s)
    return 0.5 * total


def _pure_term(beta, energies, vectors, rotation, t0, s):
    """Tr(rho u D(rho) u^dag) for real states beta (..., 4) by the form of
    :func:`_mixed_fidelity`; the other inputs broadcast against the states'
    stack, the energies (..., 4) and the vectors and rotation (..., 4, 4)."""
    # beta @ r summed in a fixed order, so that a stack rounds as its points do
    a, c = (sum(beta[..., m, None] * r[..., m, :] for m in range(4))
            for r in (vectors, rotation))
    z = np.conj(c) * a
    x, y = z.real, z.imag
    total = np.sum(x * x + y * y, axis=-1)
    with np.errstate(over="ignore"):        # a huge w s damps to exp(-inf) = 0
        for k, l in itertools.combinations(range(4), 2):
            w = energies[..., k] - energies[..., l]
            re = x[..., k] * x[..., l] + y[..., k] * y[..., l]
            im = y[..., k] * x[..., l] - x[..., k] * y[..., l]
            phased = np.cos(w * t0) * re + np.sin(w * t0) * im
            total = total + 2.0 * np.exp(-0.5 * np.square(w * s)) * phased
    return total


def f_n_mix_pipeline(theta, b_plus, j, t0, s):
    g = GaussianTime(t0, s)
    return _mixed_fidelity(theta, params_from_bj(b_plus, j), g.t0, g.s)


def f_n_mix(theta, b_plus, j, t0, s):
    """Do-nothing fidelity for the Gaussian-mixed pair, closed form:

        F = 1/4 [ (1 + e^{-2 b+^2 s^2} cos 2 b+ t0)(1 + cos^4 th)
                  + G_N cos^2 th sin^2 th
                  + ((1 + 4j^2) + (1 - 4j^2) e^{-2 s^2} cos 2 t0) sin^4 th ]

    with G_N summing (1 -+ 2j) e^{-(1 +- b+ +- 2j)^2 s^2 / 2}
    cos((1 +- b+ +- 2j) t0) over the four sign choices (upper sign of the
    prefactor pairing with +2j in the frequency).  Cross-checked against
    the mixing pipeline on every call; where they disagree by more than
    FNMIX_CROSSCHECK_TOL the pipeline value is returned, with one
    FormulaDeviationWarning per such cell.  Every argument may be stacked.
    """
    closed = f_n_mix_closed(theta, b_plus, j, t0, s)
    pipeline = f_n_mix_pipeline(theta, b_plus, j, t0, s)
    deviation = np.abs(closed - pipeline)
    for dev in np.atleast_1d(deviation)[np.atleast_1d(deviation > FNMIX_CROSSCHECK_TOL)]:
        warnings.warn(
            f"do-nothing closed form deviates from pipeline by {dev:.3e}; "
            "returning the pipeline value", FormulaDeviationWarning, stacklevel=2)
    return np.where(deviation > FNMIX_CROSSCHECK_TOL, pipeline, closed)[()]


def f_n_mix_closed(theta, b_plus, j, t0, s):
    """The closed form of :func:`f_n_mix`, unchecked, for floats or arrays.
    Squares are products or ``np.square``, never ``**``: a huge w s then
    gives exp(-inf) = 0, its overflow unreported, where a Python float's
    ``** 2`` would raise OverflowError, and floats round as arrays do."""
    c2 = np.square(np.cos(theta))
    s2t = np.square(np.sin(theta))
    jj4 = 4.0 * j * j
    bs = b_plus * s

    def damped_cos(w):
        ws = w * s
        return np.exp(-0.5 * (ws * ws)) * np.cos(w * t0)

    with np.errstate(over="ignore"):
        g_n = ((1.0 - 2.0 * j) * (damped_cos(1.0 + b_plus + 2.0 * j)
                                  + damped_cos(1.0 - b_plus + 2.0 * j))
               + (1.0 + 2.0 * j) * (damped_cos(1.0 + b_plus - 2.0 * j)
                                    + damped_cos(1.0 - b_plus - 2.0 * j)))
        return 0.25 * (
            (1.0 + np.exp(-2.0 * (bs * bs)) * np.cos(2.0 * b_plus * t0)) * (1.0 + c2 * c2)
            + g_n * c2 * s2t
            + ((1.0 + jj4) + (1.0 - jj4) * np.exp(-2.0 * s * s) * np.cos(2.0 * t0)) * s2t * s2t
        )


def f1(theta, p: IsingParams, t0, s, n, m):
    """Quasi-loop repreparation fidelity on the mixed pair (pipeline).

    The correction field and duration come from the plan at t = t0; the
    mixing itself runs over the uncertain duration; every argument may be stacked.
    """
    from .control import plan_situation1

    u = plan_situation1(t0, p, n, m).correction()
    g = GaussianTime(t0, s)
    return _mixed_fidelity(theta, p, g.t0, g.s, u)


def f2(theta, fields: PhysicalFields, t0, s, duration, n, m):
    """Local-field repreparation fidelity on the mixed pair (pipeline).

    Mixing and planning both use physical units here; the plan is solved at
    t = t0 and applied to the Gaussian-mixed states; every argument may be stacked.
    """
    from .control import plan_situation2

    u = plan_situation2(t0, fields, duration, n, m).correction()
    g = GaussianTime(t0, s)
    return _mixed_fidelity(theta, fields, g.t0, g.s, u)


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
