"""Initial state pair, Bell basis, and entanglement diagnostics.

The toolkit discriminates between two entangled preparations indexed by a
mixing angle theta in [0, pi/2]:

    beta1 = (|00> + |11>)/sqrt(2)                          (theta independent)
    beta2 = sin(theta) (|01> + |10>)/sqrt(2) - cos(theta) (|00> - |11>)/sqrt(2)

beta2 interpolates between two Bell states, stays orthogonal to beta1 and is
maximally entangled for every theta.  Equivalently it arises from a pair of
rotated local bases: with phi_i = sin(theta/2)|0> + cos(theta/2)|1> and
mu_i = cos(theta/2)|0> - sin(theta/2)|1>,

    beta2 = (|phi_1 phi_2> - |mu_1 mu_2>)/sqrt(2),

which :func:`pair_from_local_bases` implements for the consistency test.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .evolution import b_minus_magnitude, check_coupling, propagate, propagator_entries, require
from .linalg import dag, hermitian_eigenvalues, projector, trace_norm

SCHMIDT_CLAMP_TOL = 1e-9


def bell(i: int, j: int) -> np.ndarray:
    """Bell state beta_ij = (|0,j> + (-1)^i |1,1-j>)/sqrt(2)."""
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"Bell indices must be bits, got ({i}, {j})")
    v = np.zeros(4, dtype=complex)
    v[j] = 1.0
    v[2 + (1 - j)] = -1.0 if i else 1.0
    return v / math.sqrt(2.0)


def check_angle(theta) -> None:
    """Raise unless theta lies in [0, pi/2] (every entry, for an array; nan
    fails)."""
    require((0.0 <= theta) & (theta <= math.pi / 2), "theta must lie in [0, pi/2], got {}",
            theta)


def initial_pair(theta) -> tuple[np.ndarray, np.ndarray]:
    """The two candidate preparations (beta1, beta2) at mixing angle theta.
    For an array of angles beta1 stays one (4,) vector and beta2 is stacked
    (..., 4)."""
    check_angle(theta)
    beta2 = np.sin(theta)[..., None] * bell(0, 1) - np.cos(theta)[..., None] * bell(1, 0)
    return bell(0, 0), beta2


def pair_from_local_bases(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Same pair built from the rotated single-qubit bases (consistency route)."""
    check_angle(theta)
    h = theta / 2.0
    phi = np.array([math.cos(h), math.sin(h)])
    eta = np.array([math.sin(h), -math.cos(h)])
    varphi = np.array([math.sin(h), math.cos(h)])
    mu = np.array([math.cos(h), -math.sin(h)])
    beta1 = (np.kron(phi, phi) + np.kron(eta, eta)) / math.sqrt(2.0)
    beta2 = (np.kron(varphi, varphi) - np.kron(mu, mu)) / math.sqrt(2.0)
    return beta1.astype(complex), beta2.astype(complex)


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """(1/2) tr |rho_a - rho_b|, computed from the eigenvalues of the difference."""
    diff = np.asarray(rho_a, dtype=complex) - np.asarray(rho_b, dtype=complex)
    return 0.5 * trace_norm(diff)


def diagonal_trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Classical distinguishability of the computational-basis outcome
    distributions, (1/2) sum_z |P_a(z) - P_b(z)|.

    For the initial pair this equals sin^2(theta) and is preserved by the
    distortion; the full trace distance of the (orthogonal) pair is 1.
    """
    pa = np.diag(np.asarray(rho_a, dtype=complex)).real
    pb = np.diag(np.asarray(rho_b, dtype=complex)).real
    return 0.5 * float(np.abs(pa - pb).sum())


def schmidt(state: np.ndarray) -> tuple[float, float]:
    """Schmidt coefficients (descending) of a pure two-qubit state.

    These are the eigenvalues of either reduced density matrix; (1/2, 1/2)
    signals maximal entanglement, (1, 0) a product state.  A (..., 4) stack
    of states gives two arrays, from one stacked eigvalsh; a state failing
    a check anywhere in the stack raises as it would on its own.  Non-finite
    entries are rejected before the norm is taken, and a norm that
    overflows fails the norm check, so neither writes a numpy warning.
    """
    v = np.asarray(state, dtype=complex)
    if v.shape[-1:] != (4,):
        raise ValueError(f"state must be a 4-vector, got shape {v.shape}")
    require(np.isfinite(v).all(axis=-1), "state has a non-finite entry")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v, axis=-1)
    off = np.abs(norm - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"state norm {norm[off][0]:.12f} is not 1")
    m = v.reshape(*v.shape[:-1], 2, 2)
    lam1, lam2 = np.moveaxis(hermitian_eigenvalues(m @ dag(m)), -1, 0)
    return lam1, lam2


@dataclass(frozen=True)
class SchmidtResult:
    """Closed-form Schmidt coefficients of the evolved second state; arrays
    of the broadcast shape when :func:`schmidt_closed_form` gets arrays."""

    lambda1: float
    lambda2: float
    a_term: float
    b_term: float


def schmidt_closed_form(theta, j, t) -> SchmidtResult:
    """Schmidt coefficients of U(t) beta2 without building the state:

        lambda_{1,2} = (1 +- sqrt(A + B sin^2 2 theta)) / 2
        A = 16 j^2 (1 - 4 j^2) sin^4 t sin^4 theta
        B = sin^2 2jt + 4 j^2 sin^2 t cos 4jt - j sin 2t sin 4jt

    The B expression follows from |det M|^2 of the evolved amplitude matrix
    (its last factor is sin 2t, not sin 2jt; the sin 2jt variant fails the
    reduced-density oracle by O(0.1)).  Writing the middle-block factor as
    Z = (1 - 8 j^2 sin^2 t) + 2 i j sin 2t, the equivalent form

        B = (1 - |Z|)/2 + |Z| sin^2((4jt - arg Z) / 2)

    is evaluated instead: both pieces are nonnegative and vanish
    quadratically on the degenerate manifolds (j in {0, 1/2}, sin t = 0),
    so the sqrt does not amplify cancellation noise there.  The sqrt
    argument is clamped to [0, 1]; excursions beyond SCHMIDT_CLAMP_TOL
    raise, since they signal a transcription bug rather than float noise.
    The arguments may be arrays that broadcast against each other.
    """
    check_angle(theta)
    check_coupling(j)
    return _schmidt(theta, j, t)


def _schmidt(theta, j, t) -> SchmidtResult:
    """The formula of :func:`schmidt_closed_form` without the range checks
    of theta and j (a nan input gives nan fields); the clamp check stays.
    Powers are ufunc calls, so floats and arrays round alike (see
    :mod:`discrimination`)."""
    jj, sin_t = j * j, np.sin(t)
    a0 = 16.0 * jj * (1.0 - 4.0 * jj) * np.power(sin_t, 4)   # = 1 - |Z|^2
    a_term = a0 * np.power(np.sin(theta), 4)
    z_re = 1.0 - 8.0 * jj * np.square(sin_t)
    z_im = 2.0 * j * np.sin(2.0 * t)
    z_mag = np.sqrt(np.maximum(0.0, 1.0 - a0))
    mismatch = 4.0 * j * t - np.arctan2(z_im, z_re)
    b_term = 0.5 * a0 / (1.0 + z_mag) + z_mag * np.square(np.sin(0.5 * mismatch))
    arg = a_term + b_term * np.square(np.sin(2.0 * theta))
    inside = ((-SCHMIDT_CLAMP_TOL <= arg) & (arg <= 1.0 + SCHMIDT_CLAMP_TOL)) | np.isnan(arg)
    require(inside, "sqrt argument {} outside [0, 1] beyond tolerance; closed form violated", arg)
    root = np.sqrt(np.minimum(np.maximum(arg, 0.0), 1.0))
    return SchmidtResult(
        lambda1=0.5 * (1.0 + root),
        lambda2=0.5 * (1.0 - root),
        a_term=a_term,
        b_term=b_term,
    )


def witness_value(rho: np.ndarray, i: int, j: int):
    """Expectation of the witness W_ij = 1 - 2 |beta_ij><beta_ij| in rho.

    Negative values certify entanglement; positive values certify nothing.
    A float for one density, an array for a (..., 4, 4) stack of them.
    """
    val = np.trace(_witness(i, j) @ np.asarray(rho, dtype=complex), axis1=-2, axis2=-1).real
    return val if val.ndim else float(val)


@functools.cache
def _witness(i: int, j: int) -> np.ndarray:
    """The witness matrix W_ij, built once per index pair and read-only."""
    w = np.eye(4, dtype=complex) - 2.0 * projector(bell(i, j))
    w.flags.writeable = False
    return w


def evolved_pair_bj(theta, b_plus, j, t) -> tuple[tuple, tuple]:
    """((beta1, beta2), (beta1', beta2')): the pair at theta and both states
    after distortion time t (rescaled units) under the params of
    :func:`evolution.params_from_bj`, propagated by the five entries.

    Floats or arrays of cells that broadcast against each other give stacked
    (..., 4) states.  Raises if any theta or j is out of range (theta is
    checked first); a non-finite b+ or t gives nan entries.
    """
    pair = initial_pair(theta)
    check_coupling(j)
    entries = propagator_entries(b_plus, b_minus_magnitude(j), j, t)
    return pair, tuple(propagate(entries, beta) for beta in pair)
