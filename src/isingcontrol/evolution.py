"""Ising-plus-inhomogeneous-field Hamiltonian and its propagators.

The physical model couples two qubits through an isotropic Ising term and
local z-fields,

    H = -J sigma_1 . sigma_2 + B1 sigma_1z + B2 sigma_2z.

In the computational basis this is block diagonal: |00> and |11> are
eigenvectors with energies (B+ - J) and -(B+ + J), and the middle block on
{|01>, |10>} is [[J + B-, -2J], [-2J, J - B-]] with B+ = B1 + B2 and
B- = B1 - B2.

All dynamics in the library use the dimensionless couple

    b+ = B+/R,  b- = B-/R,  j = J/R,  R = sqrt(B-^2 + 4 J^2),

together with the rescaled time t' = R t, so that b-^2 + 4 j^2 = 1 holds
identically.  ``PhysicalFields`` exists only at the boundary; everything
downstream works with ``IsingParams`` and rescaled times (negative times
are allowed everywhere).

Note: b+ is deliberately not clamped to [-1, 1].  The fidelity surfaces
sweep it well beyond that range, so only the b-/j constraint is enforced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dag

CONSTRAINT_TOL = 1e-12


@dataclass(frozen=True)
class PhysicalFields:
    """Raw field strengths: local z-fields b1, b2 and Ising coupling j >= 0.

    The fields may also be arrays of one shape, a stack of models for
    :func:`hamiltonian` and :func:`evolution_oracle`.
    """

    b1: float
    b2: float
    j: float

    def __post_init__(self):
        for name in ("b1", "b2", "j"):
            if not holds(np.isfinite(getattr(self, name))):
                raise ValueError(f"field {name} must be finite")
        if not holds(self.j >= 0):
            raise ValueError(f"Ising coupling must be >= 0, got {self.j}")

    @property
    def b_plus(self) -> float:
        return self.b1 + self.b2

    @property
    def b_minus(self) -> float:
        return self.b1 - self.b2

    @property
    def scale(self) -> float:
        """Energy scale R = sqrt(B-^2 + 4 J^2); zero iff b1 = b2 and j = 0."""
        return float(np.hypot(self.b_minus, 2.0 * self.j))


@dataclass(frozen=True)
class IsingParams:
    """Dimensionless couple (b+, b-, j) with b-^2 + 4 j^2 = 1, plus the scale R.

    Times fed to :func:`evolution_closed_form` are rescaled, t' = R t.
    """

    b_plus: float
    b_minus: float
    j: float
    scale: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b_plus, self.b_minus, self.j, self.scale))):
            raise ValueError("IsingParams entries must be finite")
        check_coupling(self.j)
        if abs(self.b_minus) > 1.0 + CONSTRAINT_TOL:
            raise ValueError(f"b_minus must lie in [-1, 1], got {self.b_minus}")
        viol = abs(self.b_minus**2 + 4.0 * self.j**2 - 1.0)
        if viol > CONSTRAINT_TOL:
            raise ValueError(
                f"constraint b_minus^2 + 4 j^2 = 1 violated by {viol:.3e}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def holds(flags) -> bool:
    """Whether a predicate holds: a bool, or every entry of a boolean array."""
    return bool(flags.all() if isinstance(flags, np.ndarray) else flags)


def coupling_in_range(j):
    """Whether the rescaled coupling j lies in [0, 1/2] (False for nan);
    elementwise for arrays."""
    return (0.0 <= j) & (j <= 0.5)


def check_coupling(j) -> None:
    """Raise unless j lies in [0, 1/2] (every entry, for an array)."""
    if not holds(coupling_in_range(j)):
        raise ValueError(f"j must lie in [0, 1/2], got {j}")


def b_minus_magnitude(j):
    """|b-| = sqrt(1 - 4 j^2), fixed by the constraint (0 beyond j = 1/2);
    takes floats or arrays."""
    return np.sqrt(np.maximum(0.0, 1.0 - 4.0 * j * j))


def params_from_bj(b_plus: float, j: float, b_minus_sign: float = 1.0) -> IsingParams:
    """Build normalized parameters from (b+, j), fixing |b-| by the constraint."""
    check_coupling(j)
    b_minus = np.copysign(b_minus_magnitude(j), b_minus_sign)
    return IsingParams(b_plus=b_plus, b_minus=float(b_minus), j=j)


def normalize_fields(fields: PhysicalFields) -> IsingParams:
    """Rescale physical fields to the dimensionless couple.

    Raises for the degenerate case R = 0 (b1 = b2 with j = 0), where the
    normalization is undefined.
    """
    r = fields.scale
    if r == 0.0:
        raise ValueError(
            "degenerate scale R = 0 (equal fields and zero coupling); "
            "normalization is undefined")
    return IsingParams(
        b_plus=fields.b_plus / r,
        b_minus=fields.b_minus / r,
        j=fields.j / r,
        scale=r,
    )


def hamiltonian(m: PhysicalFields | IsingParams) -> np.ndarray:
    """4x4 Hamiltonian matrix in the computational basis; for ``IsingParams``
    it is in units of R and generates the dynamics in rescaled time.
    Stacked fields give the stack (..., 4, 4) of their Hamiltonians."""
    bp, bm, j = np.broadcast_arrays(m.b_plus, m.b_minus, m.j)
    h = np.zeros(bp.shape + (4, 4), dtype=complex)
    h[..., 0, 0] = bp - j
    h[..., 1, 1] = j + bm
    h[..., 1, 2] = h[..., 2, 1] = -2.0 * j
    h[..., 2, 2] = j - bm
    h[..., 3, 3] = -(bp + j)
    return h


def spectrum(m: PhysicalFields | IsingParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystem (energies, real orthonormal column vectors)
    of :func:`hamiltonian`.

    |00> and |11> have energies b+ - j and -(b+ + j).  The middle block is
    j I + R [[cos a, -sin a], [-sin a, -cos a]] with R = hypot(b-, 2j) (1 for
    ``IsingParams``) and a = atan2(2j, b-): energies j + R and j - R with
    the rotation columns (cos a/2, -sin a/2) and (sin a/2, cos a/2).
    """
    bp, bm, j = m.b_plus, m.b_minus, m.j
    r = math.hypot(bm, 2.0 * j)
    half = 0.5 * math.atan2(2.0 * j, bm)
    c, s = math.cos(half), math.sin(half)
    energies = np.array([bp - j, j + r, j - r, -(bp + j)])
    vectors = np.eye(4)
    vectors[1:3, 1:3] = [[c, s], [-s, c]]
    return energies, vectors


def evolution_closed_form(p: IsingParams, t: float) -> np.ndarray:
    """Closed-form propagator U(t) in rescaled time.

    Entry by entry:

        U[00,00] = e^{-i t (b+ - j)}
        U[01,01] = e^{-i t j} (cos t - i b- sin t)
        U[01,10] = U[10,01] = 2 i j e^{-i t j} sin t
        U[10,10] = e^{-i t j} (cos t + i b- sin t)
        U[11,11] = e^{ i t (b+ + j)}

    This equals exp(-i H t) exactly (no global-phase slack): the middle
    block is j*I plus a traceless part M with M^2 = (b-^2 + 4 j^2) I = I,
    so its exponential is e^{-i j t}(cos t * I - i sin t * M).
    """
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0], u[1, 1], u[1, 2], u[2, 2], u[3, 3] = propagator_entries(
        p.b_plus, p.b_minus, p.j, t)
    u[2, 1] = u[1, 2]
    return u


def propagator_entries(b_plus, b_minus, j, t) -> tuple:
    """The five distinct nonzero entries (U[00,00], U[01,01], U[01,10],
    U[10,10], U[11,11]) of :func:`evolution_closed_form`.

    Takes floats or arrays that broadcast against each other, so a whole
    grid of cells is propagated in a few numpy calls; nothing is validated.
    """
    ph = np.exp(-1j * t * j)
    ct, st = np.cos(t), np.sin(t)
    return (np.exp(-1j * t * (b_plus - j)),
            ph * (ct - 1j * b_minus * st),
            2j * j * ph * st,
            ph * (ct + 1j * b_minus * st),
            np.exp(1j * t * (b_plus + j)))


def propagate(entries: tuple, state: np.ndarray) -> np.ndarray:
    """U|state> from :func:`propagator_entries`; broadcasts over stacked
    states (..., 4) and stacked entries."""
    u00, u11, u12, u22, u33 = entries
    s0, s1, s2, s3 = np.moveaxis(np.asarray(state), -1, 0)
    return np.stack(np.broadcast_arrays(
        u00 * s0, u11 * s1 + u12 * s2, u12 * s1 + u22 * s2, u33 * s3), axis=-1)


def evolution_oracle(fields: PhysicalFields, t) -> np.ndarray:
    """exp(-i H t) by spectral decomposition of the physical Hamiltonian.

    Independent cross-check of the closed form; also covers the degenerate
    R = 0 case, which needs no normalization.  Stacked fields and an array
    of times broadcast against each other, giving a stack (..., 4, 4) from
    one stacked eigh.
    """
    energies, vectors = np.linalg.eigh(hamiltonian(fields))
    phases = np.exp(-1j * energies * np.asarray(t)[..., None])
    return (vectors * phases[..., None, :]) @ dag(vectors)
