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
    """Raw field strengths: local z-fields b1, b2 and Ising coupling j >= 0."""

    b1: float
    b2: float
    j: float

    def __post_init__(self):
        for name in ("b1", "b2", "j"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"field {name} must be finite")
        if self.j < 0:
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
        if not all(np.isfinite(v) for v in (self.b_plus, self.b_minus, self.j, self.scale)):
            raise ValueError("IsingParams entries must be finite")
        if not 0.0 <= self.j <= 0.5:
            raise ValueError(f"j must lie in [0, 1/2], got {self.j}")
        if abs(self.b_minus) > 1.0 + CONSTRAINT_TOL:
            raise ValueError(f"b_minus must lie in [-1, 1], got {self.b_minus}")
        viol = abs(self.b_minus**2 + 4.0 * self.j**2 - 1.0)
        if viol > CONSTRAINT_TOL:
            raise ValueError(
                f"constraint b_minus^2 + 4 j^2 = 1 violated by {viol:.3e}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def params_from_bj(b_plus: float, j: float, b_minus_sign: float = 1.0) -> IsingParams:
    """Build normalized parameters from (b+, j), fixing |b-| by the constraint."""
    if not 0.0 <= j <= 0.5:
        raise ValueError(f"j must lie in [0, 1/2], got {j}")
    b_minus = np.copysign(np.sqrt(max(0.0, 1.0 - 4.0 * j * j)), b_minus_sign)
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
    it is in units of R and generates the dynamics in rescaled time."""
    bp, bm, j = m.b_plus, m.b_minus, m.j
    return np.array([
        [bp - j, 0.0, 0.0, 0.0],
        [0.0, j + bm, -2.0 * j, 0.0],
        [0.0, -2.0 * j, j - bm, 0.0],
        [0.0, 0.0, 0.0, -(bp + j)],
    ], dtype=complex)


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
    ph = np.exp(-1j * t * p.j)
    ct, st = np.cos(t), np.sin(t)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = np.exp(-1j * t * (p.b_plus - p.j))
    u[1, 1] = ph * (ct - 1j * p.b_minus * st)
    u[1, 2] = u[2, 1] = 2j * p.j * ph * st
    u[2, 2] = ph * (ct + 1j * p.b_minus * st)
    u[3, 3] = np.exp(1j * t * (p.b_plus + p.j))
    return u


def evolution_oracle(fields: PhysicalFields, t: float) -> np.ndarray:
    """exp(-i H t) by spectral decomposition of the physical Hamiltonian.

    Independent cross-check of the closed form; also covers the degenerate
    R = 0 case, which needs no normalization.
    """
    energies, vectors = np.linalg.eigh(hamiltonian(fields))
    return (vectors * np.exp(-1j * energies * t)) @ dag(vectors)
