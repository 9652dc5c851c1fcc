"""Dense complex linear algebra helpers for the two-qubit (dim 2 and 4) spaces.

Everything operates on plain numpy arrays: state vectors are complex
``(4,)`` (or ``(2,)``) arrays, operators are complex ``(4, 4)`` or ``(2, 2)``
arrays in the computational basis ``{|00>, |01>, |10>, |11>}``; ``dag``,
``projector``, ``require_hermitian`` and ``hermitian_eigenvalues`` also take
stacks of them along leading axes.  All functions are pure; nothing here
mutates its inputs.
"""
from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
STACK_CELLS = 256           # 4x4 complex matrices per stacked block (64 KiB a block)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def projector(state: np.ndarray) -> np.ndarray:
    """|state><state| for a state vector or each vector of a (..., n) stack."""
    v = np.asarray(state, dtype=complex)
    return v[..., :, None] * v[..., None, :].conj()


def max_asymmetry(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    m = np.asarray(m, dtype=complex)
    return float(np.abs(m - dag(m)).max())


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """m as a complex array, checked to be a finite Hermitian 2x2 or 4x4
    matrix, or a (..., n, n) stack of them (the worst entry of the stack
    decides)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in (2, 4):
        raise ValueError(f"{name} must be a 2x2 or 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    asym = max_asymmetry(m)
    if asym > HERMITIAN_TOL:
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {asym:.3e} exceeds {HERMITIAN_TOL:.1e}")
    return m


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian 2x2 or 4x4 matrix, sorted descending;
    for a stack of matrices, along the last axis."""
    m = require_hermitian(m)
    return np.linalg.eigvalsh(m)[..., ::-1]


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (nuclear norm)."""
    return float(np.abs(hermitian_eigenvalues(m)).sum())


def partial_trace(rho: np.ndarray, traced: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit density matrix.

    ``traced`` is the qubit removed (1 or 2, matching the tensor order of the
    basis labels); the returned 2x2 matrix is the reduced state of the other
    qubit.  Input must be Hermitian with unit trace.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    require_hermitian(rho, name="density matrix")
    tr = rho.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr:.12f} is not 1")
    r = rho.reshape(2, 2, 2, 2)
    if traced == 2:
        return np.einsum("ijkj->ik", r)
    if traced == 1:
        return np.einsum("ijik->jk", r)
    raise ValueError(f"traced qubit must be 1 or 2, got {traced!r}")
