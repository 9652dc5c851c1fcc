"""Output checks for the benchmark jobs, computed apart from the program.

Every reference value here is rebuilt from the model itself: the
Hamiltonian H = -J s1.s2 + B1 s1z + B2 s2z from Pauli matrices, propagators
from ``scipy.linalg.expm``, and Gaussian time averages by Gauss-Hermite
quadrature.  The only program code used is the repreparation planner, whose
correction parameters (field shift, duration, local fields) the mixed-state
checks take as given.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import roots_hermite

CSV_HEADER = "axis1,axis2,value"
AXIS_RTOL = 1e-11
PURE_TOL = 1e-9
MIXED_TOL = 1e-8
DR2_SLACK = 1e-6
QUADRATURE_NODES = 120
RANDOM_BASES = 256
VERIFY_SUITES = 5

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SS = np.kron(_X, _X) + np.kron(_Y, _Y) + np.kron(_Z, _Z)
_Z1 = np.kron(_Z, _I2)
_Z2 = np.kron(_I2, _Z)


# --------------------------------------------------------------------------
# The model, rebuilt


def hamiltonian(b1: float, b2: float, j: float) -> np.ndarray:
    """-J s1.s2 + B1 s1z + B2 s2z in the computational basis."""
    return -j * _SS + b1 * _Z1 + b2 * _Z2


def hamiltonian_bj(b_plus: float, j: float) -> np.ndarray:
    """The model in rescaled units: b- = sqrt(1 - 4 j^2), so R = 1."""
    b_minus = math.sqrt(max(0.0, 1.0 - 4.0 * j * j))
    return hamiltonian((b_plus + b_minus) / 2.0, (b_plus - b_minus) / 2.0, j)


def propagators(h: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) for every t, shape times.shape + (4, 4)."""
    times = np.asarray(times, dtype=float)
    return expm(-1j * h[None, :, :] * times.reshape(-1)[:, None, None]).reshape(
        times.shape + (4, 4))


def initial_pair(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """beta1 (shape (4,)) and beta2 for each mixing angle (shape (n, 4))."""
    r = 1.0 / math.sqrt(2.0)
    beta1 = np.array([r, 0, 0, r], dtype=complex)
    th = np.asarray(thetas, dtype=float)[:, None]
    bell01 = np.array([0, r, r, 0], dtype=complex)
    bell10 = np.array([r, 0, 0, -r], dtype=complex)
    return beta1, np.sin(th) * bell01 - np.cos(th) * bell10


def _qubit_basis(polar_half: np.ndarray, phase: np.ndarray):
    c, s = np.cos(polar_half), np.sin(polar_half)
    e = np.exp(1j * phase)
    return np.stack([c, e * s], -1), np.stack([s, -e * c], -1)


def group_probabilities(d1, e1, d2, e2, psi1, psi2):
    """P_H1, P_H2 of the product measurement {d_i, e_i} on the two states.

    Outcomes d1 d2 and e1 e2 vote for the first preparation, d1 e2 and
    e1 d2 for the second.  All arguments broadcast over leading axes.
    """
    def amp(u, v, psi):
        return np.einsum("...a,...b,...ab->...", u.conj(), v.conj(),
                         psi.reshape(psi.shape[:-1] + (2, 2)))

    p1 = abs(amp(d1, d2, psi1)) ** 2 + abs(amp(e1, e2, psi1)) ** 2
    p2 = abs(amp(d1, e2, psi2)) ** 2 + abs(amp(e1, d2, psi2)) ** 2
    return p1, p2


def pure_distorted(thetas, b_plus_values, j, t):
    """Distorted pair on the (theta, b+) grid: psi1 (nb, 4), psi2 (nt, nb, 4)."""
    u = np.stack([propagators(hamiltonian_bj(bp, j), np.array([t]))[0]
                  for bp in b_plus_values])
    beta1, beta2 = initial_pair(thetas)
    psi1 = u @ beta1
    psi2 = np.einsum("bij,tj->tbi", u, beta2)
    return beta1, beta2, psi1, psi2


def f_so_grid(thetas, b_plus_values, j, t) -> np.ndarray:
    """Suboptimal envelope max(F_DR1, F_AB), scored from the measurement.

    F_DR1 measures in the computational basis and F_AB in the zero-field
    optimal basis with half-angle (pi - 2 theta)/4 on both qubits; both
    reprepare the original states, so the fidelity is (P_H1 + P_H2)/2.
    """
    thetas = np.asarray(thetas, dtype=float)
    _, _, psi1, psi2 = pure_distorted(thetas, b_plus_values, j, t)
    psi1 = np.broadcast_to(psi1, psi2.shape)
    zero = np.zeros((len(thetas), 1))
    comp = _qubit_basis(zero, zero)
    half = ((math.pi - 2.0 * thetas) / 4.0)[:, None]
    tab = _qubit_basis(half, np.zeros_like(half))
    fid = []
    for d, e in (comp, tab):
        p1, p2 = group_probabilities(d, e, d, e, psi1, psi2)
        fid.append(0.5 * (p1 + p2))
    return np.maximum(fid[0], fid[1])


def fdr2_random_bound(theta, b_plus, j, t, mode, rng, count=RANDOM_BASES) -> float:
    """Best fidelity over ``count`` Haar-random product bases (one cell)."""
    beta1, beta2, psi1, psi2 = pure_distorted(np.array([theta]), [b_plus], j, t)
    psi1, psi2, b2 = psi1[0], psi2[0, 0], beta2[0]
    polar = np.arccos(1.0 - 2.0 * rng.uniform(size=(count, 2))) / 2.0
    phase = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
    d1, e1 = _qubit_basis(polar[:, 0], phase[:, 0])
    d2, e2 = _qubit_basis(polar[:, 1], phase[:, 1])
    p1, p2 = group_probabilities(d1, e1, d2, e2, psi1, psi2)
    if mode == "reprepare-originals":
        fid = 0.5 * (p1 + p2)
    elif mode == "as-printed":
        def ov(a, b):
            return abs(np.vdot(a, b)) ** 2
        fid = (0.5 * (p1 * ov(beta1, psi1) + (1.0 - p1) * ov(beta1, psi2))
               + 0.5 * (p2 * ov(b2, psi2) + (1.0 - p2) * ov(b2, psi1)))
    else:
        raise ValueError(f"unknown objective mode {mode!r}")
    return float(fid.max())


def gaussian_propagators(h: np.ndarray, t0: float, s_values: np.ndarray):
    """Propagators at the quadrature times of every spread, with weights.

    Returns (u, w): u has shape (ns, nodes, 4, 4) and the weights w sum to
    one for each spread; s = 0 is the sharp duration t0.
    """
    x, w = roots_hermite(QUADRATURE_NODES)
    times = t0 + math.sqrt(2.0) * np.outer(s_values, x)
    return propagators(h, times), w / math.sqrt(math.pi)


def mixed_fidelity_grid(thetas, s_values, b_plus, j, t0, correction=None) -> np.ndarray:
    """1/2 sum_k <beta_k| C rho_k(s) C^dag |beta_k> on the (theta, s) grid.

    rho_k(s) is beta_k averaged over the duration t ~ N(t0, s^2) under the
    model Hamiltonian; C is the correcting unitary (identity when None).
    """
    u, w = gaussian_propagators(hamiltonian_bj(b_plus, j), t0, np.asarray(s_values))
    if correction is not None:
        u = correction @ u
    beta1, beta2 = initial_pair(thetas)
    a1 = np.einsum("i,snij,j->sn", beta1.conj(), u, beta1)
    a2 = np.einsum("ti,snij,tj->tsn", beta2.conj(), u, beta2)
    f1 = (abs(a1) ** 2) @ w
    f2 = (abs(a2) ** 2) @ w
    return 0.5 * (f1[None, :] + f2)


# --------------------------------------------------------------------------
# Output checks


def parse_csv(text: str):
    """(header, rows as float tuples, '#' comment lines) of a CSV document."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0] if lines else ""
    rows, comments = [], []
    for line in lines[1:]:
        if line.startswith("#"):
            comments.append(line)
        else:
            rows.append(tuple(float(v) for v in line.split(",")))
    return header, rows, comments


def check_csv_grid(text: str, axis1: np.ndarray, axis2: np.ndarray):
    """Header, row count, axis values in row-major order, finite values.

    Returns (problems, values) with values the (len(axis1), len(axis2)) grid.
    """
    try:
        header, rows, _ = parse_csv(text)
    except ValueError as exc:
        return [f"unparsable CSV: {exc}"], None
    problems = []
    if header != CSV_HEADER:
        problems.append(f"header {header!r} != {CSV_HEADER!r}")
    n1, n2 = len(axis1), len(axis2)
    if len(rows) != n1 * n2:
        return problems + [f"{len(rows)} rows, expected {n1 * n2}"], None
    if any(len(r) != 3 for r in rows):
        return problems + ["a row does not have 3 fields"], None
    grid = np.array(rows)
    exp1 = np.repeat(axis1, n2)
    exp2 = np.tile(axis2, n1)
    for col, exp, name in ((0, exp1, "axis1"), (1, exp2, "axis2")):
        bad = ~np.isclose(grid[:, col], exp, rtol=AXIS_RTOL, atol=AXIS_RTOL)
        if bad.any():
            k = int(np.argmax(bad))
            problems.append(f"row {k + 1}: {name} {grid[k, col]!r} != {exp[k]!r} "
                            "(axis values or row-major order)")
    values = grid[:, 2].reshape(n1, n2)
    if not np.isfinite(values).all():
        problems.append("non-finite cell values")
    return problems, values


def _compare(values, reference, tol, what):
    dev = np.abs(values - reference)
    if not (dev <= tol).all():
        k = np.unravel_index(int(np.argmax(dev)), dev.shape)
        return [f"{what}: cell {k} reads {values[k]!r}, reference {reference[k]!r}"]
    return []


def check_figure3(values, thetas, b_plus_values, j, t):
    """Every cell against the rebuilt F_SO, and F_SO >= (1 + sin^2 theta)/2."""
    problems = _compare(values, f_so_grid(thetas, b_plus_values, j, t), PURE_TOL, "F_SO")
    floor = (0.5 * (1.0 + np.sin(thetas) ** 2))[:, None]
    if (values < floor - PURE_TOL).any():
        problems.append("F_SO below (1 + sin^2 theta)/2")
    return problems


def check_figure5(values, thetas, s_values, b_plus, j, t0, correction=None):
    """Every cell against the quadrature-averaged fidelity."""
    ref = mixed_fidelity_grid(thetas, s_values, b_plus, j, t0, correction)
    return _compare(values, ref, MIXED_TOL, "mixed fidelity")


def check_figure4(text, thetas, b_plus_values, j, t, rng):
    """Cells in [0, 1], above F_SO and above random product bases; coverage.

    The random bases are scored in the objective mode the job reports.
    """
    problems, values = check_csv_grid(text, thetas, b_plus_values)
    if values is None:
        return problems
    _, _, comments = parse_csv(text)
    meta = dict(c[1:].split(":", 1) for c in comments if ":" in c)
    mode = meta.get(" fdr2-mode", "").strip()
    if mode not in ("as-printed", "reprepare-originals"):
        return problems + [f"missing or unknown fdr2-mode line: {comments!r}"]
    if ((values < 0.0) | (values > 1.0)).any():
        problems.append("F_DR2 outside [0, 1]")
    problems += _below("F_SO", values, f_so_grid(thetas, b_plus_values, j, t))
    sampled = np.array([[fdr2_random_bound(th, bp, j, t, mode, rng) for bp in b_plus_values]
                        for th in thetas])
    problems += _below("random product bases", values, sampled)
    try:
        coverage = float(meta[" coverage-above-0.8"])
    except (KeyError, ValueError):
        return problems + ["missing coverage-above-0.8 line"]
    share = float((values > 0.8).mean())
    if abs(coverage - share) > 5e-7:
        problems.append(f"coverage line {coverage} != share above 0.8 {share}")
    return problems


def _below(what, values, floor):
    gap = floor - values
    if (gap > DR2_SLACK).any():
        k = np.unravel_index(int(np.argmax(gap)), gap.shape)
        return [f"F_DR2 cell {k} = {values[k]!r} is below {what} {floor[k]!r}"]
    return []


def check_verify_lines(lines):
    """Five PASS suite lines and the closing summary."""
    lines = [ln for ln in lines if ln.strip()]
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    problems = []
    if len(passes) != VERIFY_SUITES:
        problems.append(f"{len(passes)} PASS lines, expected {VERIFY_SUITES}")
    if lines[-1:] != ["all checks passed"]:
        problems.append(f"last line {lines[-1:]!r} is not 'all checks passed'")
    return problems
