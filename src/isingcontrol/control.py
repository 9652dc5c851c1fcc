"""Repreparation protocols for the distorted pair.

Situation 1 -- the distorting field is still on.  Adding an extra
homogeneous field delta_b+ for a duration T = n pi - t closes a quasi
evolution loop: the composite propagator is diagonal and, up to a global
phase, equals diag(1, 1, 1, e^{4 i n pi delta}) where delta = j - s/(2n) is
the residual of the best rational approximation s/(2n) to j.  For rational
j with 2 n j integer the loop is exact and any input state is recovered.

Situation 2 -- the particles are separated after the distortion, so only
local fields (coupling zero) remain available.  Matching the accumulated
phases requires the products B+' T and B-' T of the correcting fields; the
middle-block amplitudes keep ratios r, r' that no local field can undo, so
the second state is recovered exactly only when sin(R t) = 0 or the field
is homogeneous (B- = 0), and its reprepared form carries a common phase on
the |01>, |10> components.

The arctan phases phi, phi' entering the planner are multivalued; they are
tracked as the continuous extension from phi(0) = 0 (see
:func:`unwrap_arctan`), which is what makes the planning formulas usable
over many periods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import (
    IsingParams,
    PhysicalFields,
    evolution_closed_form,
    normalize_fields,
)
from .linalg import dag


def fidelity_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit state vectors; global-phase invariant."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, v in (("a", a), ("b", b)):
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"state {name} norm {n:.12f} is not 1")
    return float(abs(np.vdot(a, b)) ** 2)


def unwrap_arctan(k: float, x: float) -> float:
    """Continuous extension of arctan(k tan x) with value 0 at x = 0.

    The principal arctan jumps by -sign(k) pi at every odd multiple of
    pi/2; adding sign(k) pi per half period restores continuity:

        phi(x) = sign(k) pi round(x/pi) + arctan(k tan(x - pi round(x/pi)))

    For k = 0 the function is identically zero.
    """
    if k == 0.0:
        return 0.0
    n = round(x / math.pi)
    rem = x - n * math.pi
    return math.copysign(math.pi, k) * n + math.atan(k * math.tan(rem))


def situation2_phases(b_minus: float, j: float, r: float, t: float) -> tuple[float, float]:
    """The unwrapped situation-2 phases (phi, phi') at scale R and time t:

        phi  = unwrapped arctan( (B- - 2J)/R tan R t )
        phi' = unwrapped arctan( (B- + 2J)/R tan R t )
    """
    rt = r * t
    return (unwrap_arctan((b_minus - 2.0 * j) / r, rt),
            unwrap_arctan((b_minus + 2.0 * j) / r, rt))


def _apply_unitary(u: np.ndarray, state_or_rho: np.ndarray) -> np.ndarray:
    arr = np.asarray(state_or_rho, dtype=complex)
    if arr.shape == (4,):
        return u @ arr
    if arr.shape == (4, 4):
        return u @ arr @ dag(u)
    raise ValueError(f"expected a 4-vector or 4x4 matrix, got shape {arr.shape}")


@dataclass(frozen=True)
class Situation1Plan:
    """Extra-homogeneous-field schedule closing a quasi evolution loop.

    ``delta`` is the rational-approximation residual j - s_num/(2n); the
    loop is exact iff delta = 0.  The plan remembers the distortion time
    and parameters it was built for so a mismatched application is rejected.
    """

    n: int
    m: int
    s_num: int
    duration: float
    delta_b_plus: float
    delta: float
    t: float
    params: IsingParams


def plan_situation1(t: float, p: IsingParams, n: int, m: int) -> Situation1Plan:
    """Choose (T, delta_b+) so that U_{b+ + db+}(T) U_{b+}(t) closes a loop.

        T        = n pi - t                   (must be positive)
        delta_b+ = pi (2m - n (b+ - 2j + 1)) / T
        s_num    = round(2 n j)  ->  Q(j) = s_num / (2n), delta = j - Q(j)

    Ties in the rounding go half away from zero, keeping |delta| <= 1/(4n).
    """
    duration = n * math.pi - t
    if duration <= 0.0:
        raise ValueError(
            f"no time left for the loop: n pi = {n * math.pi:.6f} <= t = {t:.6f}")
    # round half away from zero (Python round is half-to-even)
    x = 2 * n * p.j
    s_num = int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))
    delta = p.j - s_num / (2 * n)
    delta_b_plus = math.pi * (2 * m - n * (p.b_plus - 2 * p.j + 1.0)) / duration
    return Situation1Plan(
        n=n, m=m, s_num=s_num, duration=duration,
        delta_b_plus=delta_b_plus, delta=delta, t=t, params=p,
    )


def situation1_composite(plan: Situation1Plan, p: IsingParams) -> np.ndarray:
    """Full propagator of distortion followed by the planned correction."""
    if p != plan.params:
        raise ValueError("plan was built for different Ising parameters")
    corrected = IsingParams(
        b_plus=p.b_plus + plan.delta_b_plus,
        b_minus=p.b_minus, j=p.j, scale=p.scale,
    )
    return evolution_closed_form(corrected, plan.duration) @ evolution_closed_form(p, plan.t)


def apply_situation1(plan: Situation1Plan, p: IsingParams, state_or_rho: np.ndarray) -> np.ndarray:
    """Run the distortion plus planned correction on a state or density."""
    return _apply_unitary(situation1_composite(plan, p), state_or_rho)


@dataclass(frozen=True)
class Situation2Plan:
    """Local-field correction for separated particles.

    ``f_value`` = phi - phi' - 4 J t and ``delta_phase`` = -(m pi + f_value/2)
    are the planner diagnostics in their conventional form; the phase the
    pipeline actually imprints on the middle components relative to the
    outer ones is ``middle_phase`` = -(m pi + (phi - phi' + 4 J t)/2), which
    is what the predicted second-state fidelity uses.  Perfect second-state
    recovery needs r = r' = 1 together with middle_phase = 0 mod 2 pi.
    """

    b_plus_prime: float
    b_minus_prime: float
    duration: float
    r: float
    r_prime: float
    delta_phase: float
    phi: float
    phi_prime: float
    f_value: float
    middle_phase: float
    m: int
    n: int
    t: float
    fields: PhysicalFields


def plan_situation2(t: float, fields: PhysicalFields, duration: float, n: int, m: int) -> Situation2Plan:
    """Solve the local-field products for the separated-particle correction.

        phi, phi' = situation2_phases(B-, J, R, t)
        r    = sqrt(1 - (4 J B- / R^2) sin^2 R t)
        r'   = sqrt(1 + (4 J B- / R^2) sin^2 R t)
        B+' T = n pi - B+ t
        B-' T = (m + n) pi - (phi + phi')/2

    Only the products B+'T, B-'T are physical; the duration is a free
    choice, so it is taken as input and the fields are derived from it.
    """
    if duration <= 0.0:
        raise ValueError(f"correction duration must be positive, got {duration}")
    if fields.j <= 0.0:
        raise ValueError("situation-2 planning needs a nonzero coupling during distortion")
    r_scale = fields.scale
    rt = r_scale * t
    phi, phi_prime = situation2_phases(fields.b_minus, fields.j, r_scale, t)
    ratio = 4.0 * fields.j * fields.b_minus / r_scale**2
    r = math.sqrt(max(0.0, 1.0 - ratio * math.sin(rt) ** 2))
    r_prime = math.sqrt(1.0 + ratio * math.sin(rt) ** 2)
    f_value = phi - phi_prime - 4.0 * fields.j * t
    middle_phase = -(m * math.pi + (phi - phi_prime + 4.0 * fields.j * t) / 2.0)
    return Situation2Plan(
        b_plus_prime=(n * math.pi - fields.b_plus * t) / duration,
        b_minus_prime=((m + n) * math.pi - (phi + phi_prime) / 2.0) / duration,
        duration=duration,
        r=r, r_prime=r_prime,
        delta_phase=-(m * math.pi + f_value / 2.0),
        phi=phi, phi_prime=phi_prime,
        f_value=f_value, middle_phase=middle_phase,
        m=m, n=n, t=t, fields=fields,
    )


def local_propagator(b_plus_prime: float, b_minus_prime: float, duration: float) -> np.ndarray:
    """Propagator of two uncoupled qubits under local z-fields (diagonal)."""
    phases = np.array([-b_plus_prime, -b_minus_prime, b_minus_prime, b_plus_prime])
    return np.diag(np.exp(1j * phases * duration))


def situation2_composite(plan: Situation2Plan, fields: PhysicalFields, t: float) -> np.ndarray:
    """Distortion under the full interaction, then the planned local fields."""
    if fields != plan.fields or t != plan.t:
        raise ValueError("plan was built for different fields or distortion time")
    correction = local_propagator(plan.b_plus_prime, plan.b_minus_prime, plan.duration)
    return correction @ evolution_closed_form(normalize_fields(fields), fields.scale * t)


def apply_situation2(plan: Situation2Plan, fields: PhysicalFields, t: float,
                     state_or_rho: np.ndarray) -> np.ndarray:
    """Run distortion plus local correction on a state or density."""
    return _apply_unitary(situation2_composite(plan, fields, t), state_or_rho)
