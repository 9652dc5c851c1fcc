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

Each plan keeps the model and distortion time it was built for:
``correction()`` is the planned propagator and ``composite()`` the
distortion followed by it, a stack (..., 4, 4) for a stack of plans.

The arctan phases phi, phi' entering the planner are multivalued; they are
tracked as the continuous extension from phi(0) = 0 (see
:func:`unwrap_arctan`), which is what makes the planning formulas usable
over many periods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import (
    IsingParams,
    PhysicalFields,
    evolution_closed_form,
    normalize_fields,
    require,
)


def fidelity_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for unit state vectors; global-phase invariant."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    for name, v in (("a", a), ("b", b)):
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"state {name} norm {n:.12f} is not 1")
    return float(abs(np.vdot(a, b)) ** 2)


def unwrap_arctan(k, x):
    """Continuous extension of arctan(k tan x) with value 0 at x = 0.

    The principal arctan jumps by -sign(k) pi at every odd multiple of
    pi/2; adding sign(k) pi per half period restores continuity:

        phi(x) = sign(k) pi round(x/pi) + arctan(k tan(x - pi round(x/pi)))

    with halves rounded to even, as Python's ``round`` does.  For k = 0 the
    function is identically zero.  k and x may be arrays that broadcast
    against each other; a non-finite x gives nan.
    """
    n = np.round(x / math.pi)
    rem = x - n * math.pi
    return np.where(k == 0, 0.0, np.copysign(math.pi, k) * n + np.arctan(k * np.tan(rem)))[()]


def situation2_phases(b_minus, j, r, t) -> tuple:
    """The unwrapped situation-2 phases (phi, phi') at scale R and time t:

        phi  = unwrapped arctan( (B- - 2J)/R tan R t )
        phi' = unwrapped arctan( (B- + 2J)/R tan R t )

    for floats or arrays that broadcast against each other.
    """
    rt = r * t
    return (unwrap_arctan((b_minus - 2.0 * j) / r, rt),
            unwrap_arctan((b_minus + 2.0 * j) / r, rt))


@dataclass(frozen=True)
class Situation1Plan:
    """Extra-homogeneous-field schedule closing a quasi evolution loop.

    ``delta`` is the rational-approximation residual j - s_num/(2n); the
    loop is exact iff delta = 0.  The plan remembers the distortion time
    and parameters it was built for, so that it can compose the distortion
    with its correction.
    """

    n: int
    m: int
    s_num: int
    duration: float
    delta_b_plus: float
    delta: float
    t: float
    params: IsingParams

    def correction(self) -> np.ndarray:
        """Propagator of the planned correction: the field raised by
        delta_b+ for the duration T; (..., 4, 4) for a stack of plans."""
        corrected = replace(self.params, b_plus=self.params.b_plus + self.delta_b_plus)
        return evolution_closed_form(corrected, self.duration)

    def composite(self) -> np.ndarray:
        """Full propagator of the distortion followed by the correction."""
        return self.correction() @ evolution_closed_form(self.params, self.t)


def plan_situation1(t, p: IsingParams, n, m) -> Situation1Plan:
    """Choose (T, delta_b+) so that U_{b+ + db+}(T) U_{b+}(t) closes a loop.

        T        = n pi - t                   (must be positive)
        delta_b+ = pi (2m - n (b+ - 2j + 1)) / T
        s_num    = round(2 n j)  ->  Q(j) = s_num / (2n), delta = j - Q(j)

    Ties in the rounding go half away from zero, keeping |delta| <= 1/(4n).
    Raises unless T > 0 and n != 0.  Every input may be an array of cells.
    """
    duration = n * math.pi - t
    require(np.logical_not(duration <= 0.0),
            "no time left for the loop: n pi = {:.6f} <= t = {:.6f}", n * math.pi, t)
    require(n != 0, "loop index n must be nonzero, got {:.0f}", n + 0.0)
    x = 2 * n * p.j
    s_num = np.copysign(np.floor(np.abs(x) + 0.5), x)    # half away from zero
    delta = p.j - s_num / (2 * n)
    delta_b_plus = math.pi * (2 * m - n * (p.b_plus - 2 * p.j + 1.0)) / duration
    return Situation1Plan(
        n=n, m=m, s_num=s_num, duration=duration,
        delta_b_plus=delta_b_plus, delta=delta, t=t, params=p,
    )


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

    def correction(self) -> np.ndarray:
        """Propagator of the planned local fields over the duration T;
        (..., 4, 4) for a stack of plans."""
        return local_propagator(self.b_plus_prime, self.b_minus_prime, self.duration)

    def composite(self) -> np.ndarray:
        """Distortion under the full interaction, then the planned local fields."""
        return self.correction() @ evolution_closed_form(normalize_fields(self.fields),
                                                         self.fields.scale * self.t)


def plan_situation2(t, fields: PhysicalFields, duration, n, m) -> Situation2Plan:
    """Solve the local-field products for the separated-particle correction.

        phi, phi' = situation2_phases(B-, J, R, t)
        r    = sqrt(1 - (4 J B- / R^2) sin^2 R t)
        r'   = sqrt(1 + (4 J B- / R^2) sin^2 R t)
        B+' T = n pi - B+ t
        B-' T = (m + n) pi - (phi + phi')/2

    Only the products B+'T, B-'T are physical; the duration is a free
    choice, so it is taken as input and the fields are derived from it.
    Raises unless T > 0 and J > 0, if the phase R t overflows, or if a
    derived field is not finite (a product that overflows, or a duration so
    short that the quotient does).  Every input may be an array of cells.
    """
    require(np.logical_not(duration <= 0.0), "correction duration must be positive, got {}",
            duration)
    require(np.logical_not(fields.j <= 0.0),
            "situation-2 planning needs a nonzero coupling during distortion")
    r_scale = fields.scale
    rt = r_scale * t
    require(np.isfinite(rt), "distortion phase R t = {} is not finite", rt)
    phi, phi_prime = situation2_phases(fields.b_minus, fields.j, r_scale, t)
    ratio = 4.0 * fields.j * fields.b_minus / np.square(r_scale)
    sin2 = np.square(np.sin(rt))
    r = np.sqrt(np.maximum(0.0, 1.0 - ratio * sin2))
    r_prime = np.sqrt(1.0 + ratio * sin2)
    f_value = phi - phi_prime - 4.0 * fields.j * t
    middle_phase = -(m * math.pi + (phi - phi_prime + 4.0 * fields.j * t) / 2.0)
    with np.errstate(all="ignore"):     # an overflow is reported just below
        b_plus_prime = (n * math.pi - fields.b_plus * t) / duration
        b_minus_prime = ((m + n) * math.pi - (phi + phi_prime) / 2.0) / duration
    require(np.isfinite(b_plus_prime) & np.isfinite(b_minus_prime),
            "correcting fields are not finite: B_plus_prime = {}, B_minus_prime = {} "
            "for T = {}", b_plus_prime, b_minus_prime, duration)
    return Situation2Plan(
        b_plus_prime=b_plus_prime,
        b_minus_prime=b_minus_prime,
        duration=duration,
        r=r, r_prime=r_prime,
        delta_phase=-(m * math.pi + f_value / 2.0),
        phi=phi, phi_prime=phi_prime,
        f_value=f_value, middle_phase=middle_phase,
        m=m, n=n, t=t, fields=fields,
    )


def local_propagator(b_plus_prime, b_minus_prime, duration) -> np.ndarray:
    """Propagator of two uncoupled qubits under local z-fields (diagonal);
    arrays of cells give the stack (..., 4, 4)."""
    phases = np.stack(np.broadcast_arrays(-b_plus_prime, -b_minus_prime, b_minus_prime,
                                          b_plus_prime), axis=-1)
    diagonal = np.exp(1j * (phases * np.asarray(duration)[..., None]))
    u = np.zeros(diagonal.shape + (4,), dtype=complex)
    u[..., range(4), range(4)] = diagonal
    return u
