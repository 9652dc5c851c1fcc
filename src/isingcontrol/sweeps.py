"""Parameter sweeps producing the CSV fidelity surfaces and figure presets.

A sweep evaluates one scheme over a two-axis grid with the remaining
parameters fixed, and serializes ``axis1,axis2,value`` rows in row-major
order with 12 significant digits.  Every scheme's function takes each
parameter as a float or as an array with one entry per cell, and is called
once per block of BLOCK_CELLS cells.  The range rules live only in its own
checks: a failed check raises :class:`evolution.OutOfRange`, whose mask and
message template name each failing cell, and the call runs again on the
block's other cells.  A failed or non-finite cell is ``nan`` and reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# the schemes that use stochastic and control import them when they run, so
# the pure-state presets (figure3, figure4) load neither module
from .discrimination import f_ab, f_dr1, f_n, f_so
from .evolution import (
    IsingParams,
    OutOfRange,
    PhysicalFields,
    b_minus_magnitude,
    check_coupling,
    params_from_bj,
    require,
)
from .optimize import OBJECTIVE_MODES, fdr2_value
from .states import schmidt_closed_form

FIGURE_J = 1.0 / 6.0
FIGURE_T = math.pi / 2.0
FIGURE_B_PLUS = 1.0
FIGURE5_T0 = {"a": math.pi / 2.0, "b": 3.0 * math.pi / 4.0, "c": 7.0 * math.pi / 4.0}
MAX_CELLS = 1_000_000
BLOCK_CELLS = 1_024        # cells per call of a scheme, which bounds a grid's memory


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 steps, got {self.steps}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"axis {self.name!r} bounds must be finite")
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"axis {self.name!r} span from {self.lo:g} to {self.hi:g} "
                             "overflows a float")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    scheme: str
    axis1: Axis
    axis2: Axis
    fixed: dict = field(default_factory=dict)
    mode: str = "as-printed"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; known: {', '.join(sorted(SCHEMES))}")
        if self.axis1.name == self.axis2.name:
            raise ValueError(f"axis names must differ, both are {self.axis1.name!r}")
        if self.mode not in OBJECTIVE_MODES:
            raise ValueError(f"mode must be one of {OBJECTIVE_MODES}, got {self.mode!r}")
        cells = self.axis1.steps * self.axis2.steps
        if cells > MAX_CELLS:
            raise ValueError(f"grid of {cells} cells exceeds the limit of {MAX_CELLS}")
        known = set(SCHEMES[self.scheme].params) | {"dummy"}
        for name in (self.axis1.name, self.axis2.name):
            if name not in known:
                raise ValueError(
                    f"axis {name!r} is not a parameter of scheme {self.scheme!r} "
                    f"(expected one of {sorted(known)})")
        for name in self.fixed:
            if name not in known:
                raise ValueError(
                    f"fixed parameter {name!r} is not used by scheme {self.scheme!r}")
            if name in (self.axis1.name, self.axis2.name):
                raise ValueError(f"parameter {name!r} is both an axis and fixed")
        provided = {self.axis1.name, self.axis2.name} | set(self.fixed)
        missing = [p for p in SCHEMES[self.scheme].params
                   if p not in provided and p not in SCHEMES[self.scheme].defaults]
        if missing:
            raise ValueError(
                f"scheme {self.scheme!r} is missing parameters: {', '.join(missing)}")
        indices = provided & {"n", "m"}
        if len(indices) == 1:
            raise ValueError(f"scheme {self.scheme!r} takes the indices n and m together "
                             f"or neither, got only {indices.pop()}")


def fields_from_bj(b_plus, j) -> PhysicalFields:
    """Physical fields with unit scale for (b+, j), floats or arrays; b- taken
    positive.  Raises for j outside [0, 1/2], where the scale would not be 1."""
    check_coupling(j)
    b_minus = b_minus_magnitude(j)
    return PhysicalFields(b1=(b_plus + b_minus) / 2.0, b2=(b_plus - b_minus) / 2.0, j=j)


def default_situation1_indices(t0, p: IsingParams) -> tuple:
    """Smallest n with positive loop time and m minimizing |delta_b+|, as floats."""
    n = np.maximum(1.0, np.floor(_whole(t0 / math.pi)) + 1.0)
    m = np.round(_whole(n * (p.b_plus - 2.0 * p.j + 1.0) / 2.0)) + 0.0
    return n, m


def default_situation2_indices(t0, fields: PhysicalFields) -> tuple:
    """(n, m) minimizing the magnitudes of the correcting field products."""
    from .control import situation2_phases

    phi, phi_prime = situation2_phases(fields.b_minus, fields.j, fields.scale, t0)
    n = np.round(_whole(fields.b_plus * t0 / math.pi)) + 0.0
    m = np.round(_whole(((phi + phi_prime) / 2.0) / math.pi)) - n
    return n, m


def _whole(x):
    """x, checked to be finite as Python's int() of a float checks it."""
    require(np.logical_not(np.isnan(x)), "cannot convert float NaN to integer")
    require(np.logical_not(np.isinf(x)), "cannot convert float infinity to integer")
    return x


def _as_int(params: dict, key: str):
    """The parameter ``key`` as a whole float, within 1e-9 of an integer."""
    v = params[key]
    rounded = np.round(_whole(v)) + 0.0
    require(np.logical_not(abs(v - rounded) > 1e-9),
            f"parameter {key!r} must be an integer, got {{}}", v)
    return rounded


def _eval_dr1(params, mode):
    return f_dr1(params["theta"])


def _eval_n(params, mode):
    return f_n(params["theta"], params["b_plus"], params["j"], params["t"])


def _eval_ab(params, mode):
    return f_ab(params["theta"], params["b_plus"], params["j"], params["t"])


def _eval_so(params, mode):
    return f_so(params["theta"], params["b_plus"], params["j"], params["t"])


def _eval_dr2(params, mode):
    return fdr2_value(params["theta"], params["b_plus"], params["j"], params["t"], mode)


def _eval_n_mix(params, mode):
    from .stochastic import f_n_mix

    return f_n_mix(params["theta"], params["b_plus"], params["j"],
                   params["t0"], params["s"])


def _eval_f1(params, mode):
    from .stochastic import f1

    p = params_from_bj(params["b_plus"], params["j"])
    if "n" in params and "m" in params:
        n, m = _as_int(params, "n"), _as_int(params, "m")
    else:
        n, m = default_situation1_indices(params["t0"], p)
    return f1(params["theta"], p, params["t0"], params["s"], n, m)


def _eval_f2(params, mode):
    from .stochastic import f2

    fields = fields_from_bj(params["b_plus"], params["j"])
    duration = params.get("T", 1.0)
    if "n" in params and "m" in params:
        n, m = _as_int(params, "n"), _as_int(params, "m")
    else:
        n, m = default_situation2_indices(params["t0"], fields)
    return f2(params["theta"], fields, params["t0"], params["s"], duration, n, m)


def _eval_witness(params, mode):
    from .stochastic import GaussianTime, witness_table

    p = params_from_bj(params["b_plus"], params["j"])
    g = GaussianTime(params["t0"], params["s"])
    key = [_as_int(params, k) for k in ("state", "wi", "wj")]
    value, known = math.nan, False
    for entry_key, entry in witness_table(params["theta"], p, g).items():
        hit = (key[0] == entry_key[0]) & (key[1] == entry_key[1]) & (key[2] == entry_key[2])
        value, known = np.where(hit, entry, value), known | hit
    require(known, "no witness entry for state={:.0f}, i={:.0f}, j={:.0f}", *key)
    return value


def _eval_schmidt(params, mode):
    return schmidt_closed_form(params["theta"], params["j"], params["t"]).lambda1


def _eval_f_curve(params, mode):
    from .control import situation2_phases

    # f(B- t, 2J t) with 2J = 1 and B- = ratio, so R = sqrt(ratio^2 + 1)
    ratio, t = params["ratio"], params["t"]
    j = 0.5
    phi, phi_prime = situation2_phases(ratio, j, np.hypot(ratio, 2.0 * j), t)
    return phi - phi_prime - 4.0 * j * t


def _on_stacks(fn, params: dict, mode: str) -> tuple[np.ndarray, dict]:
    """Values of every cell of ``params`` (floats shared by all cells, or
    arrays with one entry per cell) from one call of ``fn`` per block of
    BLOCK_CELLS cells, and the error text of each failed cell by cell index.

    An ``OutOfRange`` whose mask (one flag, or one per remaining cell of
    the block) marks some of them gives each marked cell the message of its
    own entry, and ``fn`` runs again on the block's rest: a cell dropped at
    a check passed every check before it, so its message is the one a lone
    call gives.  Any other exception fails every remaining cell of the block
    with its text, and a value that is not finite fails its cell as
    ``non-finite value <v>``.
    """
    size = np.broadcast_shapes(*(np.shape(v) for v in params.values()))[0]
    values = np.full(size, math.nan)
    errors = {}
    for start in range(0, size, BLOCK_CELLS):
        cells = np.arange(start, min(start + BLOCK_CELLS, size))
        while cells.size:
            stacks = {k: v[cells] if np.ndim(v) else v for k, v in params.items()}
            try:
                values[cells] = fn(stacks, mode)
                break
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                mask = exc.failed if isinstance(exc, OutOfRange) else False
                if np.shape(mask) not in ((), cells.shape) or not np.any(mask):
                    errors.update(dict.fromkeys(cells.tolist(), str(exc)))
                    break
                marked = np.flatnonzero(np.broadcast_to(mask, cells.shape))
                errors.update((k, exc.message(i if np.ndim(mask) else None))
                              for k, i in zip(cells[marked].tolist(), marked.tolist()))
                cells = np.delete(cells, marked)
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        if k not in errors:
            errors[k] = f"non-finite value {values[k]}"
            values[k] = math.nan
    return values, errors


@dataclass(frozen=True)
class SchemeDef:
    params: tuple
    defaults: dict
    fn: object                  # fn(params, mode) -> value; floats or arrays of cells


PURE = ("theta", "b_plus", "j", "t")
MIXED = ("theta", "b_plus", "j", "t0", "s")

SCHEMES = {
    "dr1": SchemeDef(("theta",), {}, _eval_dr1),
    "n": SchemeDef(PURE, {}, _eval_n),
    "ab": SchemeDef(PURE, {}, _eval_ab),
    "so": SchemeDef(PURE, {}, _eval_so),
    "dr2": SchemeDef(PURE, {}, _eval_dr2),
    "n-mix": SchemeDef(MIXED, {}, _eval_n_mix),
    "f1": SchemeDef(MIXED + ("n", "m"), {"n": None, "m": None}, _eval_f1),
    "f2": SchemeDef(MIXED + ("T", "n", "m"), {"T": 1.0, "n": None, "m": None}, _eval_f2),
    "witness": SchemeDef(MIXED + ("state", "wi", "wj"), {"state": 1, "wi": 0, "wj": 0},
                         _eval_witness),
    "schmidt": SchemeDef(("theta", "j", "t"), {}, _eval_schmidt),
    "f-curve": SchemeDef(("ratio", "t"), {}, _eval_f_curve),
}


@dataclass(frozen=True)
class SweepResult:
    csv_text: str
    values: np.ndarray          # (steps1, steps2) grid, nan for failed cells
    failures: tuple             # messages of the failed cells, in row-major order


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the scheme over the grid and serialize the CSV document."""
    scheme = SCHEMES[spec.scheme]
    base = {k: v for k, v in {**scheme.defaults, **spec.fixed}.items() if v is not None}
    a1 = spec.axis1.values()
    a2 = spec.axis2.values()
    names = (spec.axis1.name, spec.axis2.name)
    with np.errstate(all="ignore"):
        g1, g2 = (g.ravel() for g in np.meshgrid(a1, a2, indexing="ij"))
        params = {**base, names[0]: g1, names[1]: g2}
        params.pop("dummy", None)
        values, errors = _on_stacks(scheme.fn, params, spec.mode)
    failures = tuple(f"{names[0]}={g1[k]:.6g}, {names[1]}={g2[k]:.6g}: {errors[k]}"
                     for k in sorted(errors))
    return SweepResult(csv_text=_csv_text(a1, a2, values),
                       values=values.reshape(len(a1), len(a2)), failures=failures)


def _csv_text(a1: np.ndarray, a2: np.ndarray, values: np.ndarray) -> str:
    """The CSV document of a grid: each axis value and each cell is
    formatted once, to 12 significant digits, with -0 printed as 0."""
    def fmt(v: np.ndarray) -> list:
        return list(map("{:.12g}".format, (v + 0.0).tolist()))   # -0.0 + 0.0 is 0.0

    cells = iter(fmt(values))           # row-major, as the rows below
    s2 = [f",{y}," for y in fmt(a2)]
    rows = (x + y + next(cells) for x in fmt(a1) for y in s2)
    return "\n".join(["axis1,axis2,value", *rows, ""])


def figure3_spec(steps: int = 50, overrides: dict | None = None) -> SweepSpec:
    """Suboptimal-envelope surface over (theta, b+) at j = 1/6, t = pi/2.

    ``overrides`` replaces individual preset parameters (config-file layer).
    """
    fixed = {"j": FIGURE_J, "t": FIGURE_T}
    fixed.update(overrides or {})
    return SweepSpec(
        scheme="so",
        axis1=Axis("theta", 0.0, math.pi / 2.0, steps),
        axis2=Axis("b_plus", 0.0, 5.0, steps),
        fixed=fixed,
    )


def figure5_spec(which: str, scheme: str = "n-mix", theta_steps: int = 25,
                 overrides: dict | None = None) -> SweepSpec:
    """Mixed-state surface over (theta, s) for one of the three mean durations.

    The s axis runs to t0/3 in steps of t0/150 (51 samples); j = 1/6 and
    b+ = 1 are fixed, and the repreparation indices default to the
    smallest-field choice for the effective t0.  ``overrides`` replaces
    preset parameters before the indices are derived; the derived indices
    fill n and m only when it names neither, so that one alone is rejected
    as a ``surface`` rejects it.
    """
    if which not in FIGURE5_T0:
        raise ValueError(f"figure5 variant must be one of {sorted(FIGURE5_T0)}, got {which!r}")
    if scheme not in ("n-mix", "f1", "f2"):
        raise ValueError(f"figure5 scheme must be n-mix, f1 or f2, got {scheme!r}")
    fixed = {"j": FIGURE_J, "b_plus": FIGURE_B_PLUS, "t0": FIGURE5_T0[which]}
    fixed.update(overrides or {})
    t0 = fixed["t0"]
    # derived even when both are given, so that a model they cannot plan exits 2
    if scheme == "f1":
        indices = default_situation1_indices(t0, params_from_bj(fixed["b_plus"], fixed["j"]))
    elif scheme == "f2":
        indices = default_situation2_indices(t0, fields_from_bj(fixed["b_plus"], fixed["j"]))
        fixed.setdefault("T", 1.0)
    if scheme != "n-mix" and not {"n", "m"} & fixed.keys():
        fixed["n"], fixed["m"] = indices
    return SweepSpec(
        scheme=scheme,
        axis1=Axis("theta", 0.0, math.pi / 2.0, theta_steps),
        axis2=Axis("s", 0.0, t0 / 3.0, 51),
        fixed=fixed,
    )


@dataclass(frozen=True)
class Figure4Result:
    mode: str
    coverage: float
    coverage_as_printed: float
    dominance_gap: float        # max(F_SO - F_DR2) over the grid, operative mode
    sweep: SweepResult


FIG4_COVERAGE_BAND = (0.70, 0.90)
FIG4_THRESHOLD = 0.8


def figure4_run(steps: int = 25, overrides: dict | None = None) -> Figure4Result:
    """Optimized-fidelity surface over (theta, b+) with the mode fallback.

    The surface is computed with the as-printed objective first; if its
    above-0.8 coverage misses the documented band or it drops below the
    suboptimal envelope anywhere, the reprepare-originals objective becomes
    operative.  The decision is part of the result metadata.
    """
    so_spec = figure3_spec(steps, overrides)
    so = run_sweep(so_spec)
    first = run_sweep(replace(so_spec, scheme="dr2"))
    coverage_first = float((first.values > FIG4_THRESHOLD).mean())
    gap_first = float((so.values - first.values).max())
    in_band = FIG4_COVERAGE_BAND[0] <= coverage_first <= FIG4_COVERAGE_BAND[1]
    if in_band and gap_first <= 1e-6:
        return Figure4Result(mode="as-printed", coverage=coverage_first,
                             coverage_as_printed=coverage_first, dominance_gap=gap_first,
                             sweep=first)
    second = run_sweep(replace(so_spec, scheme="dr2", mode="reprepare-originals"))
    coverage_second = float((second.values > FIG4_THRESHOLD).mean())
    gap_second = float((so.values - second.values).max())
    return Figure4Result(mode="reprepare-originals", coverage=coverage_second,
                         coverage_as_printed=coverage_first, dominance_gap=gap_second,
                         sweep=second)
