"""Parameter sweeps producing the CSV fidelity surfaces and figure presets.

A sweep evaluates one scheme over a two-axis grid with the remaining
parameters fixed, and serializes ``axis1,axis2,value`` rows in row-major
order with 12 significant digits.  Cell failures become ``nan`` cells and
are reported, never raised mid-sweep; a non-finite value is a failure too.

Schemes with an array evaluator (``SchemeDef.grid``) compute the whole grid
in a few numpy calls.  Those evaluators skip the scalar functions' checks
and leave ``nan`` wherever a check could fail; every cell whose grid value
is not finite, or every cell if the evaluator raises, is re-run on its
own through the scalar ``SchemeDef.fn``, which keeps the per-cell values,
messages and exit code of the scalar path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import situation2_phases
from .discrimination import (
    f_ab,
    f_ab_grid,
    f_dr1,
    f_dr1_grid,
    f_n,
    f_n_grid,
    f_so,
    f_so_grid,
)
from .evolution import (
    IsingParams,
    PhysicalFields,
    b_minus_magnitude,
    check_coupling,
    coupling_in_range,
    params_from_bj,
    spectrum,
)
from .optimize import OBJECTIVE_MODES, OptimizerSettings, optimize_fdr2
from .states import angle_in_range, initial_pair_grid, schmidt_closed_form
from .stochastic import (
    GaussianTime,
    cross_checked,
    f1,
    f1_correction,
    f2,
    f2_correction,
    f_n_mix,
    f_n_mix_closed,
    mean_in_range,
    pair_fidelity,
    spread_in_range,
    witness_table,
)

FIGURE_J = 1.0 / 6.0
FIGURE_T = math.pi / 2.0
FIGURE_B_PLUS = 1.0
FIGURE5_T0 = {"a": math.pi / 2.0, "b": 3.0 * math.pi / 4.0, "c": 7.0 * math.pi / 4.0}
MAX_CELLS = 1_000_000
STACK_CELLS = 256           # cells per stacked block of 4x4 densities (64 KiB each)


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
        provided = {self.axis1.name, self.axis2.name} | set(self.fixed)
        missing = [p for p in SCHEMES[self.scheme].params
                   if p not in provided and p not in SCHEMES[self.scheme].defaults]
        if missing:
            raise ValueError(
                f"scheme {self.scheme!r} is missing parameters: {', '.join(missing)}")


def fields_from_bj(b_plus: float, j: float) -> PhysicalFields:
    """Physical fields with unit scale for given (b+, j); b- taken positive.
    Raises for j outside [0, 1/2], where the scale would not be 1."""
    check_coupling(j)
    b_minus = float(b_minus_magnitude(j))
    return PhysicalFields(b1=(b_plus + b_minus) / 2.0, b2=(b_plus - b_minus) / 2.0, j=j)


def default_situation1_indices(t0: float, p: IsingParams) -> tuple[int, int]:
    """Smallest n with positive loop time, m minimizing |delta_b+|."""
    n = max(1, math.floor(t0 / math.pi) + 1)
    m = round(n * (p.b_plus - 2.0 * p.j + 1.0) / 2.0)
    return n, int(m)


def default_situation2_indices(t0: float, fields: PhysicalFields) -> tuple[int, int]:
    """(n, m) minimizing the magnitudes of the correcting field products."""
    phi, phi_prime = situation2_phases(fields.b_minus, fields.j, fields.scale, t0)
    n = round(fields.b_plus * t0 / math.pi)
    m = round(((phi + phi_prime) / 2.0) / math.pi) - n
    return int(n), int(m)


def _as_int(params: dict, key: str) -> int:
    v = params[key]
    if abs(v - round(v)) > 1e-9:
        raise ValueError(f"parameter {key!r} must be an integer, got {v}")
    return int(round(v))


def _eval_dr1(params, mode):
    return f_dr1(params["theta"])


def _eval_n(params, mode):
    return f_n(params["theta"], params["b_plus"], params["j"], params["t"])


def _eval_ab(params, mode):
    return f_ab(params["theta"], params["b_plus"], params["j"], params["t"])


def _eval_so(params, mode):
    return f_so(params["theta"], params["b_plus"], params["j"], params["t"])


def _eval_dr2(params, mode):
    settings = OptimizerSettings(objective_mode=mode)
    return optimize_fdr2(params["theta"], params["b_plus"], params["j"], params["t"],
                         settings).value


def _eval_n_mix(params, mode):
    return f_n_mix(params["theta"], params["b_plus"], params["j"],
                   params["t0"], params["s"])


def _f1_inputs(params):
    p = params_from_bj(params["b_plus"], params["j"])
    if "n" in params and "m" in params:
        n, m = _as_int(params, "n"), _as_int(params, "m")
    else:
        n, m = default_situation1_indices(params["t0"], p)
    return p, n, m


def _eval_f1(params, mode):
    p, n, m = _f1_inputs(params)
    return f1(params["theta"], p, params["t0"], params["s"], n, m)


def _f2_inputs(params):
    fields = fields_from_bj(params["b_plus"], params["j"])
    duration = params.get("T", 1.0)
    if "n" in params and "m" in params:
        n, m = _as_int(params, "n"), _as_int(params, "m")
    else:
        n, m = default_situation2_indices(params["t0"], fields)
    return fields, duration, n, m


def _eval_f2(params, mode):
    fields, duration, n, m = _f2_inputs(params)
    return f2(params["theta"], fields, params["t0"], params["s"], duration, n, m)


def _eval_witness(params, mode):
    p = params_from_bj(params["b_plus"], params["j"])
    g = GaussianTime(params["t0"], params["s"])
    key = (_as_int(params, "state"), _as_int(params, "wi"), _as_int(params, "wj"))
    table = witness_table(params["theta"], p, g)
    if key not in table:
        raise ValueError(f"no witness entry for state={key[0]}, i={key[1]}, j={key[2]}")
    return table[key]


def _eval_schmidt(params, mode):
    return schmidt_closed_form(params["theta"], params["j"], params["t"]).lambda1


def _eval_f_curve(params, mode):
    # f(B- t, 2J t) with 2J = 1 and B- = ratio, so R = sqrt(ratio^2 + 1)
    ratio, t = params["ratio"], params["t"]
    j = 0.5
    phi, phi_prime = situation2_phases(ratio, j, math.hypot(ratio, 2.0 * j), t)
    return phi - phi_prime - 4.0 * j * t


def _grid_dr1(params, mode):
    return np.where(angle_in_range(params["theta"]), f_dr1_grid(params["theta"]), math.nan)


def _grid_n(params, mode):
    return f_n_grid(params["theta"], params["b_plus"], params["j"], params["t"])


def _pure_grid(kernel):
    """Array evaluator of a pipeline scheme over (theta, b+, j, t); nan for
    the cells that initial_pair or params_from_bj reject (a non-finite b+
    makes the kernel's value nan by itself)."""
    def grid(params, mode):
        theta, b_plus, j, t = (params[k] for k in ("theta", "b_plus", "j", "t"))
        ok = angle_in_range(theta) & coupling_in_range(j)
        return np.where(ok, kernel(theta, b_plus, j, t), math.nan)
    return grid


def _mixed_grid(params, setup):
    """Mixed-pair fidelities of every cell, stacked.

    Cells are grouped by their parameters other than theta and s, and
    ``setup(group_params) -> (model, correction or None)`` runs once per
    group; a group whose setup raises, and cells outside the Gaussian
    model's or the pair's range, are left ``nan``.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in params.values()))
    theta, s = (np.broadcast_to(params[k], shape) for k in ("theta", "s"))
    keys = sorted(k for k in params if k not in ("theta", "s"))
    # a group's values have the scalar path's types: numpy scalars from an
    # axis, fixed values as given (numpy and Python floats overflow and
    # divide by zero differently)
    columns = [np.broadcast_to(v, shape) if np.ndim(v) else [v] * shape[0]
               for v in (params[k] for k in keys)]
    groups = {}
    for cell, row in enumerate(zip(*columns)):
        groups.setdefault(row, []).append(cell)
    ok = angle_in_range(theta) & mean_in_range(params["t0"]) & spread_in_range(s)
    out = np.full(shape, math.nan)
    for row, cells in groups.items():
        group = dict(zip(keys, row))
        try:
            model, u = setup(group)
        except (ValueError, ArithmeticError):  # the scalar path reports these cells
            continue
        eigensystem = spectrum(model)
        cells = np.array(cells)[ok[cells]]
        for block in np.split(cells, range(STACK_CELLS, len(cells), STACK_CELLS)):
            out[block] = pair_fidelity(initial_pair_grid(theta[block]), eigensystem,
                                       group["t0"], s[block, None, None], u)
    return out


def _grid_n_mix(params, mode):
    pipeline = _mixed_grid(
        params, lambda group: (params_from_bj(group["b_plus"], group["j"]), None))
    closed = f_n_mix_closed(np, params["theta"], params["b_plus"], params["j"],
                            params["t0"], params["s"])
    return np.where(np.isnan(pipeline), math.nan, cross_checked(closed, pipeline))


def _grid_f1(params, mode):
    def setup(group):
        p, n, m = _f1_inputs(group)
        return p, f1_correction(p, group["t0"], n, m)
    return _mixed_grid(params, setup)


def _grid_f2(params, mode):
    def setup(group):
        fields, duration, n, m = _f2_inputs(group)
        return fields, f2_correction(fields, group["t0"], duration, n, m)
    return _mixed_grid(params, setup)


@dataclass(frozen=True)
class SchemeDef:
    params: tuple
    defaults: dict
    fn: object
    grid: object = None         # optional array evaluator over all cells at once


SCHEMES = {
    "dr1": SchemeDef(("theta",), {}, _eval_dr1, _grid_dr1),
    "n": SchemeDef(("theta", "b_plus", "j", "t"), {}, _eval_n, _grid_n),
    "ab": SchemeDef(("theta", "b_plus", "j", "t"), {}, _eval_ab, _pure_grid(f_ab_grid)),
    "so": SchemeDef(("theta", "b_plus", "j", "t"), {}, _eval_so, _pure_grid(f_so_grid)),
    "dr2": SchemeDef(("theta", "b_plus", "j", "t"), {}, _eval_dr2),
    "n-mix": SchemeDef(("theta", "b_plus", "j", "t0", "s"), {}, _eval_n_mix, _grid_n_mix),
    "f1": SchemeDef(("theta", "b_plus", "j", "t0", "s", "n", "m"),
                    {"n": None, "m": None}, _eval_f1, _grid_f1),
    "f2": SchemeDef(("theta", "b_plus", "j", "t0", "s", "T", "n", "m"),
                    {"T": 1.0, "n": None, "m": None}, _eval_f2, _grid_f2),
    "witness": SchemeDef(("theta", "b_plus", "j", "t0", "s", "state", "wi", "wj"),
                         {"state": 1, "wi": 0, "wj": 0}, _eval_witness),
    "schmidt": SchemeDef(("theta", "j", "t"), {}, _eval_schmidt),
    "f-curve": SchemeDef(("ratio", "t"), {}, _eval_f_curve),
}


@dataclass(frozen=True)
class SweepResult:
    csv_text: str
    values: np.ndarray          # (steps1, steps2) grid, nan for failed cells
    failures: tuple             # (axis1_value, axis2_value, message) triples


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the scheme over the grid and serialize the CSV document."""
    scheme = SCHEMES[spec.scheme]
    base = {k: v for k, v in {**scheme.defaults, **spec.fixed}.items() if v is not None}
    a1 = spec.axis1.values()
    a2 = spec.axis2.values()
    names = (spec.axis1.name, spec.axis2.name)

    def with_axes(v1, v2):
        params = {**base, names[0]: v1, names[1]: v2}
        params.pop("dummy", None)
        return params

    def evaluate(v1, v2):
        try:
            value = float(scheme.fn(with_axes(v1, v2), spec.mode))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            error = exc
        else:
            if math.isfinite(value):
                return value, None
            error = f"non-finite value {value}"
        return math.nan, f"{names[0]}={v1:.6g}, {names[1]}={v2:.6g}: {error}"

    cells = [(v1, v2) for v1 in a1 for v2 in a2]
    values = np.full(len(cells), math.nan)
    if scheme.grid is not None:
        g1, g2 = (g.ravel() for g in np.meshgrid(a1, a2, indexing="ij"))
        try:
            with np.errstate(all="ignore"):
                values[:] = scheme.grid(with_axes(g1, g2), spec.mode)
        except Exception:  # noqa: BLE001 - the cells stay nan and re-run below
            pass
    redo = np.flatnonzero(~np.isfinite(values))
    outcomes = [evaluate(*cells[k]) for k in redo]
    values[redo] = [v for v, _ in outcomes]

    failures = tuple(msg for _, msg in outcomes if msg is not None)

    def fmt(v: float) -> str:
        return f"{0.0 if v == 0.0 else v:.12g}"   # avoid '-0' rows

    lines = ["axis1,axis2,value"] + [f"{fmt(v1)},{fmt(v2)},{fmt(v)}"
                                     for (v1, v2), v in zip(cells, values.tolist())]
    return SweepResult(csv_text="\n".join(lines) + "\n",
                       values=values.reshape(len(a1), len(a2)), failures=failures)


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
    preset parameters before the indices are derived.
    """
    if which not in FIGURE5_T0:
        raise ValueError(f"figure5 variant must be one of {sorted(FIGURE5_T0)}, got {which!r}")
    if scheme not in ("n-mix", "f1", "f2"):
        raise ValueError(f"figure5 scheme must be n-mix, f1 or f2, got {scheme!r}")
    fixed = {"j": FIGURE_J, "b_plus": FIGURE_B_PLUS, "t0": FIGURE5_T0[which]}
    fixed.update(overrides or {})
    t0 = fixed["t0"]
    if scheme == "f1":
        n, m = default_situation1_indices(t0, params_from_bj(fixed["b_plus"], fixed["j"]))
        fixed.setdefault("n", n)
        fixed.setdefault("m", m)
    elif scheme == "f2":
        fields = fields_from_bj(fixed["b_plus"], fixed["j"])
        n, m = default_situation2_indices(t0, fields)
        fixed.setdefault("n", n)
        fixed.setdefault("m", m)
        fixed.setdefault("T", 1.0)
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
    so_values: np.ndarray


FIG4_COVERAGE_BAND = (0.70, 0.90)
FIG4_THRESHOLD = 0.8


def figure4_run(steps: int = 25, overrides: dict | None = None) -> Figure4Result:
    """Optimized-fidelity surface over (theta, b+) with the mode fallback.

    The surface is computed with the as-printed objective first; if its
    above-0.8 coverage misses the documented band or it drops below the
    suboptimal envelope anywhere, the reprepare-originals objective becomes
    operative.  The decision is part of the result metadata.
    """
    fixed = {"j": FIGURE_J, "t": FIGURE_T}
    fixed.update(overrides or {})

    def spec_for(mode):
        return SweepSpec(
            scheme="dr2",
            axis1=Axis("theta", 0.0, math.pi / 2.0, steps),
            axis2=Axis("b_plus", 0.0, 5.0, steps),
            fixed=fixed,
            mode=mode,
        )

    so = run_sweep(replace(spec_for("as-printed"), scheme="so", mode="as-printed"))
    first = run_sweep(spec_for("as-printed"))
    coverage_first = float((first.values > FIG4_THRESHOLD).mean())
    gap_first = float((so.values - first.values).max())
    in_band = FIG4_COVERAGE_BAND[0] <= coverage_first <= FIG4_COVERAGE_BAND[1]
    if in_band and gap_first <= 1e-6:
        return Figure4Result(mode="as-printed", coverage=coverage_first,
                             coverage_as_printed=coverage_first, dominance_gap=gap_first,
                             sweep=first, so_values=so.values)
    second = run_sweep(spec_for("reprepare-originals"))
    coverage_second = float((second.values > FIG4_THRESHOLD).mean())
    gap_second = float((so.values - second.values).max())
    return Figure4Result(mode="reprepare-originals", coverage=coverage_second,
                         coverage_as_printed=coverage_first, dominance_gap=gap_second,
                         sweep=second, so_values=so.values)
