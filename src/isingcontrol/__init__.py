"""Two-qubit quantum control toolkit.

Simulates Ising-plus-magnetic-field distortion of an entangled pair,
plans and applies the two repreparation protocols, evaluates and
optimizes measure-and-reprepare discrimination fidelities for pure and
Gaussian-time-mixed states, and emits the fidelity surfaces as CSV.
"""

from .control import (
    Situation1Plan,
    Situation2Plan,
    apply_situation1,
    apply_situation2,
    fidelity_overlap,
    plan_situation1,
    plan_situation2,
    unwrap_arctan,
)
from .discrimination import (
    LocalPovm,
    SchemeResult,
    average_fidelity,
    computational_povm,
    critical_fidelities,
    f_ab,
    f_dr1,
    f_n,
    f_so,
    helstrom,
    povm_states,
    table1_povm,
)
from .evolution import (
    IsingParams,
    PhysicalFields,
    evolution_closed_form,
    evolution_oracle,
    hamiltonian,
    normalize_fields,
    params_from_bj,
    spectrum,
)
from .linalg import hermitian_eigenvalues, partial_trace, trace_norm
from .optimize import (
    Fdr2Result,
    OptimizerSettings,
    optimize_fdr2,
    zero_field_objective,
    zero_field_stationary_values,
)
from .states import (
    SchmidtResult,
    bell,
    initial_pair,
    schmidt,
    schmidt_closed_form,
    trace_distance,
    witness_value,
)
from .stochastic import (
    AbdCoefficients,
    GaussianTime,
    abd_decompose,
    f1,
    f2,
    f_n_mix,
    gaussian_mixed_state,
    quadrature_oracle,
    witness_table,
)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "AbdCoefficients", "Fdr2Result", "GaussianTime", "IsingParams",
    "LocalPovm", "OptimizerSettings", "PhysicalFields", "SchemeResult",
    "SchmidtResult", "Situation1Plan", "Situation2Plan",
    "apply_situation1", "apply_situation2", "average_fidelity", "bell",
    "computational_povm", "critical_fidelities", "abd_decompose",
    "evolution_closed_form", "evolution_oracle", "f1", "f2", "f_ab",
    "f_dr1", "f_n", "f_n_mix", "f_so", "fidelity_overlap",
    "gaussian_mixed_state", "hamiltonian", "helstrom",
    "hermitian_eigenvalues", "initial_pair", "normalize_fields",
    "optimize_fdr2", "params_from_bj", "partial_trace", "plan_situation1",
    "plan_situation2", "povm_states", "quadrature_oracle", "run_verify",
    "schmidt", "schmidt_closed_form", "spectrum", "table1_povm",
    "trace_distance", "trace_norm", "unwrap_arctan", "witness_table",
    "witness_value", "zero_field_objective", "zero_field_stationary_values",
]
