"""Two-qubit quantum control toolkit.

Simulates Ising-plus-magnetic-field distortion of an entangled pair,
plans and composes the two repreparation protocols, evaluates and
optimizes measure-and-reprepare discrimination fidelities for pure and
Gaussian-time-mixed states, and emits the fidelity surfaces as CSV.

The public names below load their module on first use, so importing the
package loads no numpy; the CLI relies on that to set numpy's BLAS thread
count before numpy starts (see ``cli``).
"""

import importlib

_EXPORTS = {
    "control": (
        "Situation1Plan", "Situation2Plan", "fidelity_overlap", "plan_situation1",
        "plan_situation2", "unwrap_arctan",
    ),
    "discrimination": (
        "LocalPovm", "SchemeResult", "average_fidelity", "computational_povm",
        "critical_fidelities", "f_ab", "f_dr1", "f_n", "f_so", "helstrom",
        "povm_states", "table1_povm",
    ),
    "evolution": (
        "IsingParams", "PhysicalFields", "evolution_closed_form", "evolution_oracle",
        "hamiltonian", "normalize_fields", "params_from_bj", "spectrum",
    ),
    "linalg": ("hermitian_eigenvalues", "partial_trace", "trace_norm"),
    "optimize": (
        "Fdr2Result", "fdr2_value", "optimize_fdr2", "zero_field_objective",
        "zero_field_stationary_values",
    ),
    "states": (
        "SchmidtResult", "bell", "initial_pair", "schmidt", "schmidt_closed_form",
        "trace_distance", "witness_value",
    ),
    "stochastic": (
        "AbdCoefficients", "GaussianTime", "abd_decompose", "f1", "f2", "f_n_mix",
        "gaussian_mixed_state", "quadrature_oracle", "witness_table",
    ),
    "verify": ("run_verify",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
