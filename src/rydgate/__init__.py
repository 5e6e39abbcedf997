"""Error budgets and pulse simulation for multi-control blockade gates.

Each exported name is imported from its module when it is first used, so
``import rydgate`` alone loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "budget": ("LaurentBudget",),
    "lattice": ("LatticeGeometry", "build_layout", "pair_sets"),
    "model": ("InteractionModel", "InvalidModelError", "fit_single_anchor", "pair_shift"),
    "optimize": ("OptimizationResult", "OptimizerEdgeWarning", "e_opt_analytic",
                 "minimize_error", "minimize_errors", "omega_opt_analytic"),
    "sequential": ("budget_grover_uniform", "budget_sequential_lattice",
                   "budget_sequential_uniform"),
    "simulator": ("PulseStep", "SimResult", "SimState", "canonical_sequence",
                  "class_amplitudes", "computational_state", "evolve", "gate_error_sim",
                  "ideal_map", "sequence_duration", "simultaneous_interactions",
                  "uniform_interactions"),
    "simultaneous": ("BlockadeRegimeWarning", "budget_simultaneous_lattice",
                     "budget_simultaneous_uniform", "subset_inverse_square_expectations"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
