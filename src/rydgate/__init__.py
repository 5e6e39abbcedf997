"""Error budgets and pulse simulation for multi-control blockade gates."""

from .budget import LaurentBudget
from .lattice import LatticeGeometry, build_layout, pair_sets
from .model import (
    InteractionModel,
    InvalidModelError,
    fit_single_anchor,
    pair_shift,
)
from .optimize import (
    OptimizationResult,
    OptimizerEdgeWarning,
    e_opt_analytic,
    minimize_error,
    omega_opt_analytic,
)
from .sequential import (
    budget_grover_uniform,
    budget_sequential_lattice,
    budget_sequential_uniform,
)
from .simulator import (
    PulseStep,
    SimResult,
    SimState,
    canonical_sequence,
    class_amplitudes,
    computational_state,
    evolve,
    gate_error_sim,
    ideal_map,
    sequence_duration,
    simultaneous_interactions,
    uniform_interactions,
)
from .simultaneous import (
    BlockadeRegimeWarning,
    budget_simultaneous_lattice,
    budget_simultaneous_uniform,
    subset_inverse_square_expectations,
)

__version__ = "0.1.0"

__all__ = [
    "BlockadeRegimeWarning",
    "InteractionModel",
    "InvalidModelError",
    "LatticeGeometry",
    "LaurentBudget",
    "OptimizationResult",
    "OptimizerEdgeWarning",
    "PulseStep",
    "SimResult",
    "SimState",
    "budget_grover_uniform",
    "budget_sequential_lattice",
    "budget_sequential_uniform",
    "budget_simultaneous_lattice",
    "budget_simultaneous_uniform",
    "build_layout",
    "canonical_sequence",
    "class_amplitudes",
    "computational_state",
    "e_opt_analytic",
    "evolve",
    "fit_single_anchor",
    "gate_error_sim",
    "ideal_map",
    "minimize_error",
    "omega_opt_analytic",
    "pair_sets",
    "pair_shift",
    "sequence_duration",
    "simultaneous_interactions",
    "subset_inverse_square_expectations",
    "uniform_interactions",
]
