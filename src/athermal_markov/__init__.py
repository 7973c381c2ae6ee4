"""Thermal operations on small system+bath pairs and their non-Markovianity.

Library layout:

- :mod:`athermal_markov.linalg` -- dense complex primitives and entropies
- :mod:`athermal_markov.thermal` -- Hamiltonians, Gibbs states, energy-block
  unitaries, the thermal channel, Markovianity checks, perturbation theory
- :mod:`athermal_markov.measures` -- entanglement / correlation / distance
  measures and their first-order perturbation responses
- :mod:`athermal_markov.optimize` -- deterministic multi-start Nelder-Mead
- :mod:`athermal_markov.experiments` -- preconfigured sweeps and property suite
- :mod:`athermal_markov.cli` -- command-line front end
"""

from .linalg import DensityMatrix, eigh, partial_trace, partial_transpose, trace_norm
from .measures import MarkovianFamily, MeasureValue, discord, log_negativity, \
    mutual_information, theta_lambda
from .optimize import OptimizationResult, OptimizationResults, OptimizerConfig, \
    constrained_phase_manifold, minimize
from .thermal import EnergyBlockUnitary, GibbsState, Hamiltonian, MtoConstraintReport, \
    PerturbationSpec, ThermalOperation, apply, build_block_unitary, gibbs_state, mto_check, \
    perturbed_state_exact, perturbed_state_first_order, thermal_operation, total_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "eigh", "partial_trace", "partial_transpose", "trace_norm",
    "MarkovianFamily", "MeasureValue", "discord",
    "log_negativity", "mutual_information", "theta_lambda",
    "OptimizationResult", "OptimizationResults", "OptimizerConfig", "constrained_phase_manifold",
    "minimize",
    "EnergyBlockUnitary", "GibbsState", "Hamiltonian", "MtoConstraintReport",
    "PerturbationSpec", "ThermalOperation", "apply", "build_block_unitary",
    "gibbs_state", "mto_check", "perturbed_state_exact", "perturbed_state_first_order",
    "thermal_operation", "total_hamiltonian",
    "__version__",
]
