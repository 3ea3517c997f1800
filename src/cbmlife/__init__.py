"""Condition-based maintenance under gamma degradation and state-dependent shocks.

Library layout:

- :mod:`cbmlife.model`: parametric types and closed-form primitives.
- :mod:`cbmlife.simulate`: Monte Carlo engine and estimate tables.
- :mod:`cbmlife.renewal`: Markov renewal recursions (cost, variance,
  availability, reliability, interval reliability).
- :mod:`cbmlife.optimize`: policy grid search under both objectives.
- :mod:`cbmlife.sensitivity`: parameter perturbation tables.
- :mod:`cbmlife.cli`: command-line front end.
"""

from .model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from .optimize import OptimizationResult, PolicyGrid
from .renewal import (
    availability,
    expected_cost,
    interval_reliability,
    reliability,
    std_dev,
)
from .sensitivity import PerturbationScheme, VariationTable
from .simulate import (
    EstimateTables,
    ReplacementSample,
    SimulationConfig,
    estimate_row,
    estimate_tables,
)

__version__ = "0.1.0"

__all__ = [
    "CostStructure",
    "EstimateTables",
    "GammaDegradation",
    "LifeCycle",
    "MaintenancePolicy",
    "OptimizationResult",
    "PerturbationScheme",
    "PolicyGrid",
    "ReplacementSample",
    "ShockIntensity",
    "SimulationConfig",
    "SystemModel",
    "VariationTable",
    "__version__",
    "availability",
    "estimate_row",
    "estimate_tables",
    "expected_cost",
    "interval_reliability",
    "reliability",
    "std_dev",
]
