"""Condition-based maintenance under gamma degradation and state-dependent shocks.

Library layout:

- :mod:`cbmlife.model`: validated parametric types.
- :mod:`cbmlife.simulate`: Monte Carlo engine and estimate tables, one
  table set per row of thresholds at one inspection period, for one model
  or a bundle of models that share their paths.
- :mod:`cbmlife.renewal`: Markov renewal recursions (cost, variance,
  availability, reliability, interval reliability) over every row of a
  table set.
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
    CostCurve,
    PerformanceCurve,
    asymptotic_cost_rate,
    cost_curve,
    expected_cost,
    performance_curve,
    std_dev,
)
from .sensitivity import VariationTable
from .simulate import (
    EstimateTables,
    SimulationConfig,
    estimate_row,
    estimate_tables,
)

__version__ = "0.1.0"

__all__ = [
    "CostCurve",
    "CostStructure",
    "EstimateTables",
    "GammaDegradation",
    "LifeCycle",
    "MaintenancePolicy",
    "OptimizationResult",
    "PerformanceCurve",
    "PolicyGrid",
    "ShockIntensity",
    "SimulationConfig",
    "SystemModel",
    "VariationTable",
    "__version__",
    "asymptotic_cost_rate",
    "cost_curve",
    "estimate_row",
    "estimate_tables",
    "expected_cost",
    "performance_curve",
    "std_dev",
]
