"""Grid search over maintenance policies.

Each grid cell gets an independent, value-keyed random substream, so the
objective matrix is reproducible and invariant to the enumeration order of
the grid.  The cells of one inspection period are simulated together by one
:func:`~cbmlife.simulate.estimate_row` call, each still from its own
substream.  Per-cell standard errors come from batch means over the worker
blocks of the cell's estimate tables.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import CostStructure, LifeCycle, MaintenancePolicy, SystemModel
from .renewal import asymptotic_cost_rate, expected_cost
from .simulate import SimulationConfig, chain_statistics, estimate_row

__all__ = [
    "PolicyGrid",
    "OptimizationResult",
    "optimize_asymptotic",
    "optimize_transient",
    "renewal_counts",
    "write_matrix_csv",
    "write_report_json",
]


def _default_T() -> tuple[float, ...]:
    return tuple(np.linspace(5.0, 50.0, 10))


def _default_M() -> tuple[float, ...]:
    return tuple(np.linspace(1.0, 30.0, 30))


@dataclass(frozen=True)
class PolicyGrid:
    """Candidate inspection periods and preventive thresholds."""

    T_values: tuple[float, ...] = field(default_factory=_default_T)
    M_values: tuple[float, ...] = field(default_factory=_default_M)

    def __post_init__(self) -> None:
        if not self.T_values or not self.M_values:
            raise ValueError("grid must contain at least one T and one M")
        if any(T <= 0.0 for T in self.T_values):
            raise ValueError("all inspection periods must be positive")
        if any(M <= 0.0 for M in self.M_values):
            raise ValueError("all preventive thresholds must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    """Objective matrix with its argmin and per-cell batch-means errors."""

    objective: str
    T_values: tuple[float, ...]
    M_values: tuple[float, ...]
    values: np.ndarray
    stderr: np.ndarray
    T_opt: float
    M_opt: float
    minimum: float
    warnings: tuple[str, ...]
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "T_opt": self.T_opt,
            "M_opt": self.M_opt,
            "minimum": self.minimum,
            "grid_T": list(self.T_values),
            "grid_M": list(self.M_values),
            "elapsed_seconds": self.elapsed_seconds,
            "warnings": list(self.warnings),
        }


def _cell_seed(master_seed: int, T: float, M: float) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(int(round(T * 1e6)), int(round(M * 1e6))),
    )


def _evaluate_cell(tables, costs, life, objective) -> tuple[float, float]:
    """The objective of one table set and its batch-means standard error."""

    def value_of(t):
        if objective == "asymptotic":
            return asymptotic_cost_rate(t, costs)
        return expected_cost(t, costs, None, life.horizon) / life.horizon

    value = value_of(tables)
    block_values = [
        value_of(tables.block_view(b))
        for b in range(tables.worker_streams)
        if tables.block_sizes[b] > 0
    ]
    if len(block_values) > 1:
        stderr = float(np.std(block_values, ddof=1) / math.sqrt(len(block_values)))
    else:
        stderr = float("nan")
    return float(value), stderr


def _evaluate_row(args) -> list[tuple[float, float, list[str]]]:
    """Every cell of one T row, from one simulation of the row."""
    model, costs, life, cfg, T, Ms, objective = args
    row = estimate_row(
        model, T, Ms, life, cfg, [_cell_seed(cfg.master_seed, T, M) for M in Ms]
    )
    outcomes = []
    for M, tables in zip(Ms, row):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value, stderr = _evaluate_cell(tables, costs, life, objective)
        messages = [f"(T={T:g}, M={M:g}) {w.message}" for w in caught]
        outcomes.append((value, stderr, messages))
    return outcomes


def _run_grid(model, costs, life, grid, cfg, objective, processes):
    if any(M > model.breakdown_threshold for M in grid.M_values):
        raise ValueError("grid contains preventive thresholds above L")
    start = time.perf_counter()
    jobs = [
        (model, costs, life, cfg, T, grid.M_values, objective) for T in grid.T_values
    ]
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            rows = list(pool.map(_evaluate_row, jobs))
    else:
        rows = [_evaluate_row(j) for j in jobs]
    outcomes = [cell for row in rows for cell in row]
    nT, nM = len(grid.T_values), len(grid.M_values)
    values = np.zeros((nT, nM))
    stderr = np.zeros((nT, nM))
    messages: list[str] = []
    for idx, (value, err, msgs) in enumerate(outcomes):
        i, j = divmod(idx, nM)
        values[i, j] = value
        stderr[i, j] = err
        messages.extend(msgs)
    minimum = float(values.min())
    candidates = [
        (grid.M_values[j], grid.T_values[i])
        for i in range(nT)
        for j in range(nM)
        if values[i, j] == minimum
    ]
    M_opt, T_opt = min(candidates)
    return OptimizationResult(
        objective=objective,
        T_values=tuple(grid.T_values),
        M_values=tuple(grid.M_values),
        values=values,
        stderr=stderr,
        T_opt=float(T_opt),
        M_opt=float(M_opt),
        minimum=minimum,
        warnings=tuple(messages),
        elapsed_seconds=time.perf_counter() - start,
    )


def optimize_asymptotic(
    model: SystemModel,
    costs: CostStructure,
    grid: PolicyGrid,
    cfg: SimulationConfig,
    life: LifeCycle,
    processes: int = 1,
) -> OptimizationResult:
    """Minimize the asymptotic expected cost rate over the policy grid.

    ``life`` sets the simulation horizon for the per-cell estimate tables;
    censored-mass truncation warnings are collected per cell.
    """
    return _run_grid(model, costs, life, grid, cfg, "asymptotic", processes)


def optimize_transient(
    model: SystemModel,
    costs: CostStructure,
    life: LifeCycle,
    grid: PolicyGrid,
    cfg: SimulationConfig,
    processes: int = 1,
) -> OptimizationResult:
    """Minimize the expected transient cost rate E[C(t_f)] / t_f."""
    return _run_grid(model, costs, life, grid, cfg, "transient", processes)


def renewal_counts(
    model: SystemModel,
    policy: MaintenancePolicy,
    life: LifeCycle,
    cfg: SimulationConfig,
) -> float:
    """Expected number of complete renewal cycles within the life cycle."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        zero = CostStructure(0.0, 0.0, 0.0, 0.0)
    counts, _ = chain_statistics(model, policy, zero, life, cfg)
    return float(counts.mean())


def write_matrix_csv(result: OptimizationResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("T,M,value,stderr\n")
        for i, T in enumerate(result.T_values):
            for j, M in enumerate(result.M_values):
                fh.write(
                    f"{T:.6f},{M:.6f},{result.values[i, j]:.6f},"
                    f"{result.stderr[i, j]:.6f}\n"
                )


def write_report_json(result: OptimizationResult, path, extra: dict | None = None):
    payload = result.to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
