"""Grid search over maintenance policies, and the runner of every policy grid.

:func:`estimate_grid` draws the rows of a grid: the cells of one inspection
period T are the rows of one table set, drawn by one
:func:`~cbmlife.simulate.estimate_row` call from one generator built from a
seed sequence keyed by the value of T.  The grid search and the ``curves``
sweeps draw each cell from paths of its own; the sensitivity sweeps pass
``paired=True``, so every cell of a row reads the row's one set of paths.
All of them draw their rows through it, one row a task when it runs a
process pool.  One batched renewal solve evaluates the pooled rows, and one
more the rows of ``tables.batches()``, each cell's worker blocks,
contiguous ranges of its paths, whose values give the cell's batch-means
standard error.  The objective matrix is therefore reproducible and
invariant to the enumeration order of the grid and to the number of worker
processes that draw its rows; a cell depends on the set of thresholds in
its row, though not on their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistencyError
from .model import CostStructure, LifeCycle, SystemModel
from .renewal import asymptotic_cost_rate, expected_cost
from .simulate import SimulationConfig, estimate_row, row_seed, seed_key

__all__ = [
    "PolicyGrid",
    "estimate_grid",
    "OptimizationResult",
    "optimize_asymptotic",
    "optimize_transient",
    "truncation_note",
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
        if not all(math.isfinite(v) for v in (*self.T_values, *self.M_values)):
            raise ValueError("grid values must be finite")
        # A repeated point would be simulated again from other paths, and
        # the minimum over its copies is biased low.  A row's seed sequence
        # is keyed by its value in millionths (seed_key), so two values of
        # one key count as a repeat: their rows would share one stream.
        for name, values in (("T", self.T_values), ("M", self.M_values)):
            if len({seed_key(v) for v in values}) < len(values):
                raise ValueError(
                    f"grid {name} values must not repeat or round to the same "
                    "millionth"
                )


def estimate_grid(bundles, grid: PolicyGrid, life: LifeCycle, cfg: SimulationConfig,
                  processes: int = 1, paired: bool = False):
    """Yield the table set of every (bundle, T) row of the grid.

    Each of ``bundles`` is one SystemModel or members that share alpha, M_s
    and L.  The rows come bundle-major, each bundle's in the grid's T order;
    row (bundle, T) is ``estimate_row(bundle, T, grid.M_values, life, cfg,
    row_seed(cfg.master_seed, T), paired)``, so with ``paired`` every
    threshold of a row reads the same paths.  With ``processes`` > 1 the
    rows are drawn in a process pool, one row a task, of at most one
    process a row; the tables do not depend on its size.
    """
    tasks = [
        (bundle, T, grid.M_values, life, cfg, row_seed(cfg.master_seed, T), paired)
        for bundle in bundles
        for T in grid.T_values
    ]
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its processes at the first task.
        with ProcessPoolExecutor(max_workers=min(processes, len(tasks))) as pool:
            yield from pool.map(estimate_row, *zip(*tasks))
    else:
        yield from map(estimate_row, *zip(*tasks))


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


def truncation_note(censored_fraction: float) -> str | None:
    """The truncation warning of a cell with this censored mass, if any.

    The asymptotic rate sums the replacement masses up to k_max only, so a
    cell whose paths are censored at 1% or more gets a truncated rate.
    """
    if censored_fraction >= 0.01:
        return (
            f"censored mass {censored_fraction:.3f} >= 1%; "
            "asymptotic sums are truncated"
        )
    return None


def _evaluate_row(tables, costs, life, objective) -> list[tuple[float, float, list]]:
    """Every cell of one T row's table set, from two renewal solves.

    The pooled rows give the cells' values, and the rows of
    ``tables.batches()``, each cell's nonempty worker blocks, their
    batch-means standard errors.  Only the pooled rows may warn of
    truncation: a block holds a fraction of the paths, so its censored mass
    is not the cell's.  A block without replacement mass has no asymptotic
    rate, and its cell no standard error; a cell whose pooled row holds none
    raises InconsistencyError.
    """

    def evaluate(rows):
        if objective == "asymptotic":
            return asymptotic_cost_rate(rows, costs)
        return expected_cost(rows, costs, life.horizon) / life.horizon

    # Every cell has the same worker blocks, so as many batch rows.  A block
    # without a rate (NaN) leaves its cell without a standard error.
    batches = evaluate(tables.batches()).reshape(len(tables.Ms), -1)
    n_blocks = batches.shape[1]
    if n_blocks > 1:
        stderrs = np.std(batches, axis=1, ddof=1) / math.sqrt(n_blocks)
    else:
        stderrs = np.full(len(tables.Ms), np.nan)
    cells = zip(tables.Ms, evaluate(tables), stderrs, tables.censored_fraction)
    outcomes = []
    for M, value, stderr, fraction in cells:
        label = f"(T={tables.lattice.T:g}, M={M:g})"
        if math.isnan(value):
            raise InconsistencyError(
                f"{label} no replacement mass observed; rate undefined"
            )
        note = truncation_note(fraction) if objective == "asymptotic" else None
        messages = [] if note is None else [f"{label} {note}"]
        outcomes.append((float(value), float(stderr), messages))
    return outcomes


def _run_grid(model, costs, life, grid, cfg, objective, processes):
    outcomes = [
        cell
        for tables in estimate_grid([model], grid, life, cfg, processes)
        for cell in _evaluate_row(tables, costs, life, objective)
    ]
    nT, nM = len(grid.T_values), len(grid.M_values)
    cell_values, cell_errors, cell_messages = zip(*outcomes)
    values = np.reshape(cell_values, (nT, nM))
    stderr = np.reshape(cell_errors, (nT, nM))
    messages = [message for cell in cell_messages for message in cell]
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
    )


def optimize_asymptotic(
    model: SystemModel,
    costs: CostStructure,
    life: LifeCycle,
    grid: PolicyGrid,
    cfg: SimulationConfig,
    processes: int = 1,
) -> OptimizationResult:
    """Minimize the asymptotic expected cost rate over the policy grid.

    ``life`` sets the simulation horizon for the per-cell estimate tables;
    a cell whose pooled tables hold censored mass of 1% or more gets one
    truncation warning.
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
