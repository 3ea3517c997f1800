"""Parameter-robustness tables for the minimal expected transient cost.

One table perturbs the gamma-process pair (alpha, beta), the other the shock
intensity pair (lambda1, lambda2), each entry by a percentage from the
variation vector.  All cells of a table share the same master seed (common
random numbers), so cell differences reflect parameters rather than Monte
Carlo noise; the zero-variation cell is the baseline itself and is not
simulated again.  Every cell re-optimizes over the swept policy dimension
before comparing; with T fixed, the whole sweep of one model is one
:func:`~cbmlife.simulate.estimate_row` call.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    ShockIntensity,
    SystemModel,
)
from .renewal import expected_cost
from .simulate import SimulationConfig, estimate_row

__all__ = [
    "PerturbationScheme",
    "VariationTable",
    "gamma_sensitivity",
    "shock_sensitivity",
    "write_variation_csv",
]

_DEFAULT_VARIATIONS = (-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0)


@dataclass(frozen=True)
class PerturbationScheme:
    """Percentage perturbations applied to a parameter pair."""

    variations: tuple[float, ...] = _DEFAULT_VARIATIONS
    target: str = "gamma_params"

    def __post_init__(self) -> None:
        if self.target not in ("gamma_params", "shock_params"):
            raise ValueError("target must be 'gamma_params' or 'shock_params'")
        if any(v <= -100.0 for v in self.variations):
            raise ValueError("variations must keep parameters positive")


@dataclass(frozen=True)
class VariationTable:
    """Relative variation (percent) of the re-optimized transient cost."""

    target: str
    variations: tuple[float, ...]
    baseline_min: float
    min_costs: np.ndarray
    variation: np.ndarray

    def validate(self) -> None:
        if (self.min_costs < 0.0).any() or (self.variation < 0.0).any():
            raise ValueError("costs and variations must be nonnegative")


def _rows(fixed: tuple[str, float], sweep_values) -> list[tuple[float, tuple, tuple]]:
    """(T, thresholds, swept values) of each estimate_row call of the sweep.

    A fixed T is one row holding every swept M; a fixed M is one row per
    swept T.  A table set's seed is keyed by its swept value.
    """
    name, fixed_value = fixed
    sweep = tuple(sweep_values)
    if name == "T":
        return [(fixed_value, sweep, sweep)]
    if name == "M":
        return [(T, (fixed_value,), (T,)) for T in sweep]
    raise ValueError("fixed dimension must be 'T' or 'M'")


def _min_transient_cost(model, costs, life, fixed, sweep_values, cfg) -> float:
    """Minimal E[C(t_f)] over the swept policy dimension, value-keyed seeds."""
    best = np.inf
    for T, Ms, swept in _rows(fixed, sweep_values):
        if any(M > model.breakdown_threshold for M in Ms):
            raise ValueError("swept preventive threshold exceeds L")
        seeds = [
            np.random.SeedSequence(
                entropy=cfg.master_seed, spawn_key=(int(round(value * 1e6)),)
            )
            for value in swept
        ]
        for tables in estimate_row(model, T, Ms, life, cfg, seeds):
            best = min(best, expected_cost(tables, costs, None, life.horizon))
    return best


def _perturbed_model(model: SystemModel, target: str, vi: float, vj: float):
    fi = 1.0 + vi / 100.0
    fj = 1.0 + vj / 100.0
    if fi <= 0.0 or fj <= 0.0:
        raise ValueError("perturbation drives a parameter nonpositive")
    if target == "gamma_params":
        degradation = GammaDegradation(
            alpha=model.degradation.alpha * fi, beta=model.degradation.beta * fj
        )
        return replace(model, degradation=degradation)
    shocks = ShockIntensity(
        lambda1=model.shocks.lambda1 * fi, lambda2=model.shocks.lambda2 * fj
    )
    return replace(model, shocks=shocks)


def _cell_job(args) -> tuple[float, list[str]]:
    model, costs, life, fixed, sweep_values, cfg, target, vi, vj = args
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        perturbed = _perturbed_model(model, target, vi, vj)
        value = _min_transient_cost(perturbed, costs, life, fixed, sweep_values, cfg)
    messages = [f"(vi={vi:g}%, vj={vj:g}%) {w.message}" for w in caught]
    return value, messages


def _sensitivity_table(
    model, costs, life, fixed, sweep_values, scheme, cfg, processes
) -> VariationTable:
    variations = scheme.variations
    baseline = _min_transient_cost(model, costs, life, fixed, sweep_values, cfg)
    m = len(variations)
    perturbed = [
        (i, j) for i in range(m) for j in range(m) if variations[i] or variations[j]
    ]
    jobs = [
        (model, costs, life, fixed, sweep_values, cfg, scheme.target,
         variations[i], variations[j])
        for i, j in perturbed
    ]
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            outcomes = list(pool.map(_cell_job, jobs))
    else:
        outcomes = [_cell_job(j) for j in jobs]
    min_costs = np.full((m, m), baseline)
    messages: list[str] = []
    for (i, j), (value, cell_messages) in zip(perturbed, outcomes):
        min_costs[i, j] = value
        messages.extend(cell_messages)
    for message in dict.fromkeys(messages):
        warnings.warn(message, UserWarning, stacklevel=3)
    variation = np.abs(baseline - min_costs) / baseline * 100.0
    table = VariationTable(
        target=scheme.target,
        variations=variations,
        baseline_min=baseline,
        min_costs=min_costs,
        variation=variation,
    )
    table.validate()
    return table


def gamma_sensitivity(
    model: SystemModel,
    costs: CostStructure,
    life: LifeCycle,
    fixed: tuple[str, float],
    sweep_values: tuple[float, ...],
    scheme: PerturbationScheme | None = None,
    cfg: SimulationConfig | None = None,
    processes: int = 1,
) -> VariationTable:
    """Variation table for (alpha, beta) perturbations."""
    scheme = scheme or PerturbationScheme(target="gamma_params")
    if scheme.target != "gamma_params":
        raise ValueError("scheme target must be gamma_params")
    cfg = cfg or SimulationConfig()
    return _sensitivity_table(
        model, costs, life, fixed, sweep_values, scheme, cfg, processes
    )


def shock_sensitivity(
    model: SystemModel,
    costs: CostStructure,
    life: LifeCycle,
    fixed: tuple[str, float],
    sweep_values: tuple[float, ...],
    scheme: PerturbationScheme | None = None,
    cfg: SimulationConfig | None = None,
    processes: int = 1,
) -> VariationTable:
    """Variation table for (lambda1, lambda2) perturbations."""
    scheme = scheme or PerturbationScheme(target="shock_params")
    if scheme.target != "shock_params":
        raise ValueError("scheme target must be shock_params")
    cfg = cfg or SimulationConfig()
    return _sensitivity_table(
        model, costs, life, fixed, sweep_values, scheme, cfg, processes
    )


def write_variation_csv(table: VariationTable, path) -> None:
    """7x7 layout mirroring the variation vector on both axes (percent)."""
    with open(path, "w", newline="") as fh:
        header = ["vi\\vj"] + [f"{v:g}%" for v in table.variations]
        fh.write(",".join(header) + "\n")
        for i, vi in enumerate(table.variations):
            row = [f"{vi:g}%"] + [
                f"{table.variation[i, j]:.4f}" for j in range(len(table.variations))
            ]
            fh.write(",".join(row) + "\n")
