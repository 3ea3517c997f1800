"""Parameter-robustness tables for the minimal expected transient cost.

One table perturbs the gamma-process pair (alpha, beta), the other the shock
intensity pair (lambda1, lambda2), each entry by a percentage from the
variation vector.  Every cell re-optimizes over the swept policy dimension
before comparing.  The models that share alpha form one bundle, whose
members are evaluated on one set of paths by
:func:`~cbmlife.simulate.estimate_row`: the shock table is one bundle, and
the gamma table one bundle per alpha, whose members read the paths at levels
scaled by their beta.  The cells of a bundle therefore share their noise
(common random numbers), and their differences reflect the parameters
rather than Monte Carlo noise: every cell of the shock table, and the beta
perturbations of the gamma table.  The alpha perturbations are drawn on
other paths, so they share no noise with the baseline: alpha rescales time,
and a path drawn at one alpha cannot serve another on the same delta-grid.
The baseline is a member of its own bundle, and the zero-variation cell is
the baseline itself, not simulated again.  Each table takes the
:class:`~cbmlife.optimize.PolicyGrid` it sweeps, of one T and the swept
thresholds or of the swept periods and one M, whose rows every bundle
draws through :func:`~cbmlife.optimize.estimate_grid`, paired: with T
fixed, the whole sweep of a bundle is one table set of (member, threshold)
rows, drawn from n paths that every swept threshold reads, and one batched
renewal solve over its rows.  Each row of thresholds is seeded
by its T, so a cell depends on the set of swept thresholds and on the betas
of its bundle, though not on their order.  With M fixed a row has one
threshold, which pairing leaves as it is.  The rows may be drawn in a
process pool; the tables do not depend on its size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    ShockIntensity,
    SystemModel,
)
from .optimize import PolicyGrid, estimate_grid
from .renewal import expected_cost
from .simulate import SimulationConfig

__all__ = [
    "VARIATIONS",
    "VariationTable",
    "gamma_sensitivity",
    "shock_sensitivity",
]

# Percentage perturbations applied to each parameter of a pair.
VARIATIONS = (-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0)


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


def _perturbed_model(model: SystemModel, target: str, vi: float, vj: float):
    fi = 1.0 + vi / 100.0
    fj = 1.0 + vj / 100.0
    if target == "gamma_params":
        degradation = GammaDegradation(
            alpha=model.degradation.alpha * fi, beta=model.degradation.beta * fj
        )
        return replace(model, degradation=degradation)
    shocks = ShockIntensity(
        lambda1=model.shocks.lambda1 * fi, lambda2=model.shocks.lambda2 * fj
    )
    return replace(model, shocks=shocks)


def _sensitivity_table(
    model, costs, life, grid, variations, cfg, processes, target
) -> VariationTable:
    if any(v <= -100.0 for v in variations):
        raise ValueError("variations must keep parameters positive")
    cfg = cfg or SimulationConfig()
    m = len(variations)
    perturbed = [
        (i, j) for i in range(m) for j in range(m) if variations[i] or variations[j]
    ]
    # The baseline is member 0, then one member per perturbed cell; a
    # perturbed model's warnings are labelled with its cell.
    members = [model]
    messages: list[str] = []
    for i, j in perturbed:
        vi, vj = variations[i], variations[j]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            members.append(_perturbed_model(model, target, vi, vj))
        messages.extend(f"(vi={vi:g}%, vj={vj:g}%) {w.message}" for w in caught)
    # One bundle per alpha: its members share the paths.  Each member's
    # minimal E[C(t_f)] is taken over its cells of every row of its bundle.
    bundles: dict[float, list[int]] = {}
    for k, member in enumerate(members):
        bundles.setdefault(member.degradation.alpha, []).append(k)
    groups = [group for group in bundles.values() for _ in grid.T_values]
    rows = estimate_grid(
        [[members[k] for k in group] for group in bundles.values()],
        grid, life, cfg, processes, paired=True,
    )
    values = np.full(len(members), np.inf)
    for tables, group in zip(rows, groups):
        cells = expected_cost(tables, costs, life.horizon).reshape(len(group), -1)
        values[group] = np.minimum(values[group], cells.min(axis=1))
    for message in dict.fromkeys(messages):
        warnings.warn(message, UserWarning, stacklevel=3)
    baseline = float(values[0])
    min_costs = np.full((m, m), baseline)
    for (i, j), value in zip(perturbed, values[1:]):
        min_costs[i, j] = value
    variation = np.abs(baseline - min_costs) / baseline * 100.0
    table = VariationTable(
        target=target,
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
    grid: PolicyGrid,
    variations: tuple[float, ...] = VARIATIONS,
    cfg: SimulationConfig | None = None,
    processes: int = 1,
) -> VariationTable:
    """Variation table for (alpha, beta) perturbations.

    ``grid`` is the policy sweep: one T and the swept thresholds, or the
    swept periods and one M.  Each cell's cost is minimized over its
    policies.
    """
    return _sensitivity_table(
        model, costs, life, grid, variations, cfg, processes, "gamma_params"
    )


def shock_sensitivity(
    model: SystemModel,
    costs: CostStructure,
    life: LifeCycle,
    grid: PolicyGrid,
    variations: tuple[float, ...] = VARIATIONS,
    cfg: SimulationConfig | None = None,
    processes: int = 1,
) -> VariationTable:
    """Variation table for (lambda1, lambda2) perturbations.

    ``grid`` is the policy sweep: one T and the swept thresholds, or the
    swept periods and one M.  Each cell's cost is minimized over its
    policies.
    """
    return _sensitivity_table(
        model, costs, life, grid, variations, cfg, processes, "shock_params"
    )
