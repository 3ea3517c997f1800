"""Parametric model of the maintained system.

A single unit degrades according to a stationary gamma process and is
additionally exposed to sudden shocks whose arrival intensity depends on the
current degradation level (a doubly stochastic Poisson process with two
regimes).  The unit fails when degradation crosses a breakdown threshold or
when a shock arrives, whichever happens first.  Periodic inspections trigger
preventive or corrective replacement.

This module holds the immutable, validated configuration types; the
distributions they define are simulated by :mod:`cbmlife.simulate`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "GammaDegradation",
    "ShockIntensity",
    "SystemModel",
    "MaintenancePolicy",
    "CostStructure",
    "LifeCycle",
]


def _require_finite(obj, *names: str) -> None:
    """Reject NaN and infinite fields with the ValueError of bad parameters."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, not {value}")


@dataclass(frozen=True)
class GammaDegradation:
    """Stationary gamma degradation process.

    The cumulative degradation at time t is gamma distributed with shape
    ``alpha * t`` and rate ``beta``, so the mean path is ``alpha * t / beta``
    and the variance ``alpha * t / beta**2``.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _require_finite(self, "alpha", "beta")
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError("gamma process requires alpha > 0 and beta > 0")


@dataclass(frozen=True)
class ShockIntensity:
    """Two-regime shock intensity.

    Shocks arrive at rate ``lambda1`` while degradation is at or below the
    shock threshold and at rate ``lambda2`` once it is above.  Rates are
    constant in time.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        _require_finite(self, "lambda1", "lambda2")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("shock intensities must be nonnegative")
        if self.lambda1 > self.lambda2:
            warnings.warn(
                "lambda1 > lambda2 violates the increasing-hazard assumption",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SystemModel:
    """Degradation law, shock law, and the two failure-related thresholds."""

    degradation: GammaDegradation
    shocks: ShockIntensity
    breakdown_threshold: float
    shock_threshold: float

    def __post_init__(self) -> None:
        _require_finite(self, "breakdown_threshold", "shock_threshold")
        if self.breakdown_threshold <= 0.0 or self.shock_threshold <= 0.0:
            raise ValueError("thresholds must be positive")
        # shock_threshold >= breakdown_threshold is accepted: the elevated
        # shock regime is then unreachable before degradation failure.


@dataclass(frozen=True)
class MaintenancePolicy:
    """Inspection period T and preventive replacement threshold M."""

    inspection_period: float
    preventive_threshold: float

    def __post_init__(self) -> None:
        _require_finite(self, "inspection_period", "preventive_threshold")
        if self.inspection_period <= 0.0:
            raise ValueError("inspection period must be positive")
        if self.preventive_threshold <= 0.0:
            raise ValueError("preventive threshold must be positive")


@dataclass(frozen=True)
class CostStructure:
    """Monetary constants: replacements, inspections, downtime rate."""

    corrective: float
    preventive: float
    inspection: float
    downtime_rate: float

    def __post_init__(self) -> None:
        names = ("corrective", "preventive", "inspection", "downtime_rate")
        _require_finite(self, *names)
        for name in names:
            if getattr(self, name) < 0.0:
                raise ValueError(f"cost '{name}' must be nonnegative")
        if not (self.corrective > self.preventive > self.inspection):
            # Degenerate orderings (e.g. all-zero costs) are useful for
            # closure tests, so they warn instead of failing hard.
            warnings.warn(
                "cost ordering corrective > preventive > inspection not satisfied",
                UserWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class LifeCycle:
    """Finite operating horizon after which no replacement takes place."""

    horizon: float

    def __post_init__(self) -> None:
        _require_finite(self, "horizon")
        if self.horizon <= 0.0:
            raise ValueError("life-cycle horizon must be positive")

