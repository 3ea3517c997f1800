"""Parametric model of the maintained system.

A single unit degrades according to a stationary gamma process and is
additionally exposed to sudden shocks whose arrival intensity depends on the
current degradation level (a doubly stochastic Poisson process with two
regimes).  The unit fails when degradation crosses a breakdown threshold or
when a shock arrives, whichever happens first.  Periodic inspections trigger
preventive or corrective replacement.

This module holds the immutable configuration types and the closed-form
distributional primitives: the regularized incomplete gamma function, the
first-passage-time distribution of the gamma process, and the conditional
shock survival function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaDegradation",
    "ShockIntensity",
    "SystemModel",
    "MaintenancePolicy",
    "CostStructure",
    "LifeCycle",
    "regularized_upper_gamma",
    "regularized_lower_gamma",
    "first_passage_cdf",
    "conditional_shock_survival",
    "shock_survival_baseline",
    "sample_gamma_increment",
]

_MAX_ITER = 10_000
_EPS = 1e-15


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

    def mean(self, t: float) -> float:
        return self.alpha * t / self.beta

    def variance(self, t: float) -> float:
        return self.alpha * t / self.beta**2


@dataclass(frozen=True)
class ShockIntensity:
    """Two-regime shock intensity.

    Shocks arrive at rate ``lambda1`` while degradation is at or below the
    shock threshold and at rate ``lambda2`` once it is above.  Rates are
    constant in time.  The closed forms of this module read the intensity
    through :meth:`rate` and :meth:`integrated`, so a subclass overriding
    them changes only those; the simulator draws shock times from
    ``lambda1`` and ``lambda2`` and rejects such a subclass.
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

    def rate(self, regime: int, t: float) -> float:
        """Instantaneous intensity of regime 1 (below) or 2 (above)."""
        if regime not in (1, 2):
            raise ValueError("regime must be 1 or 2")
        return self.lambda1 if regime == 1 else self.lambda2

    def integrated(self, regime: int, t: float) -> float:
        """Cumulative hazard of the given regime on [0, t]."""
        if t < 0.0:
            raise ValueError("time must be nonnegative")
        return self.rate(regime, t) * t


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

    def scaled(self, factor: float) -> "CostStructure":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return CostStructure(
                self.corrective * factor,
                self.preventive * factor,
                self.inspection * factor,
                self.downtime_rate * factor,
            )


@dataclass(frozen=True)
class LifeCycle:
    """Finite operating horizon after which no replacement takes place."""

    horizon: float

    def __post_init__(self) -> None:
        _require_finite(self, "horizon")
        if self.horizon <= 0.0:
            raise ValueError("life-cycle horizon must be positive")


def _lower_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma by power series, log-space prefix."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    log_val = a * math.log(x) - x - math.lgamma(a) + math.log(total)
    return math.exp(log_val) if log_val < 0.0 else 1.0


def _upper_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / max(b, tiny)
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    log_val = a * math.log(x) - x - math.lgamma(a) + math.log(abs(h))
    return math.exp(log_val) if log_val < 0.0 else 1.0


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a).

    Power series for x < a + 1, continued fraction otherwise, with the
    prefactor assembled in log space so large shape parameters (a up to at
    least 1e4 and beyond) stay finite.
    """
    if a <= 0.0:
        raise ValueError("shape parameter a must be positive")
    if x < 0.0:
        raise ValueError("argument x must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_cf(a, x)


def regularized_lower_gamma(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a), the complement of the upper ratio."""
    if a <= 0.0:
        raise ValueError("shape parameter a must be positive")
    if x < 0.0:
        raise ValueError("argument x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_series(a, x)
    return 1.0 - _upper_cf(a, x)


def _degradation_of(model) -> GammaDegradation:
    if isinstance(model, SystemModel):
        return model.degradation
    if isinstance(model, GammaDegradation):
        return model
    raise TypeError("expected SystemModel or GammaDegradation")


def _shocks_of(model) -> ShockIntensity:
    if isinstance(model, SystemModel):
        return model.shocks
    if isinstance(model, ShockIntensity):
        return model
    raise TypeError("expected SystemModel or ShockIntensity")


def first_passage_cdf(model, z: float, t: float) -> float:
    """CDF of the first time the gamma process reaches level z.

    P[sigma_z <= t] = P[X(t) >= z] = Q(alpha * t, z * beta).  A shape
    alpha * t that underflows to zero returns the t -> 0 limit, 0.
    """
    deg = _degradation_of(model)
    if z <= 0.0:
        raise ValueError("level z must be positive")
    if t < 0.0:
        raise ValueError("time t must be nonnegative")
    shape = deg.alpha * t
    if shape == 0.0:
        return 0.0
    return regularized_upper_gamma(shape, z * deg.beta)


def shock_survival_baseline(model, regime: int, t: float) -> float:
    """Survival of a shock clock running at the regime's own intensity."""
    shocks = _shocks_of(model)
    if t < 0.0:
        raise ValueError("time t must be nonnegative")
    return math.exp(-shocks.integrated(regime, t))


def conditional_shock_survival(model, v: float, t: float) -> float:
    """P[no shock in (0, t] | degradation crossed the shock threshold at v].

    The hazard runs at the low rate on [0, v] and at the high rate on (v, t].
    """
    shocks = _shocks_of(model)
    if v < 0.0:
        raise ValueError("crossing time v must be nonnegative")
    if t < v:
        raise ValueError("time t must satisfy t >= v")
    low = shocks.integrated(1, v)
    high = shocks.integrated(2, t) - shocks.integrated(2, v)
    return math.exp(-(low + high))


def sample_gamma_increment(degradation: GammaDegradation, dt: float, rng, size=None):
    """Draw degradation increments over a step of length dt.

    Returns a scalar when ``size`` is None, else an ndarray of that shape.
    A zero step returns exactly zero.
    """
    if dt < 0.0:
        raise ValueError("time step must be nonnegative")
    if dt == 0.0:
        return 0.0 if size is None else np.zeros(size)
    draw = rng.gamma(degradation.alpha * dt, 1.0 / degradation.beta, size)
    return float(draw) if size is None else draw
