"""Markov renewal recursions over Monte Carlo estimate tables.

All five measures (expected transient cost, its second moment and standard
deviation, availability, reliability, interval reliability) satisfy renewal
equations of the form

    V(t) = g(t) + sum_{k=1}^{kf(t)} p_k V(t - kT),   kf(t) = min(floor(t/T), kmax)

on the evaluation lattice carried by :class:`~cbmlife.simulate.EstimateTables`,
with a measure-specific non-renewal term g and renewal mass p_k.  The lattice
is closed under t -> t - T, so it splits into chains r, r + T, r + 2T, ...
(:attr:`~cbmlife.simulate.EstimateTables.chains`).  Laid out as a matrix with
one row per chain and one column per level, every recursion is one forward
substitution over the columns, for all chains at once: memory O(N) in the
lattice size N, one vectorized step per level.  Each measure builds its g
with numpy and calls that one solver.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError, InconsistencyError, TruncationWarning
from .model import CostStructure, MaintenancePolicy
from .simulate import EstimateTables

__all__ = [
    "CostCurve",
    "PerformanceCurve",
    "expected_cost",
    "expected_cost_sq",
    "std_dev",
    "asymptotic_cost_rate",
    "availability",
    "reliability",
    "interval_reliability",
    "cost_curve",
    "performance_curve",
    "write_cost_curve_csv",
    "write_performance_curve_csv",
]


@dataclass(frozen=True)
class CostCurve:
    """Transient cost summaries on the evaluation grid."""

    times: np.ndarray
    mean: np.ndarray
    mean_sq: np.ndarray
    std: np.ndarray

    @property
    def rate(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(self.times > 0.0, self.mean / self.times, 0.0)
        return out

    def validate(self) -> None:
        if self.mean[0] != 0.0:
            raise InconsistencyError("expected cost at t=0 must be 0")
        if np.any(np.diff(self.mean) < -1e-9):
            raise InconsistencyError("expected cost must be nondecreasing")
        if np.any(self.std < 0.0):
            raise InconsistencyError("standard deviation must be nonnegative")


@dataclass(frozen=True)
class PerformanceCurve:
    """A probability-valued curve (availability, reliability, interval)."""

    times: np.ndarray
    values: np.ndarray
    kind: str

    def validate(self) -> None:
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise InconsistencyError(f"{self.kind} left [0, 1]")


def _check_policy(tables: EstimateTables, policy: MaintenancePolicy | None) -> None:
    if policy is None:
        return
    if (
        abs(policy.inspection_period - tables.T) > 1e-12
        or abs(policy.preventive_threshold - tables.M) > 1e-12
    ):
        raise GridCoverageError("policy does not match the supplied tables")


def _chain_matrix(tables: EstimateTables, values: np.ndarray) -> np.ndarray:
    """Lattice values laid out with one row per chain and one column per level."""
    row, level = tables.chains
    out = np.zeros((row.max() + 1, level.max() + 1))
    out[row, level] = values
    return out


def _chain_sum(
    tables: EstimateTables, g: np.ndarray, p: np.ndarray, v: np.ndarray | None = None
) -> np.ndarray:
    """g(t) + sum_{k=1}^{len(p)} p[k-1] u(t - kT) at every lattice time t.

    u is v when given; otherwise u is the result itself, which solves the
    renewal equation by forward substitution over the levels.
    """
    out = _chain_matrix(tables, g)
    src = out if v is None else _chain_matrix(tables, v)
    lags = np.zeros(out.shape[1])
    lags[: min(len(p), len(lags))] = p[: len(lags)]
    for j in range(1, out.shape[1]):
        out[:, j] += src[:, j - 1 :: -1] @ lags[:j]
    row, level = tables.chains
    return out[row, level]


# -- transient cost ----------------------------------------------------------

def _cost_moments(
    tables: EstimateTables, costs: CostStructure, second: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """E[C(t)] and, when second is set, E[C(t)^2] at every lattice time.

    A cycle replaced at kT costs c_x(k) = C_x + C_I (k - 1) plus its downtime;
    w_k and a_k are the first and second moments of that cost on the event
    of a replacement at kT, and a cycle still open at t has paid kf(t) C_I.
    """
    kmax = tables.kmax
    kf = np.minimum(tables.chains[1], kmax)
    k = np.arange(1, kmax + 1)
    pp, pc = tables.p_preventive[1:], tables.p_corrective[1:]
    jw = tables.joint_downtime[1 : kmax + 1]
    CI, Cd = costs.inspection, costs.downtime_rate
    cp = costs.preventive + CI * (k - 1)
    cc = costs.corrective + CI * (k - 1)
    p = pp + pc
    w = cp * pp + cc * pc + Cd * jw

    def upto_kf(x):
        return np.concatenate(([0.0], np.cumsum(x)))[kf]

    open_mass = 1.0 - upto_kf(p)
    resid = tables.residual_downtime
    mean = _chain_sum(tables, upto_kf(w) + kf * CI * open_mass + Cd * resid, p)
    if not second:
        return mean, None
    jw2 = tables.joint_downtime_sq[1 : kmax + 1]
    a = cp * cp * pp + cc * cc * pc + 2.0 * cc * Cd * jw + Cd * Cd * jw2
    # Squaring (c_x(k) + D) + C(t - kT) leaves the cross term 2 w_k E[C(t - kT)].
    cross = _chain_sum(tables, np.zeros_like(mean), w, mean)
    g = upto_kf(a) + 2.0 * cross + (kf * CI) ** 2 * open_mass
    g += 2.0 * kf * CI * Cd * resid + Cd * Cd * tables.residual_downtime_sq
    return mean, _chain_sum(tables, g, p)


def _std(mean, mean_sq):
    var = mean_sq - mean * mean
    if np.any(var < -1e-6 * mean * mean):
        raise InconsistencyError("negative variance beyond the noise clamp")
    return np.sqrt(np.maximum(var, 0.0))


def expected_cost(
    tables: EstimateTables,
    costs: CostStructure,
    policy: MaintenancePolicy | None = None,
    t: float = 0.0,
) -> float:
    """E[C(t)] via the cost renewal recursion."""
    _check_policy(tables, policy)
    i = tables.index_of(t)
    return float(_cost_moments(tables, costs, second=False)[0][i])


def expected_cost_sq(
    tables: EstimateTables,
    costs: CostStructure,
    policy: MaintenancePolicy | None = None,
    t: float = 0.0,
) -> float:
    """E[C(t)^2] via the second-moment recursion with its cross terms."""
    _check_policy(tables, policy)
    i = tables.index_of(t)
    return float(_cost_moments(tables, costs)[1][i])


def std_dev(
    tables: EstimateTables,
    costs: CostStructure,
    policy: MaintenancePolicy | None = None,
    t: float = 0.0,
) -> float:
    """Standard deviation of the transient cost at t."""
    _check_policy(tables, policy)
    i = tables.index_of(t)
    mean, mean_sq = _cost_moments(tables, costs)
    return float(_std(mean[i], mean_sq[i]))


def cost_curve(tables: EstimateTables, costs: CostStructure) -> CostCurve:
    """Full transient cost curve on the evaluation grid."""
    mean, mean_sq = _cost_moments(tables, costs)
    curve = CostCurve(
        times=tables.times, mean=mean, mean_sq=mean_sq, std=_std(mean, mean_sq)
    )
    curve.validate()
    return curve


def asymptotic_cost_rate(
    tables: EstimateTables,
    costs: CostStructure,
    policy: MaintenancePolicy | None = None,
) -> float:
    """Long-run expected cost per time unit (renewal reward ratio)."""
    _check_policy(tables, policy)
    if tables.censored_fraction >= 0.01:
        warnings.warn(
            f"censored mass {tables.censored_fraction:.3f} >= 1%; "
            "asymptotic sums are truncated",
            TruncationWarning,
            stacklevel=2,
        )
    ks = np.arange(1, tables.kmax + 1)
    pp = tables.p_preventive[1:]
    pc = tables.p_corrective[1:]
    numerator = float(
        np.sum(
            costs.corrective * pc
            + costs.preventive * pp
            + costs.inspection * (ks - 1) * (pp + pc)
        )
        + costs.downtime_rate * tables.joint_downtime[1 : tables.kmax + 1].sum()
    )
    denominator = float(np.sum(ks * tables.T * (pp + pc)))
    if denominator == 0.0:
        raise InconsistencyError("no replacement mass observed; rate undefined")
    return numerator / denominator


# -- performance measures ----------------------------------------------------

def _survival(tables: EstimateTables, preventive_only: bool) -> np.ndarray:
    """Availability, or reliability when only preventive replacements renew."""
    p = tables.p_preventive[1:]
    if not preventive_only:
        p = p + tables.p_corrective[1:]
    return _chain_sum(tables, tables.alive_no_replacement, p)


def availability(tables: EstimateTables, t: float) -> float:
    """P[system working at t]."""
    i = tables.index_of(t)
    return float(_survival(tables, preventive_only=False)[i])


def reliability(tables: EstimateTables, t: float) -> float:
    """P[no failure in (0, t]]; only preventive replacements renew it."""
    i = tables.index_of(t)
    return float(_survival(tables, preventive_only=True)[i])


def _check_length(s: float) -> None:
    if not (math.isfinite(s) and s >= 0.0):
        raise GridCoverageError(f"interval length s={s} must be finite and nonnegative")


def _interval(tables: EstimateTables, s: float) -> np.ndarray:
    """IR(t, t+s) at every lattice t; NaN where t+s is off the lattice.

    The non-renewal term is P[no replacement by t+s] plus, for each
    inspection k with kf(t) < k <= kf(t+s), a preventive renewal at kT
    followed by survival to t+s: p_p(k) R(t+s-kT).
    """
    end = tables.indices_of(tables.times + s)
    on_grid = end >= 0
    if (np.diff(_chain_matrix(tables, on_grid)) > 0).any():
        raise GridCoverageError(f"t + s is on the lattice but t - T + s is not (s={s})")
    row, level = tables.chains
    idx = np.flatnonzero(on_grid)
    end = end[idx]
    rel = _chain_matrix(tables, _survival(tables, preventive_only=True))
    kf_t = np.minimum(level[idx], tables.kmax)
    kf_end = np.minimum(level[end], tables.kmax)
    g = np.zeros(len(level))
    g[idx] = tables.alive_no_replacement[end]
    for d in range(1, int((kf_end - kf_t).max(initial=0)) + 1):
        on = kf_t + d <= kf_end
        k, e = kf_t[on] + d, end[on]
        g[idx[on]] += rel[row[e], level[e] - k] * tables.p_preventive[k]
    values = _chain_sum(tables, g, tables.p_preventive[1:] + tables.p_corrective[1:])
    values[~on_grid] = np.nan
    return values


def interval_reliability(tables: EstimateTables, t: float, s: float) -> float:
    """P[system works throughout (t, t+s]]."""
    _check_length(s)
    value = _interval(tables, s)[tables.index_of(t)]
    if math.isnan(value):
        raise GridCoverageError(f"t + s = {t + s} is not on the evaluation grid")
    return float(value)


def performance_curve(
    tables: EstimateTables, kind: str, s: float = 0.0
) -> PerformanceCurve:
    """Availability, reliability, or interval-reliability curve."""
    _check_length(s)
    times = tables.times
    if kind == "availability":
        values = _survival(tables, preventive_only=False)
    elif kind == "reliability":
        values = _survival(tables, preventive_only=True)
    elif kind == "interval_reliability":
        values = _interval(tables, s)
        keep = ~np.isnan(values)
        times, values = times[keep], values[keep]
    else:
        raise ValueError(f"unknown performance measure '{kind}'")
    curve = PerformanceCurve(times=times, values=values, kind=kind)
    curve.validate()
    return curve


# -- exports -----------------------------------------------------------------

def write_cost_curve_csv(curve: CostCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value", "stddev"])
        for t, v, s in zip(curve.times, curve.mean, curve.std):
            writer.writerow([f"{t:.6f}", f"{v:.6f}", f"{s:.6f}"])


def write_performance_curve_csv(curve: PerformanceCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(curve.times, curve.values):
            writer.writerow([f"{t:.6f}", f"{v:.6f}"])
