"""Markov renewal recursions over Monte Carlo estimate tables.

All five measures (expected transient cost, its second moment and standard
deviation, availability, reliability, interval reliability) satisfy renewal
equations of the form

    V(t) = g(t) + sum_{k=1}^{kf(t)} p_k V(t - kT),   kf(t) = min(floor(t/T), kmax)

on the evaluation lattice carried by :class:`~cbmlife.simulate.EstimateTables`,
with a measure-specific non-renewal term g and renewal mass p_k.  The lattice
is closed under t -> t - T, so it splits into chains r, r + T, r + 2T, ...
(:attr:`~cbmlife.simulate.Lattice.chains`).  Laid out as a matrix with one
row per chain and one column per level, every recursion is one forward
substitution over the columns, for all chains at once: memory O(N) in the
lattice size N, one vectorized step per level.

The thresholds of one inspection period share one lattice, so the solver's
leading batch axis is the threshold axis of a table set: each measure builds
the R non-renewal terms of its R rows with numpy and solves them all in one
substitution.  The row measures (:func:`expected_costs`,
:func:`cost_moments`, :func:`asymptotic_cost_rates`) evaluate every row,
row r bit for bit as the one-policy measure of ``tables.take(r)``; on
``tables.batches()`` they give the batch means of each threshold's worker
blocks.  The one-policy measures take a table set of one row (R = 1), and
raise ValueError on more.  Every measure returns numbers or arrays, a whole
curve as a :class:`CostCurve` or :class:`PerformanceCurve`; nothing here
writes a file (the command line writes the curves as CSV).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError, InconsistencyError, TruncationWarning
from .model import CostStructure
from .simulate import EstimateTables

__all__ = [
    "CostCurve",
    "PerformanceCurve",
    "expected_cost",
    "expected_costs",
    "std_dev",
    "cost_moments",
    "asymptotic_cost_rate",
    "asymptotic_cost_rates",
    "truncation_note",
    "availability",
    "reliability",
    "interval_reliability",
    "cost_curve",
    "performance_curve",
]


@dataclass(frozen=True)
class CostCurve:
    """Transient cost summaries on the evaluation grid."""

    times: np.ndarray
    mean: np.ndarray
    mean_sq: np.ndarray
    std: np.ndarray

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


def _chain_matrix(chains, values: np.ndarray) -> np.ndarray:
    """(R, N) lattice values laid out as (R, chain, level)."""
    row, level = chains
    out = np.zeros((len(values), row.max() + 1, level.max() + 1))
    out[:, row, level] = values
    return out


def _chain_sum(chains, g: np.ndarray, p: np.ndarray, v: np.ndarray | None = None):
    """g(t) + sum_{k=1}^{K} p[:, k-1] u(t - kT) at every lattice time t, per row.

    ``g`` is (R, N) over the lattice of ``chains`` and ``p`` is (R, K).  u
    is v when given; otherwise u is the result itself, which solves the R
    renewal equations together by forward substitution over the levels.
    """
    out = _chain_matrix(chains, g)
    src = out if v is None else _chain_matrix(chains, v)
    lags = np.zeros((len(out), out.shape[2]))
    lags[:, : min(p.shape[1], lags.shape[1])] = p[:, : lags.shape[1]]
    # numpy multiplies the reversed (negative-stride) view without BLAS, term
    # by term in order, so each row sums exactly as a solve of its own.
    for j in range(1, out.shape[2]):
        lagged = np.matmul(src[:, :, j - 1 :: -1], lags[:, :j, None])
        out[:, :, j] += lagged[:, :, 0]
    row, level = chains
    return out[:, row, level]


def _check_one_policy(tables: EstimateTables) -> None:
    if len(tables.Ms) != 1:
        raise ValueError(
            f"a one-policy measure needs a table set of R = 1 threshold, not "
            f"R = {len(tables.Ms)}; take one with tables.take(i)"
        )


# -- transient cost ----------------------------------------------------------

def _cost_moments(
    tables: EstimateTables, costs: CostStructure, second: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """E[C(t)] and, when second is set, E[C(t)^2] at every lattice time, per row.

    A cycle replaced at kT costs c_x(k) = C_x + C_I (k - 1) plus its downtime;
    w_k and a_k are the first and second moments of that cost on the event
    of a replacement at kT, and a cycle still open at t has paid kf(t) C_I.
    """
    kmax = tables.kmax
    chains = tables.lattice.chains
    kf = np.minimum(chains[1], kmax)
    k = np.arange(1, kmax + 1)
    pp, pc = tables.p_preventive[:, 1:], tables.p_corrective[:, 1:]
    jw = tables.joint_downtime[:, 1 : kmax + 1]
    CI, Cd = costs.inspection, costs.downtime_rate
    cp = costs.preventive + CI * (k - 1)
    cc = costs.corrective + CI * (k - 1)
    p = pp + pc
    w = cp * pp + cc * pc + Cd * jw

    def upto_kf(x):
        sums = np.concatenate((np.zeros((len(x), 1)), np.cumsum(x, axis=1)), axis=1)
        return sums[:, kf]

    open_mass = 1.0 - upto_kf(p)
    resid = tables.residual_downtime
    mean = _chain_sum(chains, upto_kf(w) + kf * CI * open_mass + Cd * resid, p)
    if not second:
        return mean, None
    jw2 = tables.joint_downtime_sq[:, 1 : kmax + 1]
    a = cp * cp * pp + cc * cc * pc + 2.0 * cc * Cd * jw + Cd * Cd * jw2
    # Squaring (c_x(k) + D) + C(t - kT) leaves the cross term 2 w_k E[C(t - kT)].
    cross = _chain_sum(chains, np.zeros_like(mean), w, mean)
    g = upto_kf(a) + 2.0 * cross + (kf * CI) ** 2 * open_mass
    g += 2.0 * kf * CI * Cd * resid + Cd * Cd * tables.residual_downtime_sq
    return mean, _chain_sum(chains, g, p)


def _std(mean, mean_sq):
    var = mean_sq - mean * mean
    if np.any(var < -1e-6 * mean * mean):
        raise InconsistencyError("negative variance beyond the noise clamp")
    return np.sqrt(np.maximum(var, 0.0))


def expected_costs(tables: EstimateTables, costs: CostStructure, t: float) -> np.ndarray:
    """E[C(t)] of every row of the table set, from one solve."""
    i = tables.lattice.index_of(t)
    return _cost_moments(tables, costs, second=False)[0][:, i]


def cost_moments(
    tables: EstimateTables, costs: CostStructure, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """E[C(t)] and the standard deviation of C(t) of every row, from one solve."""
    i = tables.lattice.index_of(t)
    mean, mean_sq = _cost_moments(tables, costs)
    return mean[:, i], _std(mean[:, i], mean_sq[:, i])


def expected_cost(tables: EstimateTables, costs: CostStructure, t: float) -> float:
    """E[C(t)] via the cost renewal recursion."""
    _check_one_policy(tables)
    return float(expected_costs(tables, costs, t)[0])


def std_dev(tables: EstimateTables, costs: CostStructure, t: float) -> float:
    """Standard deviation of the transient cost at t."""
    _check_one_policy(tables)
    return float(cost_moments(tables, costs, t)[1][0])


def cost_curve(tables: EstimateTables, costs: CostStructure) -> CostCurve:
    """Full transient cost curve on the evaluation grid."""
    _check_one_policy(tables)
    mean, mean_sq = (m[0] for m in _cost_moments(tables, costs))
    curve = CostCurve(
        times=tables.times, mean=mean, mean_sq=mean_sq, std=_std(mean, mean_sq)
    )
    curve.validate()
    return curve


def asymptotic_cost_rates(tables: EstimateTables, costs: CostStructure) -> np.ndarray:
    """Long-run expected cost per time unit of every row (renewal reward ratio).

    A row without replacement mass has no rate: NaN.  Nothing warns of
    truncation here; see :func:`truncation_note`.
    """
    kmax = tables.kmax
    ks = np.arange(1, kmax + 1)
    pp = tables.p_preventive[:, 1:]
    pc = tables.p_corrective[:, 1:]
    numerator = np.sum(
        costs.corrective * pc
        + costs.preventive * pp
        + costs.inspection * (ks - 1) * (pp + pc),
        axis=1,
    ) + costs.downtime_rate * tables.joint_downtime[:, 1 : kmax + 1].sum(axis=1)
    denominator = np.sum(ks * tables.lattice.T * (pp + pc), axis=1)
    rates = np.full(len(denominator), np.nan)
    np.divide(numerator, denominator, out=rates, where=denominator != 0.0)
    return rates


def truncation_note(censored_fraction: float) -> str | None:
    """The truncation warning of a table set with this censored mass, if any."""
    if censored_fraction >= 0.01:
        return (
            f"censored mass {censored_fraction:.3f} >= 1%; "
            "asymptotic sums are truncated"
        )
    return None


def asymptotic_cost_rate(tables: EstimateTables, costs: CostStructure) -> float:
    """Long-run expected cost per time unit (renewal reward ratio)."""
    _check_one_policy(tables)
    note = truncation_note(tables.censored_fraction[0])
    if note is not None:
        warnings.warn(note, TruncationWarning, stacklevel=2)
    rate = float(asymptotic_cost_rates(tables, costs)[0])
    if math.isnan(rate):
        raise InconsistencyError("no replacement mass observed; rate undefined")
    return rate


# -- performance measures ----------------------------------------------------

def _survival(tables: EstimateTables, preventive_only: bool) -> np.ndarray:
    """Availability, or reliability when only preventive replacements renew."""
    p = tables.p_preventive[:, 1:]
    if not preventive_only:
        p = p + tables.p_corrective[:, 1:]
    return _chain_sum(tables.lattice.chains, tables.alive_no_replacement, p)


def availability(tables: EstimateTables, t: float) -> float:
    """P[system working at t]."""
    _check_one_policy(tables)
    i = tables.index_of(t)
    return float(_survival(tables, preventive_only=False)[0, i])


def reliability(tables: EstimateTables, t: float) -> float:
    """P[no failure in (0, t]]; only preventive replacements renew it."""
    _check_one_policy(tables)
    i = tables.index_of(t)
    return float(_survival(tables, preventive_only=True)[0, i])


def _check_length(s: float) -> None:
    if not (math.isfinite(s) and s >= 0.0):
        raise GridCoverageError(f"interval length s={s} must be finite and nonnegative")


def _interval(tables: EstimateTables, s: float) -> np.ndarray:
    """IR(t, t+s) at every lattice t, per row; NaN where t+s is off the lattice.

    The non-renewal term is P[no replacement by t+s] plus, for each
    inspection k with kf(t) < k <= kf(t+s), a preventive renewal at kT
    followed by survival to t+s: p_p(k) R(t+s-kT).
    """
    lattice = tables.lattice
    chains = lattice.chains
    end = lattice.indices_of(lattice.times + s)
    on_grid = end >= 0
    if (np.diff(_chain_matrix(chains, on_grid[None])) > 0).any():
        raise GridCoverageError(f"t + s is on the lattice but t - T + s is not (s={s})")
    row, level = chains
    idx = np.flatnonzero(on_grid)
    end = end[idx]
    rel = _chain_matrix(chains, _survival(tables, preventive_only=True))
    kf_t = np.minimum(level[idx], tables.kmax)
    kf_end = np.minimum(level[end], tables.kmax)
    g = np.zeros((len(rel), len(level)))
    g[:, idx] = tables.alive_no_replacement[:, end]
    for d in range(1, int((kf_end - kf_t).max(initial=0)) + 1):
        on = kf_t + d <= kf_end
        k, e = kf_t[on] + d, end[on]
        g[:, idx[on]] += rel[:, row[e], level[e] - k] * tables.p_preventive[:, k]
    p = tables.p_preventive[:, 1:] + tables.p_corrective[:, 1:]
    values = _chain_sum(chains, g, p)
    values[:, ~on_grid] = np.nan
    return values


def interval_reliability(tables: EstimateTables, t: float, s: float) -> float:
    """P[system works throughout (t, t+s]]."""
    _check_one_policy(tables)
    _check_length(s)
    value = _interval(tables, s)[0, tables.index_of(t)]
    if math.isnan(value):
        raise GridCoverageError(f"t + s = {t + s} is not on the evaluation grid")
    return float(value)


def performance_curve(
    tables: EstimateTables, kind: str, s: float = 0.0
) -> PerformanceCurve:
    """Availability, reliability, or interval-reliability curve."""
    _check_one_policy(tables)
    _check_length(s)
    times = tables.times
    if kind == "availability":
        values = _survival(tables, preventive_only=False)[0]
    elif kind == "reliability":
        values = _survival(tables, preventive_only=True)[0]
    elif kind == "interval_reliability":
        values = _interval(tables, s)[0]
        keep = ~np.isnan(values)
        times, values = times[keep], values[keep]
    else:
        raise ValueError(f"unknown performance measure '{kind}'")
    curve = PerformanceCurve(times=times, values=values, kind=kind)
    curve.validate()
    return curve
