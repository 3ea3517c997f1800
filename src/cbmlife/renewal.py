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
leading batch axis is the threshold axis of a table set: every measure
evaluates all R rows of a table set, building their R non-renewal terms
with numpy and solving them in one substitution, row r bit for bit as the
same measure of ``tables.take(r)``.  On ``tables.batches()`` the measures
give the batch means of each threshold's worker blocks.
:func:`expected_cost`, :func:`std_dev` and :func:`asymptotic_cost_rate`
return one value a row, of shape (R,); :func:`cost_curve` and
:func:`performance_curve` return whole (R, N) curves over the lattice, as a
:class:`CostCurve` or a :class:`PerformanceCurve`, each checked on every row.
Nothing here warns or writes a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError, InconsistencyError
from .model import CostStructure
from .simulate import EstimateTables

__all__ = [
    "CostCurve",
    "PerformanceCurve",
    "expected_cost",
    "std_dev",
    "asymptotic_cost_rate",
    "cost_curve",
    "performance_curve",
]


@dataclass(frozen=True)
class CostCurve:
    """E[C(t)], E[C(t)^2] and the SD of C(t) of every row: (R, N) over ``times``."""

    times: np.ndarray
    mean: np.ndarray
    mean_sq: np.ndarray
    std: np.ndarray

    def validate(self) -> None:
        if np.any(self.mean[:, 0] != 0.0):
            raise InconsistencyError("expected cost at t=0 must be 0")
        if np.any(np.diff(self.mean, axis=1) < -1e-9):
            raise InconsistencyError("expected cost must be nondecreasing")
        if np.any(self.std < 0.0):
            raise InconsistencyError("standard deviation must be nonnegative")


@dataclass(frozen=True)
class PerformanceCurve:
    """A(t), R(t) and IR(t, t + s) of every row: (R, N) over ``times``.

    ``interval`` is NaN at each t whose t + s is off the lattice.
    """

    times: np.ndarray
    availability: np.ndarray
    reliability: np.ndarray
    interval: np.ndarray

    def validate(self) -> None:
        for name in ("availability", "reliability", "interval"):
            values = getattr(self, name)  # NaN compares false
            if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
                raise InconsistencyError(f"{name} left [0, 1]")


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


def expected_cost(tables: EstimateTables, costs: CostStructure, t: float) -> np.ndarray:
    """E[C(t)] of every row, (R,), via the cost renewal recursion."""
    i = tables.lattice.index_of(t)
    return _cost_moments(tables, costs, second=False)[0][:, i]


def std_dev(tables: EstimateTables, costs: CostStructure, t: float) -> np.ndarray:
    """Standard deviation of the transient cost at t of every row, (R,)."""
    i = tables.lattice.index_of(t)
    mean, mean_sq = _cost_moments(tables, costs)
    return _std(mean[:, i], mean_sq[:, i])


def cost_curve(tables: EstimateTables, costs: CostStructure) -> CostCurve:
    """The transient cost curves of every row on the evaluation lattice."""
    mean, mean_sq = _cost_moments(tables, costs)
    curve = CostCurve(tables.lattice.times, mean, mean_sq, _std(mean, mean_sq))
    curve.validate()
    return curve


def asymptotic_cost_rate(tables: EstimateTables, costs: CostStructure) -> np.ndarray:
    """Long-run expected cost per time unit of every row (renewal reward ratio).

    The sums stop at k_max, so censored mass truncates them.  A row without
    replacement mass has no rate: NaN.
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


# -- performance measures ----------------------------------------------------

def _interval(tables, s, alive, pp, renew, reliability) -> np.ndarray:
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
    rel = _chain_matrix(chains, reliability)
    kf_t = np.minimum(level[idx], tables.kmax)
    kf_end = np.minimum(level[end], tables.kmax)
    g = np.zeros((len(rel), len(level)))
    g[:, idx] = alive[:, end]
    for d in range(1, int((kf_end - kf_t).max(initial=0)) + 1):
        on = kf_t + d <= kf_end
        k, e = kf_t[on] + d, end[on]
        g[:, idx[on]] += rel[:, row[e], level[e] - k] * pp[:, k]
    values = _chain_sum(chains, g, renew)
    values[:, ~on_grid] = np.nan
    return values


def performance_curve(tables: EstimateTables, s: float = 0.0) -> PerformanceCurve:
    """Availability, reliability and IR(t, t + s) curves of every row.

    Availability renews at every replacement, reliability (no failure in
    (0, t]) only at a preventive one; the interval curve reuses the
    reliability solve.
    """
    if not (math.isfinite(s) and s >= 0.0):
        raise GridCoverageError(f"interval length s={s} must be finite and nonnegative")
    chains = tables.lattice.chains
    pp, alive = tables.p_preventive, tables.alive_no_replacement
    renew = pp[:, 1:] + tables.p_corrective[:, 1:]
    reliability = _chain_sum(chains, alive, pp[:, 1:])
    curve = PerformanceCurve(
        times=tables.lattice.times,
        availability=_chain_sum(chains, alive, renew),
        reliability=reliability,
        interval=_interval(tables, s, alive, pp, renew, reliability),
    )
    curve.validate()
    return curve
