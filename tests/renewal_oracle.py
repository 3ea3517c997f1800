"""Top-down memoized renewal recursions: the reference for cbmlife.renewal.

Each solver evaluates its recursion one lattice time at a time, recursing on
t - kT through dicts keyed by the nanosecond lattice key, exactly as the
equations read.  They share no code with the chain solver in
:mod:`cbmlife.renewal`, which the tests compare against them to 1e-12.
Every solver reads row 0 of a one-threshold table set and returns a dict
from lattice key to value; :func:`on_lattice` lays it out over an array of
times.
"""

from __future__ import annotations

import math

import numpy as np

from cbmlife.model import CostStructure
from cbmlife.simulate import EstimateTables

_EPS = 1e-9


def _key(t: float) -> int:
    return int(round(t * 1e9))


def on_lattice(solved: dict, times) -> np.ndarray:
    return np.array([solved[_key(t)] for t in times])


def _kf(t: float, T: float, kmax: int) -> int:
    return min(int(math.floor(t / T + _EPS)), kmax)


def _cost_nonrenewal(tables, costs, idx, kf):
    """G(t) of the cost recursion: replacement, inspection, downtime terms."""
    Cc, Cp, CI, Cd = (
        costs.corrective,
        costs.preventive,
        costs.inspection,
        costs.downtime_rate,
    )
    g = 0.0
    mass = 0.0
    for k in range(1, kf + 1):
        pp = tables.p_preventive[0, k]
        pc = tables.p_corrective[0, k]
        g += (Cp + CI * (k - 1)) * pp
        g += (Cc + CI * (k - 1)) * pc
        g += Cd * tables.joint_downtime[0, k]
        mass += pp + pc
    g += kf * CI * (1.0 - mass)
    g += Cd * tables.residual_downtime[0, idx]
    return g


def _solve_cost_memo(tables: EstimateTables, costs: CostStructure) -> dict:
    T = tables.T
    Cd = costs.downtime_rate
    memo: dict[int, float] = {}

    def solve(t: float) -> float:
        key = int(round(t * 1e9))
        if key in memo:
            return memo[key]
        idx = tables.index_of(t)
        kf = _kf(t, T, tables.kmax)
        if kf == 0:
            val = Cd * tables.residual_downtime[0, idx]
        else:
            val = sum(
                solve(t - k * T)
                * (tables.p_preventive[0, k] + tables.p_corrective[0, k])
                for k in range(1, kf + 1)
            )
            val += _cost_nonrenewal(tables, costs, idx, kf)
        memo[key] = val
        return val

    for t in tables.times:
        solve(float(t))
    return memo


def _solve_cost_sq_memo(tables: EstimateTables, costs: CostStructure) -> dict:
    """E[C(t)^2]: the cost recursion squared, with its cross terms."""
    T = tables.T
    Cc, Cp, CI, Cd = (
        costs.corrective,
        costs.preventive,
        costs.inspection,
        costs.downtime_rate,
    )
    ec = _solve_cost_memo(tables, costs)
    memo: dict[int, float] = {}

    def solve(t: float) -> float:
        key = _key(t)
        if key in memo:
            return memo[key]
        idx = tables.index_of(t)
        kf = _kf(t, T, tables.kmax)
        val = 0.0
        mass = 0.0
        for k in range(1, kf + 1):
            pp = tables.p_preventive[0, k]
            pc = tables.p_corrective[0, k]
            jw = tables.joint_downtime[0, k]
            # A replacement at kT costs c + D plus C(t - kT) of the next cycle.
            before = ec[_key(t - k * T)]
            cp = Cp + CI * (k - 1)
            cc = Cc + CI * (k - 1)
            val += solve(t - k * T) * (pp + pc)
            val += (cp * cp + 2.0 * cp * before) * pp
            val += (cc * cc + 2.0 * cc * before) * pc
            val += 2.0 * (cc + before) * Cd * jw + Cd * Cd * tables.joint_downtime_sq[0, k]
            mass += pp + pc
        val += (kf * CI) ** 2 * (1.0 - mass)
        val += 2.0 * kf * CI * Cd * tables.residual_downtime[0, idx]
        val += Cd * Cd * tables.residual_downtime_sq[0, idx]
        memo[key] = val
        return val

    for t in tables.times:
        solve(float(t))
    return memo


def _solve_survival_memo(tables: EstimateTables, preventive_only: bool) -> dict:
    T = tables.T
    memo: dict[int, float] = {}

    def solve(t: float) -> float:
        key = int(round(t * 1e9))
        if key in memo:
            return memo[key]
        idx = tables.index_of(t)
        kf = _kf(t, T, tables.kmax)
        val = float(tables.alive_no_replacement[0, idx])
        for k in range(1, kf + 1):
            p = tables.p_preventive[0, k]
            if not preventive_only:
                p += tables.p_corrective[0, k]
            val += solve(t - k * T) * p
        memo[key] = val
        return val

    for t in tables.times:
        solve(float(t))
    return memo


def _solve_interval_memo(tables: EstimateTables, s: float) -> dict:
    """IR(t, t+s) at every lattice t with t+s on the lattice, for a fixed s.

    Until the last inspection kf(t) before t, a renewal restarts the
    interval; between kf(t) and kf(t+s) only a preventive renewal at kT
    keeps the system working, which must then survive to t+s.
    """
    T = tables.T
    rel = _solve_survival_memo(tables, preventive_only=True)
    lattice = {_key(t) for t in tables.times}
    memo: dict[int, float] = {}

    def solve(t: float) -> float:
        key = _key(t)
        if key in memo:
            return memo[key]
        end = t + s
        kf_t = _kf(t, T, tables.kmax)
        kf_end = _kf(end, T, tables.kmax)
        val = float(tables.alive_no_replacement[0, tables.index_of(end)])
        for k in range(kf_t + 1, kf_end + 1):
            val += rel[_key(end - k * T)] * tables.p_preventive[0, k]
        for k in range(1, kf_t + 1):
            val += solve(t - k * T) * (
                tables.p_preventive[0, k] + tables.p_corrective[0, k]
            )
        memo[key] = val
        return val

    for t in tables.times:
        if _key(t + s) in lattice:
            solve(float(t))
    return memo
