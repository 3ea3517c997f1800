"""Checks of the CLI outputs against the quadrature oracle and properties of the method.

Each check reads one command's output directory and returns the problems it
found (an empty list when the outputs are right).  The reference values come
from ``reference.json``, which ``make_reference.py`` computes with
``tests/oracle.py``; nothing here is a copy of the program's own output.

Monte Carlo tolerances are ``Z`` standard errors plus a bias allowance.  The
allowance covers the simulation's known crossing-time bias: crossings are
recorded at the next point of the path grid of step delta, about delta/2
late.  Measured against the oracle over 12 seeds, it moves a cost rate by
-0.1% to -0.3% at delta = 0.1 and by -0.3% to -1.0% at delta = 0.5; the
allowance is ``BIAS_PER_STEP * delta`` of the oracle value (0.3% and 1.5%).
Each
threshold is set so that a correct program fails a check with an estimated
probability below 1e-5 per run, while a rate off by 5% fails.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A cost rate may sit BIAS_PER_STEP * delta of itself off the oracle.
BIAS_PER_STEP = 0.03
# Grid cells: batch means over 4 worker blocks give an SE with 3 degrees of
# freedom, so |error| / SE follows Student's t(3) and exceeds Z_CELL = 4 in
# 2.8% of cells.  At most MAX_SHARE of the checked cells may do so; with the
# about 88 asymptotic cells checked, more do with probability below 2e-7.
Z_CELL = 4.0
MAX_SHARE = 0.15
# Mean relative error over the checked cells: Z_MEAN standard errors.
Z_MEAN = 5.0
# The oracle value at the program's transient argmin is within this share
# of the oracle's minimum.  Drawing the 300 cells as the oracle plus normal
# noise of their batch-means SE (1.6% at n = 1000; the grid workload's
# n = 800 gives 1.12 times that), the argmin lands at most 4.2% above the
# minimum in 99.99% of 200,000 draws, and 6.4% with noise 1.5 times larger.
ARGMIN_SHARE = 0.08
# Curves report no standard error.  The SE of a recursion cost rate is taken
# as SE_FACTOR[k_max] * stddev / (t_f sqrt(n)), where stddev / (t_f sqrt(n))
# is the SE of a strict Monte Carlo rate over n life cycles.  Measured over
# 12 seeds, the factor is 1.45 at (T=10, M=14, t_f=50) and 2.9 to 5.3 over
# M at (T=5, t_f=200), larger for small M, whose cycles are short.
SE_FACTOR = {5: 2.0, 40: 6.0}
Z_RATE = 5.0
# Strict Monte Carlo against the recursion: Z_STRICT combined SE.
Z_STRICT = 4.0
# Survival below the first inspection: Z_SURVIVAL binomial SE.
Z_SURVIVAL = 5.0
# Sensitivity baseline: the minimum over the swept M of noisy cells sits
# below the oracle's row minimum; allowed band, as a share of the oracle.
BASELINE_BAND = (-0.20, 0.10)
# Last place of the six decimals the CLI writes.
ULP = 1e-6

_WARNED = re.compile(r"\(T=([0-9.e+-]+), M=([0-9.e+-]+)\) censored mass")


def load_reference(path=REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = _rows(path)
    data = np.array([[float(x) for x in row] for row in rows], dtype=float)
    return {name: data[:, i] for i, name in enumerate(header)}


def _key(T: float, M: float) -> tuple[float, float]:
    return (round(T, 6), round(M, 6))


def oracle_surface(ref: dict, objective: str) -> dict:
    grid = ref["grid"]
    return {
        _key(T, M): grid[objective][i][j]
        for i, T in enumerate(grid["T"])
        for j, M in enumerate(grid["M"])
    }


def _cells_check(values, stderr, oracle, allowance, label) -> list[str]:
    """Per-cell and mean tolerances of Monte Carlo rates against oracle values."""
    problems = []
    if not (np.isfinite(values).all() and np.isfinite(stderr).all()):
        return [f"{label}: non-finite value or standard error"]
    beyond = np.abs(values - oracle) > Z_CELL * stderr + allowance * oracle
    share = beyond.mean()
    if share > MAX_SHARE:
        problems.append(
            f"{label}: {beyond.sum()} of {len(values)} cells ({share:.1%}) are more "
            f"than {Z_CELL:g} SE + the bias allowance off the oracle "
            f"(at most {MAX_SHARE:.0%})"
        )
    problems += _mean_check(values, stderr, oracle, allowance, label)
    return problems


def _mean_check(values, stderr, oracle, allowance, label) -> list[str]:
    """The mean relative error of independent estimates, within Z_MEAN SE."""
    rel = values / oracle - 1.0
    rel_se = math.sqrt(np.mean((stderr / oracle) ** 2) / len(values))
    limit = np.mean(allowance) + Z_MEAN * rel_se
    if not abs(rel.mean()) <= limit:
        return [f"{label}: mean relative error {rel.mean():+.3%} exceeds {limit:.3%}"]
    return []


def check_optimize(out: Path, ref: dict, objective: str) -> list[str]:
    """``optimize --objective <objective>`` over the default grid."""
    cols = _columns(out / f"{objective}_matrix.csv")
    with open(out / f"{objective}_report.json") as fh:
        report = json.load(fh)
    surface = oracle_surface(ref, objective)
    censored = oracle_surface(ref, "censored")
    keys = [_key(T, M) for T, M in zip(cols["T"], cols["M"])]
    if len(keys) != len(surface) or set(keys) != set(surface):
        return [f"{objective}: matrix does not cover the oracle grid"]
    use = np.ones(len(keys), dtype=bool)
    if objective == "asymptotic":
        # The program truncates the renewal-reward sums at k_max; cells it
        # warns about, or whose censored mass is near its 1% warning level,
        # are left out, so a fix of the truncation does not fail the check.
        warned = {_key(float(T), float(M)) for T, M in _WARNED.findall(
            " ".join(report["warnings"]))}
        use = np.array([k not in warned and censored[k] < 0.005 for k in keys])
    oracle = np.array([surface[k] for k in keys])
    allowance = BIAS_PER_STEP * cols["T"] / 100.0  # delta = T/100
    problems = _cells_check(cols["value"][use], cols["stderr"][use], oracle[use],
                            allowance[use], objective)
    if abs(report["minimum"] - cols["value"].min()) > ULP:
        problems.append(f"{objective}: report minimum {report['minimum']} is not "
                        f"the matrix minimum {cols['value'].min()}")
    if objective == "transient":
        best = min(surface.values())
        at_argmin = surface.get(_key(report["T_opt"], report["M_opt"]), math.inf)
        if at_argmin > best * (1.0 + ARGMIN_SHARE):
            problems.append(
                f"transient argmin (T={report['T_opt']:g}, M={report['M_opt']:g}) has "
                f"oracle rate {at_argmin:.4f}, more than {ARGMIN_SHARE:.0%} above "
                f"the oracle minimum {best:.4f}"
            )
    return problems


def check_sensitivity(out: Path, ref: dict, horizon: float) -> list[str]:
    """``sensitivity --target gamma --fixed T=10`` over the swept M."""
    problems = []
    header, rows = _rows(out / "sensitivity_gamma.csv")
    labels = [h.rstrip("%") for h in header[1:]]
    table = np.array([[float(x) for x in row[1:]] for row in rows])
    if table.shape != (len(labels), len(labels)):
        return ["sensitivity: table is not square"]
    if not np.isfinite(table).all() or (table < 0.0).any():
        problems.append("sensitivity: an entry is negative or not finite")
    zero = labels.index("0")
    if table[zero, zero] != 0.0:
        problems.append(
            f"sensitivity: the (0%, 0%) cell is {table[zero, zero]}, not exactly 0 "
            "(common random numbers make it the baseline)"
        )
    with open(out / "sensitivity_gamma_report.json") as fh:
        report = json.load(fh)
    if abs(report["max_variation_percent"] - table.max()) > 1e-4:
        problems.append("sensitivity: report maximum is not the table maximum")
    grid = ref["grid"]
    best = min(grid["transient"][grid["T"].index(10.0)])
    rate = report["baseline_min_cost"] / horizon
    low, high = BASELINE_BAND
    if not best * (1.0 + low) <= rate <= best * (1.0 + high):
        problems.append(
            f"sensitivity: baseline minimum rate {rate:.4f} is outside "
            f"[{low:+.0%}, {high:+.0%}] of the oracle's T=10 minimum {best:.4f}"
        )
    return problems


def check_curves(out: Path, ref: dict, workload) -> list[str]:
    """``curves``: swept rates, the cost curve and the three performance curves."""
    problems = []
    T, horizon, n = workload.T, workload.horizon, workload.n_samples
    with open(out / "curves_report.json") as fh:
        report = json.load(fh)
    allowance = BIAS_PER_STEP * _delta(workload)
    factor = SE_FACTOR[int(horizon // T)]
    if horizon == ref["grid"]["horizon"]:
        oracle = oracle_surface(ref, "transient")
        oracle_rate = {M: v for (T_, M), v in oracle.items() if T_ == round(T, 6)}
    else:
        lh = ref["long_horizon"]
        if (lh["horizon"], lh["T"]) != (horizon, T):
            return [f"curves: no oracle row for T={T:g}, t_f={horizon:g}"]
        oracle_rate = {round(M, 6): v for M, v in zip(lh["M"], lh["transient"])}

    sweep = _columns(out / "cost_rate_vs_M.csv")
    rates = np.append(sweep["cost_rate"], report["cost_rate_at_horizon"])
    strict_se = np.append(sweep["stddev"], report["stddev_at_horizon"]) / (
        horizon * math.sqrt(n))
    Ms = np.append(sweep["M"], workload.M)
    if any(round(M, 6) not in oracle_rate for M in Ms):
        return [f"curves: swept M values {Ms.tolist()} are off the oracle row"]
    oracle = np.array([oracle_rate[round(M, 6)] for M in Ms])
    se = factor * strict_se
    for M, rate, o, e in zip(Ms, rates, oracle, se):
        if not abs(rate - o) <= Z_RATE * e + allowance * o:
            problems.append(f"cost rate at M={M:g}: {rate:.4f} against the oracle's "
                            f"{o:.4f} (allowed {Z_RATE:g} x {e:.4f} + {allowance:.2%})")
    # The swept rates have independent seeds; the last rate repeats one of them.
    problems += _mean_check(rates[:-1], se[:-1], oracle[:-1], allowance, "swept cost_rate")
    if "strict_mc_rate" in sweep:
        combined = strict_se[:-1] * math.sqrt(1.0 + factor**2)
        gap = sweep["strict_mc_rate"] - sweep["cost_rate"]
        for M, g, c in zip(sweep["M"], gap, combined):
            if not abs(g) <= Z_STRICT * c:
                problems.append(f"strict_mc_rate at M={M:g} is {g:+.4f} off the "
                                f"recursion (allowed {Z_STRICT:g} x {c:.4f})")

    cost = _columns(out / "cost_curve.csv")
    if cost["value"][0] != 0.0 or (np.diff(cost["value"]) < -ULP).any():
        problems.append("cost curve: expected cost is not nondecreasing from 0")
    if (cost["stddev"] < 0.0).any():
        problems.append("cost curve: negative standard deviation")
    if abs(report["cost_rate_at_horizon"] - cost["value"][-1] / horizon) > ULP * 10:
        problems.append("cost_rate_at_horizon is not the cost curve's last rate")

    _, a_rows = _rows(out / "availability.csv")
    _, r_rows = _rows(out / "reliability.csv")
    a_t = np.array([float(r[0]) for r in a_rows])
    a = np.array([float(r[1]) for r in a_rows])
    r = np.array([float(r[1]) for r in r_rows])
    if len(r) != len(a) or (a < r).any():
        problems.append("availability is below reliability")
    if ((a < 0.0) | (a > 1.0)).any() or ((r < 0.0) | (r > 1.0)).any():
        problems.append("availability or reliability outside [0, 1]")
    survival = dict(zip(ref["survival"]["t"], ref["survival"]["value"]))
    for i in np.flatnonzero(a_t < T - 1e-9):
        if a_rows[i][1] != r_rows[i][1]:
            problems.append(f"A({a_t[i]:g}) != R({a_t[i]:g}) below the first inspection")
            break
        s = survival.get(round(float(a_t[i]), 6))
        if s is None:
            problems.append(f"no oracle survival at t={a_t[i]:g}")
            break
        se = math.sqrt(s * (1.0 - s) / n)
        if abs(a[i] - s) > Z_SURVIVAL * se + ULP:
            problems.append(f"A({a_t[i]:g}) = {a[i]:.6f} against the oracle's "
                            f"P[D > t] = {s:.6f} (allowed {Z_SURVIVAL:g} x {se:.6f})")
    ir = _columns(out / "interval_reliability.csv")
    a_at = {round(t, 6): v for t, v in zip(a_t, a)}
    s = report["interval_s"]
    for t, v in zip(ir["t"], ir["value"]):
        end = a_at.get(round(t + s, 6))
        if end is None or v > end:
            problems.append(f"IR({t:g}, {s:g}) = {v} exceeds A({t + s:g}) = {end}")
            break
    return problems


def _delta(workload) -> float:
    for command in workload.commands:
        if "--delta" in command:
            return float(command[command.index("--delta") + 1])
    return workload.T / 100.0


def check_round(workload, out: Path, ref: dict) -> list[list[str]]:
    """Problems of each of the round's commands, in order."""
    found = []
    for command in workload.commands:
        try:
            if command[0] == "optimize":
                found.append(check_optimize(out, ref, command[2]))
            elif command[0] == "sensitivity":
                found.append(check_sensitivity(out, ref, workload.horizon))
            else:
                found.append(check_curves(out, ref, workload))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found.append([f"{command[0]}: unreadable output ({type(exc).__name__}: {exc})"])
    return found
