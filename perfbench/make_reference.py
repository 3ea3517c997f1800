"""Recompute the quadrature reference values that the benchmark checks read.

Every value comes from ``tests/oracle.py``, the quadrature oracle of the
documented model, never from the Monte Carlo program:

* both cost surfaces (asymptotic and transient) over the default 10 x 30
  policy grid at t_f = 50, read by the ``grid``, ``sensitivity`` and
  ``reference`` workloads;
* the censored mass P[no replacement by k_max T] of every grid cell, which
  marks the cells whose asymptotic rate the program truncates;
* the transient cost rate over M = 1..30 at T = 5, t_f = 200, read by the
  ``long_horizon`` workload;
* the survival P[D > t] = H(t; M_s, L) of a fresh unit for t = 0, 0.5, ..., 9.5,
  which equals availability and reliability below the first inspection.

Run from the repository root (scipy required, several minutes)::

    python3 perfbench/make_reference.py

It uses one process per CPU and rewrites ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402  (tests/oracle.py)

OUT = Path(__file__).resolve().parent / "reference.json"

GRID_HORIZON = 50.0
GRID_T = [float(T) for T in np.linspace(5.0, 50.0, 10)]
GRID_M = [float(M) for M in np.linspace(1.0, 30.0, 30)]
LONG_HORIZON = 200.0
LONG_T = 5.0
LONG_M = GRID_M
SURVIVAL_T = [0.5 * j for j in range(20)]


def main() -> None:
    processes = os.cpu_count() or 1
    model, costs, _ = oracle._benchmark()
    cells = [(LONG_HORIZON, LONG_T, M) for M in LONG_M]
    cells += [(GRID_HORIZON, T, M) for T in GRID_T for M in GRID_M]
    start = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=processes, mp_context=spawn) as pool:
        values = list(pool.map(partial(_cell, model, costs), cells))
    elapsed = time.perf_counter() - start
    n_long = len(LONG_M)
    shape = (len(GRID_T), len(GRID_M))
    asymptotic = np.array([v[0] for v in values[n_long:]]).reshape(shape)
    transient = np.array([v[1] for v in values[n_long:]]).reshape(shape)
    quad = oracle.Oracle(model)
    censored = [[quad.running(T * int(GRID_HORIZON // T), M) for M in GRID_M]
                for T in GRID_T]
    survival = [1.0] + [
        float(quad.H(t, model.shock_threshold, model.breakdown_threshold))
        for t in SURVIVAL_T[1:]
    ]
    payload = {
        "command": "python3 perfbench/make_reference.py",
        "source": "tests/oracle.py",
        "nodes": oracle.NODES,
        "seconds": round(elapsed, 1),
        "grid": {
            "horizon": GRID_HORIZON,
            "T": GRID_T,
            "M": GRID_M,
            "asymptotic": asymptotic.round(6).tolist(),
            "transient": transient.round(6).tolist(),
            "censored": np.round(censored, 6).tolist(),
        },
        "long_horizon": {
            "horizon": LONG_HORIZON,
            "T": LONG_T,
            "M": LONG_M,
            "transient": [round(v[1], 6) for v in values[:n_long]],
        },
        "survival": {"t": SURVIVAL_T, "value": [round(s, 8) for s in survival]},
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    i, j = np.unravel_index(int(transient.argmin()), shape)
    print(f"{len(cells)} cells in {elapsed:.0f}s with {processes} process(es); "
          f"transient minimum {transient[i, j]:.6f} at T={GRID_T[i]:g}, M={GRID_M[j]:g}; "
          f"wrote {OUT.relative_to(ROOT)}")


def _cell(model, costs, cell):
    horizon, T, M = cell
    return oracle.cell_cost_rates(model, costs, horizon, T, M)


if __name__ == "__main__":
    main()
