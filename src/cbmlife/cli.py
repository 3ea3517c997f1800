"""Command-line front end.

Reads a key-value config file (INI sections, ``schema = 1``), applies flag
overrides, and runs one of three commands: ``optimize`` (grid search under
either objective), ``curves`` (cost-rate sweep plus availability,
reliability, and interval-reliability tables), or ``sensitivity`` (7x7
parameter-perturbation tables).  Each command draws the rows of its policy
grid or sweep through :func:`cbmlife.optimize.estimate_grid`, in a process
pool of ``--workers`` processes when there are more than one, one row a
task; the outputs do not depend on the process count.  All outputs are
plot-ready CSV files plus a JSON run report; nothing is rendered.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import optimize as opt
from . import renewal, sensitivity
from .errors import ConfigurationError, InconsistencyError
from .model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from .simulate import SimulationConfig, chain_statistics, estimate_tables, row_seed

__all__ = ["RunConfig", "parse_config", "main"]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "CBMLIFE_OUTDIR"

log = logging.getLogger("cbmlife")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model, costs, horizon, policy, grids."""

    model: SystemModel
    costs: CostStructure
    life: LifeCycle
    policy: MaintenancePolicy
    grid: opt.PolicyGrid
    sim: SimulationConfig
    out_dir: Path
    workers: int

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, not {self.workers}")


def _get(parser_section, section: str, key: str, conv=float):
    try:
        raw = parser_section[key]
    except KeyError:
        raise ConfigurationError(f"[{section}] missing required key '{key}'")
    try:
        return conv(raw)
    except ValueError:
        raise ConfigurationError(f"[{section}] {key}: cannot parse '{raw}'")


def parse_grid_spec(spec: str) -> tuple[float, ...]:
    """Parse 'start:end[:count]'; without count, the points are unit spaced."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ConfigurationError(f"grid spec '{spec}' is not start:end[:count]")
    try:
        start, end = float(parts[0]), float(parts[1])
        count = int(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise ConfigurationError(f"grid spec '{spec}' has non-numeric fields")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigurationError(f"grid spec '{spec}' has a non-finite field")
    if count is None:
        steps = round(end - start)
        if abs(end - start - steps) > 1e-9:
            raise ConfigurationError(
                f"grid spec '{spec}' needs a count: end - start is not a whole number"
            )
        count = steps + 1
    if count < 1 or end < start:
        raise ConfigurationError(f"grid spec '{spec}' is empty")
    if count > 1 and end == start:
        raise ConfigurationError(f"grid spec '{spec}' repeats one point {count} times")
    if count == 1:
        return (start,)
    return tuple(np.linspace(start, end, count))


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"config file not found: {path}")
    if "meta" not in parser or parser["meta"].get("schema") != str(SCHEMA_VERSION):
        raise ConfigurationError(
            f"config must declare [meta] schema = {SCHEMA_VERSION}"
        )
    for section in ("model", "costs", "life", "policy", "grid", "simulation"):
        if section not in parser:
            raise ConfigurationError(f"config missing [{section}] section")
    m = parser["model"]
    model = SystemModel(
        degradation=GammaDegradation(
            alpha=_get(m, "model", "alpha"), beta=_get(m, "model", "beta")
        ),
        shocks=ShockIntensity(
            lambda1=_get(m, "model", "lambda1"), lambda2=_get(m, "model", "lambda2")
        ),
        breakdown_threshold=_get(m, "model", "breakdown_threshold"),
        shock_threshold=_get(m, "model", "shock_threshold"),
    )
    c = parser["costs"]
    costs = CostStructure(
        corrective=_get(c, "costs", "corrective"),
        preventive=_get(c, "costs", "preventive"),
        inspection=_get(c, "costs", "inspection"),
        downtime_rate=_get(c, "costs", "downtime_rate"),
    )
    life = LifeCycle(horizon=_get(parser["life"], "life", "horizon"))
    p = parser["policy"]
    policy = MaintenancePolicy(
        inspection_period=_get(p, "policy", "inspection_period"),
        preventive_threshold=_get(p, "policy", "preventive_threshold"),
    )
    g = parser["grid"]
    grid = opt.PolicyGrid(
        T_values=parse_grid_spec(_get(g, "grid", "T", str)),
        M_values=parse_grid_spec(_get(g, "grid", "M", str)),
    )
    s = parser["simulation"]
    path_step = _get(s, "simulation", "path_step") if s.get("path_step") else None
    sim = SimulationConfig(
        n_samples=_get(s, "simulation", "n_samples", int),
        path_step=path_step,
        master_seed=_get(s, "simulation", "seed", int),
        worker_streams=_get(s, "simulation", "worker_streams", int),
    )
    out_dir = Path(
        parser.get("output", "directory", fallback="")
        or os.environ.get(OUTPUT_DIR_ENV, "out")
    )
    workers = _get(s, "simulation", "workers", int) if "workers" in s else 1
    return RunConfig(
        model=model,
        costs=costs,
        life=life,
        policy=policy,
        grid=grid,
        sim=sim,
        out_dir=out_dir,
        workers=workers,
    )


def _apply_overrides(rc: RunConfig, args) -> RunConfig:
    sim = rc.sim
    if getattr(args, "samples", None) is not None:
        sim = replace(sim, n_samples=args.samples)
    if getattr(args, "seed", None) is not None:
        sim = replace(sim, master_seed=args.seed)
    if getattr(args, "delta", None) is not None:
        sim = replace(sim, path_step=args.delta)
    rc = replace(rc, sim=sim)
    if getattr(args, "workers", None) is not None:
        rc = replace(rc, workers=args.workers)
    if getattr(args, "out_dir", None) is not None:
        rc = replace(rc, out_dir=Path(args.out_dir))
    if getattr(args, "grid_T", None) is not None:
        rc = replace(rc, grid=replace(rc.grid, T_values=parse_grid_spec(args.grid_T)))
    if getattr(args, "grid_M", None) is not None:
        rc = replace(rc, grid=replace(rc.grid, M_values=parse_grid_spec(args.grid_M)))
    policy = rc.policy
    if getattr(args, "T", None) is not None:
        policy = replace(policy, inspection_period=args.T)
    if getattr(args, "M", None) is not None:
        policy = replace(policy, preventive_threshold=args.M)
    return replace(rc, policy=policy)


def _write_report(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _base_report(rc: RunConfig, started: float, files, warnings_list) -> dict:
    return {
        "seed": rc.sim.master_seed,
        "n_samples": rc.sim.n_samples,
        "worker_streams": rc.sim.worker_streams,
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
        "files": [str(f) for f in files],
        "warnings": list(warnings_list),
    }


def cmd_optimize(rc: RunConfig, args) -> int:
    started = time.perf_counter()
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    optimize = getattr(opt, f"optimize_{args.objective}")
    result = optimize(rc.model, rc.costs, rc.life, rc.grid, rc.sim, rc.workers)
    matrix_path = rc.out_dir / f"{args.objective}_matrix.csv"
    report_path = rc.out_dir / f"{args.objective}_report.json"
    opt.write_matrix_csv(result, matrix_path)
    payload = result.to_dict()
    payload.update(_base_report(rc, started, [matrix_path, report_path], result.warnings))
    _write_report(report_path, payload)
    log.info(
        "optimize %s: T_opt=%g M_opt=%g minimum=%.4f",
        args.objective, result.T_opt, result.M_opt, result.minimum,
    )
    for message in result.warnings:
        log.warning("%s", message)
    return 0


def cmd_curves(rc: RunConfig, args) -> int:
    started = time.perf_counter()
    if not (math.isfinite(args.ir_s) and args.ir_s >= 0.0):
        raise ConfigurationError(f"--ir-s {args.ir_s} must be finite and nonnegative")
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    caught: list[str] = []
    files: list[Path] = []
    tf = rc.life.horizon

    # The sweep is a grid of one row, at the policy's T, or of one
    # threshold, at the policy's M, whose rows are drawn as the grid's are.
    sweep_dim = args.sweep
    if sweep_dim == "M":
        grid = replace(rc.grid, T_values=(rc.policy.inspection_period,))
        sweep_values = grid.M_values
    else:
        grid = replace(rc.grid, M_values=(rc.policy.preventive_threshold,))
        sweep_values = grid.T_values
    policies = [MaintenancePolicy(T, M) for T in grid.T_values for M in grid.M_values]
    sweep_path = rc.out_dir / f"cost_rate_vs_{sweep_dim}.csv"
    master_seed = rc.sim.master_seed

    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        swept = list(opt.estimate_grid([rc.model], grid, rc.life, rc.sim, rc.workers))
        moments = [renewal.cost_moments(tables, rc.costs, tf) for tables in swept]
        mean, sd = (np.concatenate(m) for m in zip(*moments))
        strict_rates = []
        if args.strict_mc:
            for policy, v in zip(policies, sweep_values):
                _, totals = chain_statistics(
                    rc.model, policy, rc.costs, rc.life, rc.sim,
                    seed_sequence=row_seed(master_seed, v, 1),
                )
                strict_rates.append(float(totals.mean()) / tf)
        strict = [strict_rates] if args.strict_mc else []
        rows = list(zip(sweep_values, mean / tf, sd, *strict))

        header = [sweep_dim, "cost_rate", "stddev"] + (
            ["strict_mc_rate"] if args.strict_mc else []
        )
        with open(sweep_path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{x:.6f}" for x in row) + "\n")
        files.append(sweep_path)

        # The curves of a policy the sweep contains come from its swept
        # tables, so the run reports one estimate per policy.
        if rc.policy in policies:
            k, i = divmod(policies.index(rc.policy), len(grid.M_values))
            tables = swept[k].take(i)
        else:
            tables = estimate_tables(rc.model, rc.policy, rc.life, rc.sim)
        curve = renewal.cost_curve(tables, rc.costs)
        cost_path = rc.out_dir / "cost_curve.csv"
        renewal.write_cost_curve_csv(curve, cost_path)
        files.append(cost_path)

        avail = renewal.performance_curve(tables, "availability")
        rel = renewal.performance_curve(tables, "reliability")
        ir = renewal.performance_curve(tables, "interval_reliability", s=args.ir_s)
        mask = (ir.times >= args.ir_lo - 1e-9) & (ir.times <= args.ir_hi + 1e-9)
        ir = renewal.PerformanceCurve(
            times=ir.times[mask], values=ir.values[mask], kind=ir.kind
        )
        for curve_obj, name in (
            (avail, "availability"),
            (rel, "reliability"),
            (ir, "interval_reliability"),
        ):
            path = rc.out_dir / f"{name}.csv"
            renewal.write_performance_curve_csv(curve_obj, path)
            files.append(path)
    caught.extend(str(w.message) for w in grabbed)

    report_path = rc.out_dir / "curves_report.json"
    payload = {
        "policy": {
            "T": rc.policy.inspection_period,
            "M": rc.policy.preventive_threshold,
        },
        "cost_rate_at_horizon": float(curve.mean[-1] / tf),
        "stddev_at_horizon": float(curve.std[-1]),
        "availability_min": float(avail.values[avail.times > 0].min()),
        "reliability_at_horizon": float(rel.values[-1]),
        "interval_reliability_min": float(ir.values.min()) if len(ir.values) else None,
        "interval_s": args.ir_s,
    }
    payload.update(_base_report(rc, started, files + [report_path], caught))
    _write_report(report_path, payload)
    for message in caught:
        log.warning("%s", message)
    return 0


def cmd_sensitivity(rc: RunConfig, args) -> int:
    started = time.perf_counter()
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        name, raw = args.fixed.split("=")
        fixed = (name.strip(), float(raw))
    except ValueError:
        raise ConfigurationError("--fixed must look like T=10 or M=14")
    if fixed[0] not in ("T", "M"):
        raise ConfigurationError("--fixed dimension must be T or M")
    sweep = rc.grid.M_values if fixed[0] == "T" else rc.grid.T_values

    caught: list[str] = []
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        table_of = (
            sensitivity.gamma_sensitivity if args.target == "gamma"
            else sensitivity.shock_sensitivity
        )
        table = table_of(
            rc.model, rc.costs, rc.life, fixed, sweep, cfg=rc.sim, processes=rc.workers
        )
    caught.extend(str(w.message) for w in grabbed)

    csv_path = rc.out_dir / f"sensitivity_{args.target}.csv"
    sensitivity.write_variation_csv(table, csv_path)
    report_path = rc.out_dir / f"sensitivity_{args.target}_report.json"
    payload = {
        "target": table.target,
        "fixed": args.fixed,
        "baseline_min_cost": table.baseline_min,
        "max_variation_percent": float(table.variation.max()),
    }
    payload.update(_base_report(rc, started, [csv_path, report_path], caught))
    _write_report(report_path, payload)
    for message in caught:
        log.warning("%s", message)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the run config file")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--samples", type=int, help="override n_samples")
    sub.add_argument("--delta", type=float, help="override the path step")
    sub.add_argument(
        "--workers", type=int,
        help="worker processes; each draws one row of the grid or sweep at a time "
        "(outputs do not change)",
    )
    sub.add_argument("--out-dir", help=f"output directory (env {OUTPUT_DIR_ENV})")
    sub.add_argument("--grid-T", help="T grid as start:end[:count]")
    sub.add_argument("--grid-M", help="M grid as start:end[:count]")
    level = sub.add_mutually_exclusive_group()
    level.add_argument("--quiet", action="store_true")
    level.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbmlife",
        description="Condition-based maintenance policy evaluation and optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="grid search over (T, M)")
    _add_common(p_opt)
    p_opt.add_argument(
        "--objective", choices=("asymptotic", "transient"), default="asymptotic"
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_cur = sub.add_parser("curves", help="cost and performance curves")
    _add_common(p_cur)
    p_cur.add_argument("--T", type=float, help="override the fixed inspection period")
    p_cur.add_argument("--M", type=float, help="override the fixed threshold")
    p_cur.add_argument("--sweep", choices=("M", "T"), default="M")
    p_cur.add_argument("--strict-mc", action="store_true")
    p_cur.add_argument("--ir-s", type=float, default=5.0)
    p_cur.add_argument("--ir-lo", type=float, default=10.0)
    p_cur.add_argument("--ir-hi", type=float, default=30.0)
    p_cur.set_defaults(func=cmd_curves)

    p_sen = sub.add_parser("sensitivity", help="parameter perturbation tables")
    _add_common(p_sen)
    p_sen.add_argument("--target", choices=("gamma", "shocks"), required=True)
    p_sen.add_argument("--fixed", required=True, help="T=<value> or M=<value>")
    p_sen.set_defaults(func=cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.INFO
    if args.quiet:
        level = logging.ERROR
    elif args.verbose:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        rc = _apply_overrides(parse_config(args.config), args)
        return args.func(rc, args)
    except (ConfigurationError, InconsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
