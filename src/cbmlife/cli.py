"""Command-line front end.

Reads a key-value config file (INI sections, ``schema = 1``), writes each
given override flag into its config key, builds and validates the effective
config once, and runs one of three commands: ``optimize`` (grid search under
either objective), ``curves`` (cost-rate sweep plus availability,
reliability, and interval-reliability tables), or ``sensitivity`` (7x7
parameter-perturbation tables).  Each command draws the rows of its policy
grid or sweep through :func:`cbmlife.optimize.estimate_grid`, in a process
pool of ``--workers`` processes when there are more than one, one row a
task; the outputs do not depend on the process count.  A command writes
nothing: it returns its tables, each a header and rows under a file name,
and its report's payload.  The runner then makes the output directory and
writes every table as a plot-ready CSV file, numbers to six decimals and
lines ended by ``\n``, plus a JSON run report; nothing is rendered.  A
command that refuses its own flags therefore leaves no directory behind.

Since a flag is only a config key, a config that is invalid on its own runs
once a flag mends it (``curves --T 10`` over ``inspection_period = 0``), and
a flag is refused with the message of its key.  The output directory is
``--out-dir``, else the ``[output] directory`` key, else the
``CBMLIFE_OUTDIR`` environment variable, else ``out``.  Besides each value's
own checks, the build refuses a horizon below every inspection period of the
policy and the grid, and a cost whose total over the horizon, or its square,
overflows, before anything is drawn.
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
from dataclasses import dataclass, fields, replace
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
from .simulate import (Lattice, SimulationConfig, chain_statistics, estimate_tables,
                       eval_times, row_seed)

__all__ = ["RunConfig", "parse_config", "main"]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "CBMLIFE_OUTDIR"
COMMANDS = ("optimize", "curves", "sensitivity")

# Each override flag, declared once: the [section] key it writes before the
# config is built, the commands that take it, and its help.
OVERRIDES = (
    ("--seed", "simulation", "seed", COMMANDS, "master seed (nonnegative)"),
    ("--samples", "simulation", "n_samples", COMMANDS, "paths per threshold"),
    ("--delta", "simulation", "path_step", COMMANDS, "path step (default T/100)"),
    ("--workers", "simulation", "workers", COMMANDS,
     "worker processes; each draws one row of the grid or sweep at a time "
     "(outputs do not change)"),
    ("--out-dir", "output", "directory", COMMANDS,
     f"output directory (else the config key, then env {OUTPUT_DIR_ENV})"),
    ("--grid-T", "grid", "T", COMMANDS, "T grid as start:end[:count]"),
    ("--grid-M", "grid", "M", COMMANDS, "M grid as start:end[:count]"),
    ("--T", "policy", "inspection_period", ("curves",),
     "the policy's inspection period"),
    ("--M", "policy", "preventive_threshold", ("curves",), "the policy's threshold"),
)

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
        tf = self.life.horizon
        T_min = float(min(self.policy.inspection_period, *self.grid.T_values))
        if tf < T_min:
            raise ConfigurationError(
                f"[life] horizon {tf:g} is below every inspection period "
                f"(the smallest is {T_min:g})"
            )
        # The costs of a horizon, and their squares in the variance
        # recursion, must be finite.
        c, inspections = self.costs, tf / T_min + 1.0
        for name, total in (
            ("corrective", c.corrective * inspections),
            ("preventive", c.preventive * inspections),
            ("inspection", c.inspection * inspections),
            ("downtime_rate", c.downtime_rate * tf),
        ):
            if not math.isfinite(total * total):
                raise ConfigurationError(
                    f"[costs] {name} = {getattr(c, name):g} overflows: its total "
                    f"over the horizon {tf:g}, or that total squared, is not finite"
                )


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


def _read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigurationError(f"config file not found: {path}")
    if "meta" not in parser or parser["meta"].get("schema") != str(SCHEMA_VERSION):
        raise ConfigurationError(
            f"config must declare [meta] schema = {SCHEMA_VERSION}"
        )
    for section in ("model", "costs", "life", "policy", "grid", "simulation"):
        if section not in parser:
            raise ConfigurationError(f"config missing [{section}] section")
    return parser


def _section(parser: configparser.ConfigParser, section: str, cls, **given):
    """``cls`` of ``given`` and, in field order, the float key of each other field."""
    keys = [f.name for f in fields(cls) if f.name not in given]
    return cls(**given, **{key: _get(parser[section], section, key) for key in keys})


def _build_config(parser: configparser.ConfigParser) -> RunConfig:
    """The run config of a config file's sections, each checked as it is built.

    The keys of ``[model]``, ``[costs]``, ``[life]`` and ``[policy]`` are the
    fields of their dataclasses (:func:`_section`); ``[grid]``,
    ``[simulation]`` and ``[output]`` are read key by key.  The sections
    are built in that order, so the first missing, unparsable or invalid
    key is the one reported.
    """
    g, s = parser["grid"], parser["simulation"]
    step = s.get("path_step")
    return RunConfig(
        model=_section(
            parser, "model", SystemModel,
            degradation=_section(parser, "model", GammaDegradation),
            shocks=_section(parser, "model", ShockIntensity),
        ),
        costs=_section(parser, "costs", CostStructure),
        life=_section(parser, "life", LifeCycle),
        policy=_section(parser, "policy", MaintenancePolicy),
        grid=opt.PolicyGrid(
            T_values=parse_grid_spec(_get(g, "grid", "T", str)),
            M_values=parse_grid_spec(_get(g, "grid", "M", str)),
        ),
        sim=SimulationConfig(
            path_step=_get(s, "simulation", "path_step") if step else None,
            n_samples=_get(s, "simulation", "n_samples", int),
            master_seed=_get(s, "simulation", "seed", int),
            worker_streams=_get(s, "simulation", "worker_streams", int),
        ),
        out_dir=Path(
            parser.get("output", "directory", fallback="")
            or os.environ.get(OUTPUT_DIR_ENV, "out")
        ),
        workers=_get(s, "simulation", "workers", int) if "workers" in s else 1,
    )


def parse_config(path) -> RunConfig:
    return _build_config(_read_config(path))


def _csv_line(cells) -> str:
    """One CSV line: a string cell as it is, a number to six decimals."""
    return ",".join(c if isinstance(c, str) else f"{c:.6f}" for c in cells) + "\n"


def _run_command(command, parser: configparser.ConfigParser, args) -> int:
    """Build the effective config, run one command, write its tables and report.

    ``command(rc, args)`` writes nothing; it returns the report's name, its
    tables as ``{file name: (header, rows)}``, its payload, and its own
    warnings.  Only then is the output directory made and each table
    written into it.  The report ``<name>_report.json`` lists every warning
    raised while the config was built and the command ran, then the
    command's own.
    """
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        rc = _build_config(parser)
        name, tables, payload, messages = command(rc, args)
    messages = [*(str(w.message) for w in grabbed), *messages]
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    for file_name, (header, rows) in tables.items():
        lines = map(_csv_line, [header, *rows])
        (rc.out_dir / file_name).write_text("".join(lines), newline="")
    files = [rc.out_dir / f for f in (*tables, f"{name}_report.json")]
    payload.update(
        seed=rc.sim.master_seed,
        n_samples=rc.sim.n_samples,
        worker_streams=rc.sim.worker_streams,
        wall_clock_seconds=round(time.perf_counter() - started, 3),
        files=[str(f) for f in files],
        warnings=messages,
    )
    files[-1].write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for message in messages:
        log.warning("%s", message)
    return 0


def cmd_optimize(rc: RunConfig, args):
    optimize = getattr(opt, f"optimize_{args.objective}")
    result = optimize(rc.model, rc.costs, rc.life, rc.grid, rc.sim, rc.workers)
    log.info(
        "optimize %s: T_opt=%g M_opt=%g minimum=%.4f",
        args.objective, result.T_opt, result.M_opt, result.minimum,
    )
    cells = [
        (T, M, result.values[i, j], result.stderr[i, j])
        for i, T in enumerate(result.T_values)
        for j, M in enumerate(result.M_values)
    ]
    payload = {
        "objective": result.objective,
        "T_opt": result.T_opt,
        "M_opt": result.M_opt,
        "minimum": result.minimum,
        "grid_T": list(result.T_values),
        "grid_M": list(result.M_values),
    }
    tables = {f"{args.objective}_matrix.csv": (["T", "M", "value", "stderr"], cells)}
    return args.objective, tables, payload, result.warnings


def cmd_curves(rc: RunConfig, args):
    if not (math.isfinite(args.ir_s) and args.ir_s >= 0.0):
        raise ConfigurationError(f"--ir-s {args.ir_s} must be finite and nonnegative")
    lo, hi = args.ir_lo, args.ir_hi
    if not lo <= hi:  # also when either is NaN
        raise ConfigurationError(f"--ir-lo {lo} must be at most --ir-hi {hi}")
    # IR(t, t + s) is reported at each lattice time t in the window whose
    # t + s is on the lattice too; the lattice draws nothing.
    times = eval_times(rc.policy, rc.life)
    ends = Lattice(times, rc.policy.inspection_period).indices_of(times + args.ir_s)
    if not ((times >= lo - 1e-9) & (times <= hi + 1e-9) & (ends >= 0)).any():
        raise ConfigurationError(f"--ir-lo {lo} to --ir-hi {hi} holds no lattice time "
                                 f"t with t + {args.ir_s:g} on the lattice")
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

    swept = list(opt.estimate_grid([rc.model], grid, rc.life, rc.sim, rc.workers))
    curves = [renewal.cost_curve(tables, rc.costs) for tables in swept]
    columns = {
        sweep_dim: sweep_values,
        "cost_rate": np.concatenate([c.mean[:, -1] for c in curves]) / tf,
        "stddev": np.concatenate([c.std[:, -1] for c in curves]),
    }
    if args.strict_mc:
        strict = columns["strict_mc_rate"] = []
        for policy, v in zip(policies, sweep_values):
            _, totals = chain_statistics(
                rc.model, policy, rc.costs, rc.life, rc.sim,
                seed_sequence=row_seed(rc.sim.master_seed, v, 1),
            )
            strict.append(float(totals.mean()) / tf)

    # The curves of a policy the sweep contains come from its swept
    # tables and their cost solve, so the run reports one estimate per
    # policy.
    if rc.policy in policies:
        k, i = divmod(policies.index(rc.policy), len(grid.M_values))
        tables, curve = swept[k].take(i), curves[k]
    else:
        tables = estimate_tables(rc.model, rc.policy, rc.life, rc.sim)
        i, curve = 0, renewal.cost_curve(tables, rc.costs)
    mean, std = curve.mean[i], curve.std[i]
    perf = renewal.performance_curve(tables, s=args.ir_s)
    avail, rel, ir = perf.availability[0], perf.reliability[0], perf.interval[0]
    times = perf.times
    window = ~np.isnan(ir) & (times >= lo - 1e-9) & (times <= hi + 1e-9)

    payload = {
        "policy": {
            "T": rc.policy.inspection_period,
            "M": rc.policy.preventive_threshold,
        },
        "cost_rate_at_horizon": float(mean[-1] / tf),
        "stddev_at_horizon": float(std[-1]),
        "availability_min": float(avail[times > 0].min()),
        "reliability_at_horizon": float(rel[-1]),
        "interval_reliability_min": float(ir[window].min()),
        "interval_s": args.ir_s,
    }
    point = ["t", "value"]
    outputs = {
        f"cost_rate_vs_{sweep_dim}.csv": (list(columns), zip(*columns.values())),
        "cost_curve.csv": (point + ["stddev"], zip(times, mean, std)),
        "availability.csv": (point, zip(times, avail)),
        "reliability.csv": (point, zip(times, rel)),
        "interval_reliability.csv": (point, zip(times[window], ir[window])),
    }
    return "curves", outputs, payload, []


def cmd_sensitivity(rc: RunConfig, args):
    try:
        axis, raw = args.fixed.split("=")
        axis, value = axis.strip(), float(raw)
    except ValueError:
        raise ConfigurationError("--fixed must look like T=10 or M=14")
    if axis not in ("T", "M"):
        raise ConfigurationError("--fixed dimension must be T or M")
    # The sweep is the grid with the fixed axis at its one value.
    grid = replace(rc.grid, **{f"{axis}_values": (value,)})

    table_of = (
        sensitivity.gamma_sensitivity if args.target == "gamma"
        else sensitivity.shock_sensitivity
    )
    table = table_of(
        rc.model, rc.costs, rc.life, grid, cfg=rc.sim, processes=rc.workers
    )
    payload = {
        "target": table.target,
        "fixed": args.fixed,
        "baseline_min_cost": table.baseline_min,
        "max_variation_percent": float(table.variation.max()),
    }
    # The 7x7 variation table in percent, the variation vector on both axes.
    labels = [f"{v:g}%" for v in table.variations]
    rows = [
        [label, *(f"{x:.4f}" for x in row)]
        for label, row in zip(labels, table.variation)
    ]
    tables = {f"sensitivity_{args.target}.csv": (["vi\\vj", *labels], rows)}
    return f"sensitivity_{args.target}", tables, payload, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbmlife",
        description="Condition-based maintenance policy evaluation and optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, command, help in (
        ("optimize", cmd_optimize, "grid search over (T, M)"),
        ("curves", cmd_curves, "cost and performance curves"),
        ("sensitivity", cmd_sensitivity, "parameter perturbation tables"),
    ):
        p = subs[name] = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="path to the run config file")
        for flag, section, key, commands, flag_help in OVERRIDES:
            if name in commands:
                p.add_argument(
                    flag, dest=f"{section}.{key}", metavar=key.upper(), help=flag_help
                )
        level = p.add_mutually_exclusive_group()
        level.add_argument("--quiet", action="store_true")
        level.add_argument("--verbose", action="store_true")
        p.set_defaults(func=command)

    subs["optimize"].add_argument(
        "--objective", choices=("asymptotic", "transient"), default="asymptotic"
    )
    p_cur = subs["curves"]
    p_cur.add_argument("--sweep", choices=("M", "T"), default="M")
    p_cur.add_argument("--strict-mc", action="store_true")
    p_cur.add_argument("--ir-s", type=float, default=5.0)
    p_cur.add_argument("--ir-lo", type=float, default=10.0)
    p_cur.add_argument("--ir-hi", type=float, default=30.0)
    p_sen = subs["sensitivity"]
    p_sen.add_argument("--target", choices=("gamma", "shocks"), required=True)
    p_sen.add_argument("--fixed", required=True, help="T=<value> or M=<value>")
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
        parser = _read_config(args.config)
        for _, section, key, _, _ in OVERRIDES:
            value = getattr(args, f"{section}.{key}", None)
            if value is not None:
                # Verbatim under the parser's %-interpolation.
                parser.read_dict({section: {key: value.replace("%", "%%")}})
        return _run_command(args.func, parser, args)
    except (ConfigurationError, InconsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
