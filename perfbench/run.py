"""cbmlife benchmark: run one workload through the CLI, check it, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload grid --seed 20260824 --seconds 15 --trace 0

It writes the workload's config under ``perfbench/out/``, times the set-up
(importing cbmlife and parsing that config) in fresh interpreters, runs
whole rounds of the workload's CLI commands for ``--seconds`` seconds in one
worker process, checks every round's outputs against ``reference.json`` and
properties of the method, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced rounds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT = HERE / "out"
# Set-up is timed this many times before the worker runs and as many after,
# so that its median spans the run; the machine's speed drifts over seconds.
SETUP_REPEATS = 5
# The worker ends the round (or traced pair) in progress when --seconds have
# passed; this margin covers a traced pair of the longest round, grid's
# 10 s, on a machine several times slower.
MARGIN_S = 120.0


def time_setup(config: Path, workload: str, out: Path, repeats: int) -> list[float]:
    """Times to import cbmlife and parse the config, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--setup-only",
             "--workload", workload, "--config", str(config),
             "--out", str(out), "--seconds", "0"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cbmlife" / "cli.py").is_file():
        print(f"error: no cbmlife sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from checks import check_round, load_reference

    reference = load_reference()
    workload = WORKLOADS[args.workload]
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "bench.cfg"
    config.write_text(workload.config_text(args.seed))

    try:
        # The first start compiles bytecode and warms the file cache.
        time_setup(config, workload.name, out, 1)
        setup = time_setup(config, workload.name, out, SETUP_REPEATS)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
             "--config", str(config), "--out", str(out),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=sys.stderr, timeout=args.seconds + MARGIN_S, check=True,
        )
        setup += time_setup(config, workload.name, out, SETUP_REPEATS)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    with open(out / "worker.json") as fh:
        result = json.load(fh)

    attempted = failed = 0
    for round_ in result["rounds"]:
        problems = check_round(workload, Path(round_["dir"]), reference)
        for command, found in zip(round_["commands"], problems):
            attempted += 1
            if command["code"] != 0:
                found = [f"exit code {command['code']} {command['error'] or ''}"]
            if found:
                failed += 1
                for problem in found:
                    print(f"FAIL {round_['dir']} {' '.join(command['argv'][:3])}: "
                          f"{problem}", file=sys.stderr)

    if args.trace:
        metrics = traced_metrics(result)
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in result["rounds"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


UNITS = {"calls": "count", "paths": "count", "variates": "count", "cells": "count",
         "models": "count", "bytes_written": "B", "ms_per_call": "ms",
         "us_per_path": "us", "ns_per_variate": "ns"}


def traced_metrics(result: dict) -> dict:
    """Medians over the traced rounds; the overhead against the untraced ones."""
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = UNITS.get(name.rsplit(".", 1)[-1], "s")
        metrics[name] = (statistics.median(r["layers"][name] for r in traced), unit)
    metrics["cli.bytes_written"] = (statistics.median(
        sum(f.stat().st_size for f in Path(r["dir"]).iterdir()) for r in traced), "B")
    metrics["process.cpu_s"] = (statistics.median(r["cpu_s"] for r in traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
