"""Self-test of the benchmark's checks: clean outputs pass, corrupted ones fail.

Runs one round of every workload at the default seed (about 30 s on two
cores), then feeds each check a corrupted copy of those outputs and expects
the named problem.  Run from the repository root::

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the checkout's src on sys.path)
from checks import SE_FACTOR, check_round, load_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT = HERE / "out" / "selftest"


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.fixture(scope="module")
def rounds():
    """Output directory of one clean round of each workload."""
    shutil.rmtree(OUT, ignore_errors=True)
    cli = worker.import_cli()
    dirs = {}
    for name, workload in WORKLOADS.items():
        config = OUT / f"{name}.cfg"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(workload.config_text(DEFAULT_SEED))
        result = worker.run_round(cli, workload, str(config), OUT / name)
        assert all(c["code"] == 0 for c in result["commands"]), result
        dirs[name] = OUT / name
    return dirs


def corrupted(rounds, name: str, label: str) -> Path:
    target = OUT / f"{name}-{label}"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(rounds[name], target)
    return target


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[0], rows[1:])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def problems(name: str, out: Path, reference) -> list[str]:
    return [p for found in check_round(WORKLOADS[name], out, reference) for p in found]


def assert_flags(name, out, reference, fragment):
    found = problems(name, out, reference)
    assert any(fragment in p for p in found), found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_round_passes(rounds, reference, name):
    assert problems(name, rounds[name], reference) == []


@pytest.mark.parametrize("objective", ["asymptotic", "transient"])
def test_scaled_cost_matrix_fails(rounds, reference, objective):
    out = corrupted(rounds, "grid", f"scaled-{objective}")

    def scale(header, rows):
        col = header.index("value")
        for row in rows:
            row[col] = f"{float(row[col]) * 1.05:.6f}"

    edit_csv(out / f"{objective}_matrix.csv", scale)
    edit_json(out / f"{objective}_report.json",
              lambda r: r.update(minimum=round(r["minimum"] * 1.05, 6)))
    assert_flags("grid", out, reference, "mean relative error")


def test_far_transient_argmin_fails(rounds, reference):
    out = corrupted(rounds, "grid", "argmin")
    edit_json(out / "transient_report.json", lambda r: r.update(T_opt=5.0, M_opt=1.0))
    assert_flags("grid", out, reference, "transient argmin")


def test_nonzero_baseline_variation_fails(rounds, reference):
    out = corrupted(rounds, "sensitivity", "zero-cell")

    def bump(header, rows):
        zero = header.index("0%")
        rows[zero - 1][zero] = "0.0100"

    edit_csv(out / "sensitivity_gamma.csv", bump)
    assert_flags("sensitivity", out, reference, "not exactly 0")


def test_negative_variation_fails(rounds, reference):
    out = corrupted(rounds, "sensitivity", "negative")
    edit_csv(out / "sensitivity_gamma.csv", lambda h, rows: rows[0].__setitem__(1, "-0.5"))
    assert_flags("sensitivity", out, reference, "negative or not finite")


def test_availability_below_reliability_fails(rounds, reference):
    out = corrupted(rounds, "long_horizon", "avail")

    def lower(header, rows):
        rows[-1][1] = f"{float(rows[-1][1]) - 0.01:.6f}"

    shutil.copy(out / "reliability.csv", out / "availability.csv")
    edit_csv(out / "availability.csv", lower)
    assert_flags("long_horizon", out, reference, "availability is below reliability")


def test_interval_reliability_above_availability_fails(rounds, reference):
    out = corrupted(rounds, "long_horizon", "interval")
    edit_csv(out / "interval_reliability.csv",
             lambda h, rows: rows[3].__setitem__(1, "1.000000"))
    assert_flags("long_horizon", out, reference, "exceeds A(")


def test_survival_off_the_oracle_fails(rounds, reference):
    out = corrupted(rounds, "long_horizon", "survival")

    def lower(header, rows):
        rows[4][1] = f"{float(rows[4][1]) - 0.05:.6f}"

    edit_csv(out / "availability.csv", lower)
    edit_csv(out / "reliability.csv", lower)
    assert_flags("long_horizon", out, reference, "P[D > t]")


def test_scaled_swept_rates_fail(rounds, reference):
    out = corrupted(rounds, "long_horizon", "swept")

    def scale(header, rows):
        for row in rows:
            row[1] = f"{float(row[1]) * 1.05:.6f}"

    edit_csv(out / "cost_rate_vs_M.csv", scale)
    assert_flags("long_horizon", out, reference, "mean relative error")


def test_decreasing_cost_curve_fails(rounds, reference):
    out = corrupted(rounds, "long_horizon", "cost")
    edit_csv(out / "cost_curve.csv", lambda h, rows: rows[10].__setitem__(1, "0.000000"))
    assert_flags("long_horizon", out, reference, "nondecreasing")


def test_strict_rate_off_by_five_se_fails(rounds, reference):
    out = corrupted(rounds, "reference", "strict")
    workload = WORKLOADS["reference"]

    def shift(header, rows):
        row = rows[0]
        rate, stddev, strict = (float(row[header.index(k)])
                                for k in ("cost_rate", "stddev", "strict_mc_rate"))
        se = stddev / (workload.horizon * math.sqrt(workload.n_samples))
        combined = se * math.sqrt(1.0 + SE_FACTOR[5] ** 2)
        away = 1.0 if strict >= rate else -1.0
        row[header.index("strict_mc_rate")] = f"{strict + away * 5.0 * combined:.6f}"

    edit_csv(out / "cost_rate_vs_M.csv", shift)
    assert_flags("reference", out, reference, "strict_mc_rate")


def test_scaled_horizon_rate_fails(rounds, reference):
    out = corrupted(rounds, "reference", "horizon")
    edit_json(out / "curves_report.json", lambda r: r.update(
        cost_rate_at_horizon=r["cost_rate_at_horizon"] * 1.05))
    assert_flags("reference", out, reference, "cost rate at M=14")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
