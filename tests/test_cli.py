import configparser
import json
import math
import re
import shutil
from pathlib import Path

import pytest

from cbmlife import cli, optimize
from cbmlife.cli import main, parse_config, parse_grid_spec
from cbmlife.errors import ConfigurationError
from cbmlife.simulate import eval_times

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


@pytest.fixture()
def small_config(tmp_path):
    """The shipped config with a tiny sample budget for fast runs."""
    text = CONFIG.read_text().replace("n_samples = 50000", "n_samples = 800")
    path = tmp_path / "small.cfg"
    path.write_text(text)
    return path


@pytest.fixture()
def no_draws(monkeypatch):
    """Fail any table draw or strict Monte Carlo chain."""

    def draw(*args, **kwargs):
        raise AssertionError("a table was drawn before the config was refused")

    monkeypatch.setattr(optimize, "estimate_row", draw)
    monkeypatch.setattr(cli, "estimate_tables", draw)
    monkeypatch.setattr(cli, "chain_statistics", draw)


def required_keys():
    """(section, key) of each key of the shipped config that the build requires."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # the keys as written
    parser.read(CONFIG)
    keys = [(s, k) for s in ("model", "costs", "life", "policy", "grid") for k in parser[s]]
    return keys + [("simulation", k) for k in ("n_samples", "seed", "worker_streams")]


REQUIRED_KEYS = required_keys()
NUMERIC_KEYS = [(s, k) for s, k in REQUIRED_KEYS if s != "grid"]


def edited(tmp_path, old, new):
    """The shipped config with one line replaced."""
    text = CONFIG.read_text()
    assert old in text
    path = tmp_path / "edited.cfg"
    path.write_text(text.replace(old, new))
    return path


class TestConfig:
    def test_parse_shipped_config(self):
        rc = parse_config(CONFIG)
        assert rc.model.degradation.alpha == 0.1
        assert rc.costs.corrective == 300.0
        assert rc.life.horizon == 50.0
        assert rc.policy.inspection_period == 10.0
        assert len(rc.grid.T_values) == 10
        assert len(rc.grid.M_values) == 30
        assert rc.sim.n_samples == 50_000

    def test_missing_file(self):
        assert main(["optimize", "--config", "/nonexistent.cfg"]) == 1

    @pytest.mark.parametrize("old, new", [
        ("horizon = 50", "horizon = inf"),
        ("alpha = 0.1", "alpha = nan"),
    ])
    def test_non_finite_parameter(self, tmp_path, old, new):
        bad = tmp_path / "bad.cfg"
        text = CONFIG.read_text()
        assert old in text
        bad.write_text(text.replace(old, new))
        assert main(["curves", "--config", str(bad), "--quiet"]) == 1

    def test_schema_mismatch(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.read_text().replace("schema = 1", "schema = 2"))
        assert main(["optimize", "--config", str(bad)]) == 1

    def test_field_level_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.read_text().replace("alpha = 0.1", "alpha = x"))
        with pytest.raises(ConfigurationError, match=r"\[model\] alpha"):
            parse_config(bad)

    def test_grid_spec(self):
        assert parse_grid_spec("10:10") == (10.0,)
        assert parse_grid_spec("5:50:10") == pytest.approx(
            tuple(5.0 + 5.0 * i for i in range(10))
        )
        assert parse_grid_spec("1:4") == (1.0, 2.0, 3.0, 4.0)
        for bad in ("5", "5:1", "nan:5:3", "1:inf:3", "-inf:1", "0.5:2", "1:2.4"):
            with pytest.raises(ConfigurationError):
                parse_grid_spec(bad)
        assert parse_grid_spec("14:14:1") == (14.0,)
        with pytest.raises(ConfigurationError, match="repeats one point 3 times"):
            parse_grid_spec("14:14:3")

    def test_repeated_grid_point_flag(self, small_config, tmp_path, capsys):
        # One (T, M) simulated three times from other paths would report
        # the lowest of three estimates as the minimum.
        argv = [
            "optimize", "--objective", "transient", "--config", str(small_config),
            "--grid-M", "14:14:3", "--out-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 1
        assert "repeats one point" in capsys.readouterr().err
        assert not (tmp_path / "transient_matrix.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_bad_workers_key(self, tmp_path, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.read_text().replace("workers = 1", f"workers = {value}"))
        with pytest.raises(ConfigurationError, match="workers"):
            parse_config(bad)
        assert main(["curves", "--config", str(bad), "--quiet"]) == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_workers_flag(self, small_config, tmp_path, value):
        argv = [
            "curves", "--config", str(small_config), "--workers", value,
            "--out-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 1
        assert not (tmp_path / "curves_report.json").exists()

    @pytest.mark.parametrize("old, new, key", [
        ("seed = 20260824", "seed = -5", "seed"),
        ("path_step =", "path_step = abc", "[simulation] path_step"),
    ], ids=["seed", "path_step"])
    def test_bad_simulation_key(self, tmp_path, capsys, old, new, key):
        bad = tmp_path / "bad.cfg"
        text = CONFIG.read_text()
        assert old in text
        bad.write_text(text.replace(old, new))
        argv = ["curves", "--config", str(bad), "--out-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "curves_report.json").exists()

    @pytest.mark.parametrize("section, key", REQUIRED_KEYS,
                             ids=[f"{s}.{k}" for s, k in REQUIRED_KEYS])
    def test_missing_key_is_named(self, tmp_path, capsys, section, key):
        line = re.search(rf"^{key} = .*\n", CONFIG.read_text(), re.M).group()
        bad = edited(tmp_path, line, "")
        assert main(["curves", "--config", str(bad), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [{section}] missing required key '{key}'\n"

    @pytest.mark.parametrize("section, key", NUMERIC_KEYS,
                             ids=[f"{s}.{k}" for s, k in NUMERIC_KEYS])
    def test_unparsable_key_is_named(self, tmp_path, capsys, section, key):
        line = re.search(rf"^{key} = .*$", CONFIG.read_text(), re.M).group()
        bad = edited(tmp_path, line, f"{key} = x")
        assert main(["curves", "--config", str(bad), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: [{section}] {key}: cannot parse 'x'\n"

    def test_negative_seed_flag(self, small_config, tmp_path, capsys):
        argv = [
            "curves", "--config", str(small_config), "--seed", "-5",
            "--out-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 1
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "curves_report.json").exists()


class TestParseTimeChecks:
    @pytest.mark.parametrize("command", ["optimize", "curves"])
    @pytest.mark.parametrize("old, new, named", [
        ("downtime_rate = 25", "downtime_rate = 1e308", "[costs] downtime_rate = 1e+308"),
        # Finite over the horizon, but not once squared.
        ("downtime_rate = 25", "downtime_rate = 1e160", "[costs] downtime_rate = 1e+160"),
        ("corrective = 300", "corrective = 1e160", "[costs] corrective = 1e+160"),
    ], ids=["downtime", "downtime-squared", "corrective-squared"])
    def test_overflowing_cost(
        self, tmp_path, capsys, no_draws, command, old, new, named
    ):
        bad = edited(tmp_path, old, new)
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            parse_config(bad)
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--out-dir", str(out), "--quiet"]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_large_finite_cost_is_accepted(self, tmp_path):
        rc = parse_config(edited(tmp_path, "downtime_rate = 25", "downtime_rate = 1e150"))
        assert rc.costs.downtime_rate == 1e150

    @pytest.mark.parametrize("command", ["optimize", "curves"])
    def test_horizon_below_every_period(self, tmp_path, capsys, no_draws, command):
        bad = edited(tmp_path, "horizon = 50", "horizon = 1e-9")
        named = "[life] horizon 1e-09 is below every inspection period (the smallest is 5)"
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            parse_config(bad)
        out = tmp_path / "out"
        assert main([command, "--config", str(bad), "--out-dir", str(out), "--quiet"]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestOverrides:
    def test_flag_mends_the_config_it_overrides(self, small_config, tmp_path):
        # The effective config is validated once, after the flags are in.
        bad = small_config.parent / "zero.cfg"
        bad.write_text(small_config.read_text().replace(
            "inspection_period = 10", "inspection_period = 0"
        ))
        out = tmp_path / "out"
        argv = [
            "curves", "--config", str(bad), "--grid-M", "14:14",
            "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 1
        assert main(argv + ["--T", "10"]) == 0
        report = json.loads((out / "curves_report.json").read_text())
        assert report["policy"] == {"T": 10.0, "M": 14.0}

    @pytest.mark.parametrize("argv, named", [
        (["optimize", "--seed", "abc"], "[simulation] seed: cannot parse 'abc'"),
        (["curves", "--T", "x"], "[policy] inspection_period: cannot parse 'x'"),
        (["curves", "--delta", "0"], "path_step must be positive"),
    ])
    def test_flag_is_refused_as_its_key(self, small_config, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        argv = argv + ["--config", str(small_config), "--out-dir", str(out), "--quiet"]
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_reaches_its_key_verbatim(self, small_config, tmp_path):
        out = tmp_path / "100% %(x)s %%"
        argv = [
            "optimize", "--config", str(small_config), "--objective", "transient",
            "--grid-T", "10:10", "--grid-M", "14:14", "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 0
        report = json.loads((out / "transient_report.json").read_text())
        assert report["files"] == [
            str(out / "transient_matrix.csv"), str(out / "transient_report.json")
        ]

    def test_output_dir_precedence(self, small_config, tmp_path, monkeypatch):
        # The flag, then [output] directory, then CBMLIFE_OUTDIR, then out.
        monkeypatch.setenv("CBMLIFE_OUTDIR", str(tmp_path / "env"))
        text = small_config.read_text()
        assert parse_config(small_config).out_dir == Path("out")
        keyed = small_config.parent / "keyed.cfg"
        keyed.write_text(text.replace("directory = out", f"directory = {tmp_path / 'key'}"))
        assert parse_config(keyed).out_dir == tmp_path / "key"
        unset = small_config.parent / "unset.cfg"
        unset.write_text(text.replace("directory = out", "directory ="))
        assert parse_config(unset).out_dir == tmp_path / "env"
        monkeypatch.delenv("CBMLIFE_OUTDIR")
        assert parse_config(unset).out_dir == Path("out")
        argv = [
            "optimize", "--config", str(keyed), "--objective", "transient",
            "--grid-T", "10:10", "--grid-M", "14:14", "--quiet",
        ]
        assert main(argv + ["--out-dir", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "transient_matrix.csv").exists()
        assert not (tmp_path / "key").exists()


class TestRunner:
    @pytest.mark.parametrize("argv, name", [
        (["optimize", "--objective", "transient", "--grid-T", "10:10",
          "--grid-M", "14:14"], "transient"),
        (["curves", "--grid-M", "14:14"], "curves"),
        (["sensitivity", "--target", "shocks", "--fixed", "M=14", "--grid-T", "10:20:2",
          "--samples", "50"], "sensitivity_shocks"),
    ], ids=["optimize", "curves", "sensitivity"])
    def test_every_command_reports_alike(self, small_config, tmp_path, argv, name):
        out = tmp_path / "out"
        assert main(argv + ["--config", str(small_config), "--out-dir", str(out),
                            "--quiet"]) == 0
        report = json.loads((out / f"{name}_report.json").read_text())
        assert {"seed", "n_samples", "worker_streams", "wall_clock_seconds",
                "warnings"} <= report.keys()
        assert report["seed"] == 20260824
        assert report["files"][-1] == str(out / f"{name}_report.json")
        assert sorted(report["files"]) == sorted(str(p) for p in out.iterdir())


    def test_report_holds_the_warnings_of_the_build(self, small_config, tmp_path):
        cfg = small_config.parent / "hazard.cfg"
        cfg.write_text(small_config.read_text().replace("lambda1 = 0.01", "lambda1 = 0.2"))
        out = tmp_path / "out"
        argv = [
            "curves", "--config", str(cfg), "--grid-M", "14:14",
            "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 0
        report = json.loads((out / "curves_report.json").read_text())
        assert report["warnings"] == [
            "lambda1 > lambda2 violates the increasing-hazard assumption"
        ]

    @pytest.mark.parametrize("argv", [
        ["curves", "--ir-s", "nan"],
        ["sensitivity", "--target", "gamma", "--fixed", "X=1"],
    ], ids=["curves", "sensitivity"])
    def test_refused_flag_makes_no_directory(self, small_config, tmp_path, no_draws, argv):
        out = tmp_path / "new"
        assert main(argv + ["--config", str(small_config), "--out-dir", str(out),
                            "--quiet"]) == 1
        assert not out.exists()


class TestOptimizeCommand:
    def test_single_cell_and_determinism(self, small_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = [
            "optimize", "--config", str(small_config), "--objective", "transient",
            "--grid-T", "10:10", "--grid-M", "14:14", "--quiet",
        ]
        assert main(argv + ["--out-dir", str(out1)]) == 0
        assert main(argv + ["--out-dir", str(out2)]) == 0
        matrix1 = (out1 / "transient_matrix.csv").read_bytes()
        matrix2 = (out2 / "transient_matrix.csv").read_bytes()
        assert matrix1 == matrix2
        report = json.loads((out1 / "transient_report.json").read_text())
        lines = matrix1.decode().strip().splitlines()
        assert len(lines) == 2
        cell_value = float(lines[1].split(",")[2])
        assert report["minimum"] == pytest.approx(cell_value, abs=5e-7)
        assert (report["T_opt"], report["M_opt"]) == (10.0, 14.0)

    def test_matrix_csv_and_report(self, small_config, tmp_path):
        argv = [
            "optimize", "--config", str(small_config), "--objective", "transient",
            "--grid-T", "10:10", "--grid-M", "12:14:2", "--out-dir", str(tmp_path),
            "--quiet",
        ]
        assert main(argv) == 0
        lines = (tmp_path / "transient_matrix.csv").read_text().splitlines()
        assert lines[0] == "T,M,value,stderr"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert all(len(cell.split(".")[1]) == 6 for row in rows for cell in row)
        report = json.loads((tmp_path / "transient_report.json").read_text())
        assert report["objective"] == "transient"
        best = min(rows, key=lambda row: float(row[2]))
        assert (report["T_opt"], report["M_opt"]) == (float(best[0]), float(best[1]))

    def test_seed_changes_output(self, small_config, tmp_path):
        argv = [
            "optimize", "--config", str(small_config), "--objective", "asymptotic",
            "--grid-T", "10:10", "--grid-M", "14:14", "--quiet",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out-dir", str(out1)]) == 0
        assert main(argv + ["--out-dir", str(out2), "--seed", "7"]) == 0
        assert (out1 / "asymptotic_matrix.csv").read_bytes() != (
            out2 / "asymptotic_matrix.csv"
        ).read_bytes()

    def test_small_asymptotic_grid(self, tmp_path):
        # At n = 8 some worker blocks hold no replacement: their cells get a
        # value but no standard error.
        argv = [
            "optimize", "--objective", "asymptotic", "--config", str(CONFIG),
            "--samples", "8", "--seed", "20260824", "--out-dir", str(tmp_path),
            "--quiet",
        ]
        assert main(argv) == 0
        lines = (tmp_path / "asymptotic_matrix.csv").read_text().splitlines()[1:]
        assert len(lines) == 300
        values = [line.split(",")[2] for line in lines]
        errors = [line.split(",")[3] for line in lines]
        assert "nan" not in values
        assert 0 < errors.count("nan") < len(errors)

    def test_cell_without_replacement_is_an_error(self, small_config, tmp_path, capsys):
        argv = [
            "optimize", "--objective", "asymptotic", "--config", str(small_config),
            "--grid-T", "60:60", "--grid-M", "14:14", "--out-dir", str(tmp_path),
            "--quiet",
        ]
        assert main(argv) == 1
        assert "error: (T=60, M=14) no replacement mass" in capsys.readouterr().err


class TestCurvesCommand:
    def test_outputs(self, small_config, tmp_path):
        out = tmp_path / "curves"
        argv = [
            "curves", "--config", str(small_config), "--grid-M", "12:16:3",
            "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 0
        avail = (out / "availability.csv").read_text().strip().splitlines()
        assert avail[0] == "t,value"
        first = float(avail[1].split(",")[1])
        assert 0.0 <= first <= 1.0
        report = json.loads((out / "curves_report.json").read_text())
        assert 0.0 <= report["availability_min"] <= 1.0
        assert 0.0 <= report["reliability_at_horizon"] <= 1.0

    def test_cost_curve_csv(self, small_config, tmp_path):
        argv = [
            "curves", "--config", str(small_config), "--grid-M", "14:14",
            "--out-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 0
        lines = (tmp_path / "cost_curve.csv").read_text().splitlines()
        assert lines[0] == "t,value,stddev"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 3 for row in rows)
        assert all(len(cell.split(".")[1]) == 6 for row in rows for cell in row)

    def test_performance_curve_csv(self, small_config, tmp_path):
        argv = [
            "curves", "--config", str(small_config), "--grid-M", "14:14",
            "--out-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 0
        rc = parse_config(small_config)
        times = [f"{t:.6f}" for t in eval_times(rc.policy, rc.life)]
        for name in ("availability", "reliability"):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            assert lines[0] == "t,value"
            rows = [line.split(",") for line in lines[1:]]
            assert [row[0] for row in rows] == times
            assert all(len(cell.split(".")[1]) == 6 for row in rows for cell in row)

    @pytest.mark.parametrize("lo, hi", [("nan", "30"), ("10", "nan"), ("30", "10")])
    def test_bad_interval_window(self, small_config, tmp_path, capsys, no_draws, lo, hi):
        out = tmp_path / "out"
        argv = [
            "curves", "--config", str(small_config), "--ir-lo", lo, "--ir-hi", hi,
            "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 1
        assert "error: --ir-lo" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        # Between the lattice times 10 and 11 (T = 10, step 1).
        ["--ir-lo", "10.55", "--ir-hi", "10.58"],
        # No t + 0.55 lies on the lattice.
        ["--ir-s", "0.55"],
    ], ids=["between-times", "off-lattice-s"])
    def test_interval_window_without_a_point(self, small_config, tmp_path, capsys,
                                             no_draws, flags):
        out = tmp_path / "out"
        argv = ["curves", "--config", str(small_config), "--grid-M", "14:14", *flags,
                "--out-dir", str(out), "--quiet"]
        assert main(argv) == 1
        assert "holds no lattice time" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_interval_window(self, small_config, tmp_path):
        argv = [
            "curves", "--config", str(small_config), "--grid-M", "14:14",
            "--ir-lo=-inf", "--ir-hi=inf", "--out-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 0
        lines = (tmp_path / "interval_reliability.csv").read_text().splitlines()
        # Every t whose t + s (s = 5) is on the lattice up to the horizon 50.
        assert (lines[1].split(",")[0], lines[-1].split(",")[0]) == (
            "0.000000", "45.000000"
        )
        report = json.loads((tmp_path / "curves_report.json").read_text())
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert report["interval_reliability_min"] == pytest.approx(min(values), abs=5e-7)

    def test_reference_policy_reuses_swept_tables(self, small_config, tmp_path):
        out = tmp_path / "reuse"
        argv = [
            "curves", "--config", str(small_config), "--grid-M", "12:16:3",
            "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 0
        report = json.loads((out / "curves_report.json").read_text())
        rows = (out / "cost_rate_vs_M.csv").read_text().strip().splitlines()[1:]
        swept = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert report["policy"]["M"] == 14.0
        assert report["cost_rate_at_horizon"] == pytest.approx(swept[14.0], abs=5e-7)

    def test_interval_s_zero_matches_availability(self, small_config, tmp_path):
        out = tmp_path / "s0"
        argv = [
            "curves", "--config", str(small_config), "--grid-M", "14:14",
            "--ir-s", "0", "--ir-lo", "0", "--ir-hi", "50",
            "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 0
        avail = dict(
            line.split(",") for line in
            (out / "availability.csv").read_text().strip().splitlines()[1:]
        )
        ir = dict(
            line.split(",") for line in
            (out / "interval_reliability.csv").read_text().strip().splitlines()[1:]
        )
        assert ir == {t: v for t, v in avail.items() if t in ir}

    def test_every_csv_ends_lines_with_newline(self, small_config, tmp_path):
        out = tmp_path / "strict"
        argv = [
            "curves", "--strict-mc", "--config", str(small_config), "--grid-M", "12:16:3",
            "--samples", "50", "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 0
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 5
        for path in csvs:
            assert b"\r" not in path.read_bytes(), path.name

    def test_non_finite_interval_length(self, small_config, tmp_path, monkeypatch):
        simulated = []

        def no_simulation(*args, **kwargs):
            simulated.append(args)
            raise AssertionError("a table set was simulated before --ir-s was checked")

        monkeypatch.setattr(optimize, "estimate_row", no_simulation)
        monkeypatch.setattr(cli, "estimate_tables", no_simulation)
        for s in ("nan", "inf", "-3"):
            out = tmp_path / s
            argv = [
                "curves", "--config", str(small_config),
                "--ir-s", s, "--out-dir", str(out), "--quiet",
            ]
            assert main(argv) == 1
            assert not (out / "interval_reliability.csv").exists()
        assert simulated == []


class TestSensitivityCommand:
    def test_zero_cell_in_csv(self, small_config, tmp_path):
        out = tmp_path / "sens"
        argv = [
            "sensitivity", "--config", str(small_config), "--target", "gamma",
            "--fixed", "T=10", "--grid-M", "13:15:2", "--samples", "300",
            "--out-dir", str(out), "--quiet",
        ]
        assert main(argv) == 0
        lines = (out / "sensitivity_gamma.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        zero_col = header.index("0%")
        zero_row = next(line for line in lines[1:] if line.startswith("0%,"))
        assert float(zero_row.split(",")[zero_col]) == 0.0

    def test_csv_layout(self, small_config, tmp_path):
        argv = [
            "sensitivity", "--config", str(small_config), "--target", "gamma",
            "--fixed", "T=10", "--grid-M", "14:14", "--samples", "100",
            "--out-dir", str(tmp_path), "--quiet",
        ]
        assert main(argv) == 0
        lines = (tmp_path / "sensitivity_gamma.csv").read_text().splitlines()
        assert lines[0] == "vi\\vj,-10%,-5%,-1%,0%,1%,5%,10%"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == lines[0].split(",")[1:]
        assert all(len(row) == 8 for row in rows)
        assert all(len(cell.split(".")[1]) == 4 for row in rows for cell in row[1:])

    def test_bad_fixed_argument(self, small_config):
        assert main([
            "sensitivity", "--config", str(small_config), "--target", "gamma",
            "--fixed", "Q=10", "--quiet",
        ]) == 1


class TestEnvironment:
    def test_output_dir_env(self, small_config, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("CBMLIFE_OUTDIR", str(target))
        text = small_config.read_text().replace("directory = out", "directory =")
        cfg2 = small_config.parent / "env.cfg"
        cfg2.write_text(text)
        argv = [
            "optimize", "--config", str(cfg2), "--objective", "transient",
            "--grid-T", "10:10", "--grid-M", "14:14", "--quiet",
        ]
        assert main(argv) == 0
        assert (target / "transient_matrix.csv").exists()
        shutil.rmtree(target)


def rows_of(path):
    """The cells of a CSV's rows, its header left out."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


@pytest.fixture()
def instant_failure(tmp_path):
    """The shipped config at alpha = 1e300 without shocks.

    Every path is past L at the first grid point delta = T/100 and no shock
    comes earlier, so every cycle fails at delta and is replaced at the
    first inspection, down for T - delta.
    """
    text = CONFIG.read_text()
    for old, new in (("alpha = 0.1", "alpha = 1e300"), ("lambda1 = 0.01", "lambda1 = 0"),
                     ("lambda2 = 0.1", "lambda2 = 0")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "instant.cfg"
    path.write_text(text)
    return path


class TestExtremeInputs:
    def test_instant_failure_asymptotic_grid(self, instant_failure, tmp_path):
        # Each cycle costs C_c + C_d (T - delta) and lasts T, in every cell
        # and every worker block.
        out = tmp_path / "out"
        assert main(["optimize", "--objective", "asymptotic", "--config",
                     str(instant_failure), "--samples", "20", "--out-dir", str(out),
                     "--quiet"]) == 0
        rows = rows_of(out / "asymptotic_matrix.csv")
        assert len(rows) == 300
        for T, _, value, stderr in rows:
            T = float(T)
            assert value == f"{(300.0 + 25.0 * (T - T / 100.0)) / T:.6f}"
            assert stderr == "0.000000"

    def test_instant_failure_curves(self, instant_failure, tmp_path):
        # At T = 10: (300 + 25 * 9.9) / 10 = 54.75 a unit of time, the same
        # in every realization.  The system is up only at the inspection
        # epochs, where it has just been replaced, and never survives past 0.
        out = tmp_path / "out"
        assert main(["curves", "--config", str(instant_failure), "--samples", "20",
                     "--grid-M", "14:14:1", "--out-dir", str(out), "--quiet"]) == 0
        assert rows_of(out / "cost_rate_vs_M.csv") == [["14.000000", "54.750000",
                                                        "0.000000"]]
        report = json.loads((out / "curves_report.json").read_text())
        assert report["cost_rate_at_horizon"] == pytest.approx(54.75, rel=1e-12)
        assert report["stddev_at_horizon"] == pytest.approx(0.0, abs=1e-6)
        availability = rows_of(out / "availability.csv")
        reliability = rows_of(out / "reliability.csv")
        assert [t for t, _ in availability] == [f"{t:.6f}" for t in range(51)]
        for t, value in availability:
            assert value == ("1.000000" if float(t) % 10.0 == 0.0 else "0.000000"), t
        assert reliability[0] == ["0.000000", "1.000000"]
        assert {value for _, value in reliability[1:]} == {"0.000000"}

    @pytest.mark.parametrize("old, new", [
        ("alpha = 0.1", "alpha = 1e-300"),
        ("beta = 0.1", "beta = 1e300"),
        ("lambda2 = 0.1", "lambda2 = 1e300"),
        ("breakdown_threshold = 30", "breakdown_threshold = 1e300"),
        ("shock_threshold = 20", "shock_threshold = 1e-300"),
        ("seed = 20260824", f"seed = {2**70}"),
    ], ids=["alpha-tiny", "beta-huge", "lambda2-huge", "L-huge", "Ms-tiny", "seed-2^70"])
    def test_extreme_input_runs(self, tmp_path, old, new):
        out = tmp_path / "out"
        assert main(["curves", "--config", str(edited(tmp_path, old, new)), "--samples",
                     "20", "--grid-M", "14:14", "--out-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "curves_report.json").read_text())
        assert math.isfinite(report["cost_rate_at_horizon"])
        assert math.isfinite(report["stddev_at_horizon"])
        for _, rate, stddev in rows_of(out / "cost_rate_vs_M.csv"):
            assert math.isfinite(float(rate)) and math.isfinite(float(stddev))
        for name in ("availability", "reliability", "interval_reliability"):
            values = [float(value) for _, value in rows_of(out / f"{name}.csv")]
            assert values and all(0.0 <= v <= 1.0 for v in values), name
