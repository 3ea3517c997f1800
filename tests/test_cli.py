import json
import shutil
from pathlib import Path

import pytest

from cbmlife import cli
from cbmlife.cli import dump_config, main, parse_config, parse_grid_spec
from cbmlife.errors import ConfigurationError

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


@pytest.fixture()
def small_config(tmp_path):
    """The shipped config with a tiny sample budget for fast runs."""
    text = CONFIG.read_text().replace("n_samples = 50000", "n_samples = 800")
    path = tmp_path / "small.cfg"
    path.write_text(text)
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

    def test_round_trip(self, tmp_path):
        rc = parse_config(CONFIG)
        path = tmp_path / "dumped.cfg"
        path.write_text(dump_config(rc))
        rc2 = parse_config(path)
        assert rc2.model == rc.model
        assert rc2.costs == rc.costs
        assert rc2.policy == rc.policy
        assert rc2.sim == rc.sim
        assert rc2.grid.T_values == pytest.approx(rc.grid.T_values)

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
        with pytest.raises(ConfigurationError):
            parse_grid_spec("5")
        with pytest.raises(ConfigurationError):
            parse_grid_spec("5:1")


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

    def test_non_finite_interval_length(self, small_config, tmp_path, monkeypatch):
        simulated = []

        def no_simulation(*args, **kwargs):
            simulated.append(args)
            raise AssertionError("a table set was simulated before --ir-s was checked")

        monkeypatch.setattr(cli, "estimate_row", no_simulation)
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
