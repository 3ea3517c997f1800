import numpy as np
import pytest

from cbmlife.model import CostStructure, LifeCycle, MaintenancePolicy
from cbmlife.optimize import (
    PolicyGrid,
    optimize_asymptotic,
    optimize_transient,
    renewal_counts,
    write_matrix_csv,
)
from cbmlife.simulate import SimulationConfig

SEED = 31415


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(n_samples=2_000, master_seed=SEED, worker_streams=4)


class TestGrids:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyGrid(T_values=(), M_values=(10.0,))
        with pytest.raises(ValueError):
            PolicyGrid(T_values=(0.0,), M_values=(10.0,))
        with pytest.raises(ValueError):
            PolicyGrid(T_values=(10.0,), M_values=(-1.0,))

    def test_defaults_match_documented_ranges(self):
        grid = PolicyGrid()
        assert len(grid.T_values) == 10
        assert grid.T_values[0] == 5.0 and grid.T_values[-1] == 50.0
        assert len(grid.M_values) == 30
        assert grid.M_values[0] == 1.0 and grid.M_values[-1] == 30.0

    def test_threshold_above_L_rejected(self, ref_model, ref_costs, ref_life, cfg):
        grid = PolicyGrid(T_values=(10.0,), M_values=(35.0,))
        with pytest.raises(ValueError):
            optimize_asymptotic(ref_model, ref_costs, grid, cfg, ref_life)


class TestOptimization:
    def test_single_cell(self, ref_model, ref_costs, ref_life, cfg):
        grid = PolicyGrid(T_values=(10.0,), M_values=(14.0,))
        result = optimize_asymptotic(ref_model, ref_costs, grid, cfg, ref_life)
        assert (result.T_opt, result.M_opt) == (10.0, 14.0)
        assert result.minimum == result.values[0, 0]

    def test_zero_costs_tie_break(self, ref_model, ref_life, cfg):
        with pytest.warns(UserWarning):
            zero = CostStructure(0.0, 0.0, 0.0, 0.0)
        grid = PolicyGrid(T_values=(25.0, 10.0), M_values=(20.0, 8.0))
        result = optimize_asymptotic(ref_model, zero, grid, cfg, ref_life)
        assert np.all(result.values == 0.0)
        # ties resolve to the smallest M, then the smallest T
        assert (result.T_opt, result.M_opt) == (10.0, 8.0)

    def test_determinism_and_order_invariance(self, ref_model, ref_costs, ref_life, cfg):
        grid = PolicyGrid(T_values=(10.0, 25.0), M_values=(10.0, 14.0))
        flipped = PolicyGrid(T_values=(25.0, 10.0), M_values=(14.0, 10.0))
        a = optimize_transient(ref_model, ref_costs, ref_life, grid, cfg)
        b = optimize_transient(ref_model, ref_costs, ref_life, grid, cfg)
        c = optimize_transient(ref_model, ref_costs, ref_life, flipped, cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values[::-1, ::-1])
        assert (a.T_opt, a.M_opt) == (c.T_opt, c.M_opt)

    def test_transient_below_first_inspection(self, ref_model, ref_costs, cfg):
        life = LifeCycle(4.0)
        grid = PolicyGrid(T_values=(5.0, 10.0), M_values=(14.0,))
        result = optimize_transient(ref_model, ref_costs, life, grid, cfg)
        # with t_f < min T the recursion degenerates to the base case
        assert np.all(result.values >= 0.0)
        assert np.all(result.values < ref_costs.downtime_rate)

    def test_stderr_populated(self, ref_model, ref_costs, ref_life, cfg):
        grid = PolicyGrid(T_values=(10.0,), M_values=(14.0,))
        result = optimize_transient(ref_model, ref_costs, ref_life, grid, cfg)
        assert np.isfinite(result.stderr[0, 0]) and result.stderr[0, 0] > 0.0

    def test_local_argmin_smoke(self, ref_model, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=5_000, master_seed=SEED)
        grid = PolicyGrid(T_values=(10.0,), M_values=(6.0, 14.0, 25.0))
        result = optimize_asymptotic(ref_model, ref_costs, grid, cfg, ref_life)
        # the middle threshold beats both extreme ones at T=10
        assert result.M_opt == 14.0


class TestRenewalCounts:
    def test_no_replacements_possible(self, ref_life):
        from cbmlife.model import (
            GammaDegradation,
            ShockIntensity,
            SystemModel,
        )

        model = SystemModel(
            degradation=GammaDegradation(alpha=0.1, beta=0.1),
            shocks=ShockIntensity(lambda1=0.0, lambda2=0.0),
            breakdown_threshold=1e9,
            shock_threshold=1e8,
        )
        policy = MaintenancePolicy(inspection_period=60.0, preventive_threshold=1e8)
        cfg = SimulationConfig(n_samples=200, master_seed=SEED)
        assert renewal_counts(model, policy, ref_life, cfg) == 0.0

    def test_reference_policy_count_is_stable(self, ref_model, ref_policy, ref_life):
        cfg = SimulationConfig(n_samples=5_000, master_seed=SEED)
        count = renewal_counts(ref_model, ref_policy, ref_life, cfg)
        assert 1.5 < count < 3.0


class TestExports:
    def test_matrix_csv_and_report(self, ref_model, ref_costs, ref_life, cfg, tmp_path):
        grid = PolicyGrid(T_values=(10.0,), M_values=(12.0, 14.0))
        result = optimize_transient(ref_model, ref_costs, ref_life, grid, cfg)
        csv_path = tmp_path / "matrix.csv"
        write_matrix_csv(result, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "T,M,value,stderr"
        assert len(lines) == 3
        report = result.to_dict()
        assert report["objective"] == "transient"
        assert (report["T_opt"], report["M_opt"]) == (result.T_opt, result.M_opt)
