import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from cbmlife.errors import InconsistencyError
from cbmlife.model import CostStructure, GammaDegradation, LifeCycle, MaintenancePolicy
from cbmlife.optimize import (
    PolicyGrid,
    estimate_grid,
    optimize_asymptotic,
    optimize_transient,
    truncation_note,
)
from cbmlife.renewal import asymptotic_cost_rate, expected_cost
from cbmlife.simulate import (
    SimulationConfig,
    chain_statistics,
    estimate_row,
    estimate_tables,
    row_seed,
)

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
        with pytest.raises(ValueError, match="M values must not repeat"):
            PolicyGrid(T_values=(10.0,), M_values=(14.0, 15.0, 14.0))
        with pytest.raises(ValueError, match="T values must not repeat"):
            PolicyGrid(T_values=(10.0, 10.0), M_values=(14.0,))

    def test_values_of_one_seed_key_are_refused(self):
        # Rows are seeded by their T in millionths, so T values that round
        # to the same millionth would share one random stream.
        with pytest.raises(ValueError, match="T values must not repeat"):
            PolicyGrid(T_values=(10.0, 10.0000004), M_values=(14.0,))
        with pytest.raises(ValueError, match="M values must not repeat"):
            PolicyGrid(T_values=(10.0,), M_values=(14.0, 14.0000004))
        with pytest.raises(ValueError, match="finite"):
            PolicyGrid(T_values=(10.0, math.inf), M_values=(14.0,))
        PolicyGrid(T_values=(10.0, 10.000001), M_values=(14.0,))

    def test_defaults_match_documented_ranges(self):
        grid = PolicyGrid()
        assert len(grid.T_values) == 10
        assert grid.T_values[0] == 5.0 and grid.T_values[-1] == 50.0
        assert len(grid.M_values) == 30
        assert grid.M_values[0] == 1.0 and grid.M_values[-1] == 30.0

    def test_threshold_above_L_rejected(self, ref_model, ref_costs, ref_life, cfg):
        grid = PolicyGrid(T_values=(10.0,), M_values=(35.0,))
        with pytest.raises(ValueError):
            optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)


class TestOptimization:
    def test_single_cell(self, ref_model, ref_costs, ref_life, cfg):
        grid = PolicyGrid(T_values=(10.0,), M_values=(14.0,))
        result = optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)
        assert (result.T_opt, result.M_opt) == (10.0, 14.0)
        assert result.minimum == result.values[0, 0]

    def test_zero_costs_tie_break(self, ref_model, ref_life, cfg):
        zero = zero_costs()
        grid = PolicyGrid(T_values=(25.0, 10.0), M_values=(20.0, 8.0))
        result = optimize_asymptotic(ref_model, zero, ref_life, grid, cfg)
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

    def test_one_truncation_warning_per_cell(
        self, ref_model, ref_costs, ref_life, cfg
    ):
        # the censored mass crosses 1% inside this grid, where one block of
        # a cell can reach it while the cell's pooled tables do not
        grid = PolicyGrid(T_values=(10.0, 15.0, 20.0), M_values=(8.0, 12.0, 16.0))
        result = optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)
        warned = 0
        for T in grid.T_values:
            row = estimate_row(ref_model, T, grid.M_values, ref_life, cfg,
                               row_seed(cfg.master_seed, T))
            for M, fraction in zip(grid.M_values, row.censored_fraction):
                label = f"(T={T:g}, M={M:g}) "
                cell = [m for m in result.warnings if m.startswith(label)]
                if fraction >= 0.01:
                    assert len(cell) == 1
                    assert f"censored mass {fraction:.3f} " in cell[0]
                    warned += 1
                else:
                    assert cell == []
        assert warned > 0
        assert len(result.warnings) == warned

    def test_warnings_keep_the_one_table_text_and_grid_order(
        self, ref_model, ref_costs, ref_life, cfg
    ):
        grid = PolicyGrid(T_values=(20.0, 10.0, 15.0), M_values=(16.0, 8.0, 12.0))
        result = optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)
        expected = []
        for T in grid.T_values:
            row = estimate_row(ref_model, T, grid.M_values, ref_life, cfg,
                               row_seed(cfg.master_seed, T))
            for i, M in enumerate(grid.M_values):
                note = truncation_note(row.take(i).censored_fraction[0])
                expected += [] if note is None else [f"(T={T:g}, M={M:g}) {note}"]
        assert expected and list(result.warnings) == expected

    @pytest.mark.parametrize("n, finite", [(1, False), (3, True), (5, True)])
    def test_stderr_over_nonempty_blocks(
        self, ref_model, ref_costs, ref_life, n, finite
    ):
        # n < worker_streams leaves blocks empty; a cell of one nonempty
        # block has no batch-means error.
        cfg = SimulationConfig(n_samples=n, master_seed=SEED, worker_streams=4)
        grid = PolicyGrid(T_values=(10.0,), M_values=(14.0,))
        result = optimize_transient(ref_model, ref_costs, ref_life, grid, cfg)
        tables = estimate_tables(
            ref_model, MaintenancePolicy(10.0, 14.0), ref_life, cfg,
            seed_sequence=row_seed(SEED, 10.0),
        )
        assert result.values[0, 0] == expected_cost(tables, ref_costs, 50.0)[0] / 50.0
        assert np.isfinite(result.stderr[0, 0]) == finite
        if finite:
            rates = expected_cost(tables.batches(), ref_costs, 50.0) / 50.0
            assert len(rates) == min(n, 4)
            se = np.std(rates, ddof=1) / np.sqrt(len(rates))
            assert result.stderr[0, 0] == se

    def test_row_stderrs_are_each_cells_own_batch_means(
        self, ref_model, ref_costs, ref_life
    ):
        # The row's standard errors, taken along its batches at once, are
        # each cell's own np.std call, NaN where a block has no rate.
        cfg = SimulationConfig(n_samples=32, master_seed=SEED, worker_streams=16)
        Ms = (4.0, 10.0, 18.0, 26.0)
        grid = PolicyGrid(T_values=(30.0,), M_values=Ms)
        result = optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)
        tables = estimate_row(ref_model, 30.0, Ms, ref_life, cfg, row_seed(SEED, 30.0))
        rates = asymptotic_cost_rate(tables.batches(), ref_costs).reshape(len(Ms), -1)
        expected = [np.std(r, ddof=1) / np.sqrt(len(r)) for r in rates]
        np.testing.assert_array_equal(result.stderr[0], expected)
        assert 0 < np.isnan(expected).sum() < len(Ms)

    def test_block_without_replacement_mass_leaves_no_stderr(
        self, ref_model, ref_costs, ref_life
    ):
        cfg = SimulationConfig(n_samples=8, master_seed=20_260_824, worker_streams=4)
        result = optimize_asymptotic(ref_model, ref_costs, ref_life, PolicyGrid(), cfg)
        assert np.isfinite(result.values).all()
        assert 0 < np.isnan(result.stderr).sum() < result.stderr.size

    def test_cell_without_replacement_mass_is_named(
        self, ref_model, ref_costs, ref_life, cfg
    ):
        # No inspection falls within the horizon, so nothing is ever replaced.
        grid = PolicyGrid(T_values=(60.0,), M_values=(14.0,))
        with pytest.raises(InconsistencyError, match=r"\(T=60, M=14\) no replacement"):
            optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)

    def test_local_argmin_smoke(self, ref_model, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=5_000, master_seed=SEED)
        grid = PolicyGrid(T_values=(10.0,), M_values=(6.0, 14.0, 25.0))
        result = optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)
        # the middle threshold beats both extreme ones at T=10
        assert result.M_opt == 14.0


@pytest.mark.parametrize(
    "processes, paired",
    [
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(1, True, id="1-paired"),
        pytest.param(2, True, id="2-paired"),
    ],
)
def test_grid_rows_are_the_estimate_row_calls(ref_model, ref_life, processes, paired):
    # Bundle-major, each bundle's rows in the grid's T order, each seeded by
    # its T, whether or not a pool draws them.
    cfg = SimulationConfig(n_samples=60, master_seed=SEED, worker_streams=2)
    steeper = replace(ref_model, degradation=GammaDegradation(alpha=0.1, beta=0.105))
    bundles = [ref_model, [ref_model, steeper]]
    grid = PolicyGrid(T_values=(15.0, 5.0), M_values=(14.0, 8.0))
    rows = list(estimate_grid(bundles, grid, ref_life, cfg, processes, paired))
    expected = [
        estimate_row(bundle, T, grid.M_values, ref_life, cfg,
                     row_seed(cfg.master_seed, T), paired=paired)
        for bundle in bundles
        for T in grid.T_values
    ]
    assert len(rows) == len(expected) == 4
    assert all(row.equals(other) for row, other in zip(rows, expected))


@pytest.mark.parametrize("processes, size", [(3, 3), (5_000, 4)])
def test_a_pool_holds_at_most_one_process_a_row(
    ref_model, ref_life, monkeypatch, processes, size
):
    # A ProcessPoolExecutor starts all its processes at the first task, so
    # the pool is sized at the row count.  The recording executor starts
    # none: it maps the tasks in this process.
    import concurrent.futures

    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    cfg = SimulationConfig(n_samples=20, master_seed=SEED, worker_streams=2)
    grid = PolicyGrid(T_values=(15.0, 5.0), M_values=(14.0, 8.0))
    bundles = [ref_model, ref_model]
    rows = list(estimate_grid(bundles, grid, ref_life, cfg, processes))
    assert sizes == [size]
    serial = estimate_grid(bundles, grid, ref_life, cfg)
    assert all(row.equals(other) for row, other in zip(rows, serial, strict=True))


def zero_costs():
    with pytest.warns(UserWarning):
        return CostStructure(0.0, 0.0, 0.0, 0.0)


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
        counts, _ = chain_statistics(model, policy, zero_costs(), ref_life, cfg)
        assert counts.mean() == 0.0

    def test_reference_policy_count_is_stable(self, ref_model, ref_policy, ref_life):
        cfg = SimulationConfig(n_samples=5_000, master_seed=SEED)
        counts, _ = chain_statistics(ref_model, ref_policy, zero_costs(), ref_life, cfg)
        assert 1.5 < counts.mean() < 3.0


def test_optimizers_share_one_signature():
    asymptotic = inspect.signature(optimize_asymptotic).parameters
    transient = inspect.signature(optimize_transient).parameters
    assert list(asymptotic) == list(transient)
    assert list(asymptotic) == ["model", "costs", "life", "grid", "cfg", "processes"]
    assert asymptotic["processes"].default == transient["processes"].default == 1
