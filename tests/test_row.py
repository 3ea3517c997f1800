"""estimate_row: one sampler pass serves many table sets, each bit for bit its own.

Every table set of a row must equal the one-threshold estimate_tables with
the same seed sequence, whatever the other thresholds, their order, the pass
size or the thread count.  A pass of several blocks must also equal the same
blocks simulated one by one.
"""

import numpy as np
import pytest

from cbmlife import simulate
from cbmlife.errors import ConfigurationError
from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.optimize import PolicyGrid, optimize_transient
from cbmlife.simulate import (
    SimulationConfig,
    _block_accumulate,
    _passes,
    estimate_row,
    estimate_tables,
    eval_times,
)

SEED = 8642
# Below M_s = 20, between M_s and L = 30, at M_s and at L.
THRESHOLDS = (5.0, 14.0, 20.0, 25.0, 30.0)


@pytest.fixture(scope="module")
def model():
    return SystemModel(
        degradation=GammaDegradation(alpha=0.1, beta=0.1),
        shocks=ShockIntensity(lambda1=0.01, lambda2=0.1),
        breakdown_threshold=30.0,
        shock_threshold=20.0,
    )


def seeds(Ms):
    return [np.random.SeedSequence(SEED, spawn_key=(int(M * 1e6),)) for M in Ms]


def one_by_one(model, T, Ms, life, cfg):
    return [
        estimate_tables(model, MaintenancePolicy(T, M), life, cfg, seed_sequence=seq)
        for M, seq in zip(Ms, seeds(Ms))
    ]


def assert_rows_equal(row, reference):
    assert len(row) == len(reference)
    for tables, ref in zip(row, reference):
        assert tables.equals(ref), f"M={ref.M}"


@pytest.mark.parametrize(
    "T, horizon, n, streams, delta",
    [
        pytest.param(10.0, 50.0, 803, 4, None, id="n-not-divisible"),
        pytest.param(10.0, 50.0, 3, 4, None, id="empty-blocks"),
        pytest.param(10.0, 50.0, 400, 3, 0.3, id="T-over-delta-not-integer"),
        pytest.param(15.0, 50.0, 200, 4, None, id="horizon-not-a-multiple-of-T"),
        pytest.param(5.0, 200.0, 100, 2, 0.5, id="long-horizon"),
    ],
)
def test_row_equals_one_threshold_calls(model, T, horizon, n, streams, delta):
    life = LifeCycle(horizon)
    cfg = SimulationConfig(n_samples=n, path_step=delta, master_seed=SEED,
                           worker_streams=streams)
    row = list(estimate_row(model, T, THRESHOLDS, life, cfg, seeds(THRESHOLDS)))
    assert_rows_equal(row, one_by_one(model, T, THRESHOLDS, life, cfg))


@pytest.mark.parametrize(
    "n, streams",
    [
        pytest.param(130, 4, id="passes-across-thresholds"),  # blocks of 32-33
        pytest.param(404, 4, id="blocks-above-the-cap"),  # blocks of 101
    ],
)
def test_row_spanning_several_passes(model, monkeypatch, n, streams):
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=n, master_seed=SEED, worker_streams=streams)
    reference = one_by_one(model, 10.0, THRESHOLDS, life, cfg)
    monkeypatch.setattr(simulate, "_PASS_PATHS", 100)
    sizes = np.tile(simulate._block_split(n, streams), len(THRESHOLDS))
    assert len(_passes(sizes, simulate._PASS_PATHS)) > len(THRESHOLDS)
    row = list(estimate_row(model, 10.0, THRESHOLDS, life, cfg, seeds(THRESHOLDS)))
    assert_rows_equal(row, reference)


def test_passes_group_in_order_and_never_split():
    assert _passes([30, 120, 50, 50, 0, 10], 100) == [[0], [1], [2, 3], [5]]
    assert _passes([0, 0], 100) == []


@pytest.mark.parametrize(
    "Ms, sizes",
    [
        pytest.param((14.0, 30.0, 5.0, 20.0, 25.0), (1, 37, 5, 120, 2), id="mixed"),
        pytest.param(THRESHOLDS * 3, (1,) * 15, id="one-path-blocks"),
        # With M = L the last block draws no midpoint for L, so a round's
        # draws start and end in the first block.
        pytest.param((14.0, 30.0), (40, 40), id="last-block-at-L"),
    ],
)
def test_pass_equals_blocks_alone(model, Ms, sizes):
    T, life, delta = 10.0, LifeCycle(50.0), 0.1
    times = eval_times(MaintenancePolicy(T, 14.0), life)
    Ms, sizes = np.array(Ms), np.array(sizes)
    seqs = np.random.SeedSequence(SEED).spawn(len(sizes))
    together = _block_accumulate(model, T, life, delta, Ms, sizes, seqs, times)
    for s in range(len(sizes)):
        alone = _block_accumulate(
            model, T, life, delta, Ms[s:s + 1], sizes[s:s + 1], seqs[s:s + 1], times
        )
        for key, value in alone.items():
            assert np.array_equal(together[key][s], value[0]), (s, key)


def test_threshold_order_does_not_matter(model):
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=250, master_seed=SEED)
    row = list(estimate_row(model, 10.0, THRESHOLDS, life, cfg, seeds(THRESHOLDS)))
    permuted = (25.0, 5.0, 30.0, 14.0, 20.0)
    other = list(estimate_row(model, 10.0, permuted, life, cfg, seeds(permuted)))
    by_M = {tables.M: tables for tables in other}
    for tables in row:
        assert tables.equals(by_M[tables.M])


def test_threads_do_not_matter(model):
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=2_500, master_seed=SEED)
    serial = list(estimate_row(model, 10.0, THRESHOLDS, life, cfg, seeds(THRESHOLDS)))
    threaded = list(estimate_row(model, 10.0, THRESHOLDS, life, cfg,
                                 seeds(THRESHOLDS), threads=2))
    assert_rows_equal(threaded, serial)


def test_processes_do_not_matter(model):
    costs = CostStructure(corrective=300.0, preventive=150.0, inspection=45.0,
                          downtime_rate=25.0)
    life = LifeCycle(50.0)
    grid = PolicyGrid(T_values=(10.0, 15.0, 20.0), M_values=(10.0, 14.0, 30.0))
    cfg = SimulationConfig(n_samples=300, master_seed=SEED)
    serial = optimize_transient(model, costs, life, grid, cfg)
    parallel = optimize_transient(model, costs, life, grid, cfg, processes=2)
    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.stderr, parallel.stderr)
    assert serial.warnings == parallel.warnings


def test_policies_checked_at_the_call(model):
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=10)
    with pytest.raises(ConfigurationError, match="must not exceed L"):
        estimate_row(model, 10.0, (14.0, 31.0), life, cfg, seeds((14.0, 31.0)))
    with pytest.raises(ConfigurationError, match="one seed sequence per threshold"):
        estimate_row(model, 10.0, (14.0, 20.0), life, cfg, seeds((14.0,)))
    assert list(estimate_row(model, 10.0, (), life, cfg, [])) == []
