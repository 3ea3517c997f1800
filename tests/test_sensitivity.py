import numpy as np
import pytest

from cbmlife import optimize
from cbmlife.model import CostStructure, ShockIntensity
from cbmlife.optimize import PolicyGrid
from cbmlife.sensitivity import (
    VARIATIONS,
    gamma_sensitivity,
    shock_sensitivity,
)
from cbmlife.simulate import SimulationConfig, _simulate_kernel

SEED = 2024
SWEEP = PolicyGrid((10.0,), (12.0, 14.0, 16.0))


def sweep_grid(fixed, sweep):
    """The policy grid of the (axis, value) ``fixed`` and the swept values."""
    axis, value = fixed
    return PolicyGrid((value,), sweep) if axis == "T" else PolicyGrid(sweep, (value,))


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(n_samples=1_500, master_seed=SEED, worker_streams=2)


@pytest.fixture(scope="module")
def gamma_table(ref_model, ref_costs, ref_life, cfg):
    return gamma_sensitivity(ref_model, ref_costs, ref_life, SWEEP, cfg=cfg)


@pytest.fixture(scope="module")
def shock_table(ref_model, ref_costs, ref_life, cfg):
    return shock_sensitivity(ref_model, ref_costs, ref_life, SWEEP, cfg=cfg)


class TestSchemes:
    def test_target_validation(self, ref_model, ref_costs, ref_life, cfg):
        with pytest.raises(ValueError, match="positive"):
            gamma_sensitivity(
                ref_model, ref_costs, ref_life, SWEEP,
                variations=(-100.0, 0.0), cfg=cfg,
            )

    def test_default_vector(self, gamma_table, shock_table):
        assert VARIATIONS == (-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0)
        assert gamma_table.variations == shock_table.variations == VARIATIONS
        assert gamma_table.target == "gamma_params"
        assert shock_table.target == "shock_params"


class TestGammaTable:
    def test_zero_cell_is_exactly_zero(self, gamma_table):
        i = gamma_table.variations.index(0.0)
        assert gamma_table.variation[i, i] == 0.0
        assert gamma_table.min_costs[i, i] == gamma_table.baseline_min

    def test_nonnegative(self, gamma_table):
        gamma_table.validate()

    def test_diagonal_smaller_than_off_diagonal(self, gamma_table):
        # equal-percentage perturbations leave the mean path unchanged
        v = gamma_table.variation
        diag = np.diag(v).mean()
        off = v[~np.eye(v.shape[0], dtype=bool)].mean()
        assert diag < off

    def test_cost_rescaling_invariance(self, ref_model, ref_costs, ref_life, cfg, gamma_table):
        doubled_costs = CostStructure(600.0, 300.0, 90.0, 50.0)
        doubled = gamma_sensitivity(ref_model, doubled_costs, ref_life, SWEEP, cfg=cfg)
        assert np.allclose(doubled.variation, gamma_table.variation, atol=1e-9)


class TestShockTable:
    def test_zero_cell(self, shock_table):
        i = shock_table.variations.index(0.0)
        assert shock_table.variation[i, i] == 0.0

    def test_lambda1_dominates(self, shock_table):
        # rows index the lambda1 perturbation, columns the lambda2 one, so
        # the lambda1 effect is the spread down each column and vice versa
        v = shock_table.variation
        lambda1_effect = (v.max(axis=0) - v.min(axis=0)).mean()
        lambda2_effect = (v.max(axis=1) - v.min(axis=1)).mean()
        assert lambda1_effect > lambda2_effect

    def test_not_symmetric(self, shock_table):
        # negative control: the table must not be symmetric in (vi, vj)
        assert not np.allclose(shock_table.variation, shock_table.variation.T)

    def test_doubled_rates_increase_shock_failures(self, ref_model, ref_policy):
        # common random numbers: identical degradation paths, only the shock
        # clock differs, so shock-dominated failures can only increase
        n = 4_000
        frac = {}
        for scale in (1.0, 2.0):
            shocked = ShockIntensity(
                lambda1=ref_model.shocks.lambda1 * scale,
                lambda2=ref_model.shocks.lambda2 * scale,
            )
            model = type(ref_model)(
                degradation=ref_model.degradation,
                shocks=shocked,
                breakdown_threshold=ref_model.breakdown_threshold,
                shock_threshold=ref_model.shock_threshold,
            )
            rng = np.random.default_rng(SEED)
            *_, sigma_L, Y = _simulate_kernel(
                model, ref_policy.inspection_period, 50.0, 0.1,
                np.full(n, ref_policy.preventive_threshold), rng,
            )
            frac[scale] = float((Y < sigma_L).mean())
        assert frac[2.0] > frac[1.0]

    def test_ordering_warning_propagates(self, ref_model, ref_costs, ref_life, cfg):
        # lambda1 raised far above lambda2 * 0.5 does not occur here, but
        # lambda2 shrunk by 50% at unperturbed lambda1 keeps ordering; use a
        # model where the margin is thin so the warning fires
        thin = type(ref_model)(
            degradation=ref_model.degradation,
            shocks=ShockIntensity(lambda1=0.09, lambda2=0.1),
            breakdown_threshold=ref_model.breakdown_threshold,
            shock_threshold=ref_model.shock_threshold,
        )
        with pytest.warns(UserWarning) as record:
            shock_sensitivity(
                thin, ref_costs, ref_life, PolicyGrid((10.0,), (14.0,)), (-50.0, 0.0),
                cfg,
            )
        # Only lambda2 halved at lambda1 unperturbed breaks the ordering.
        assert [str(w.message) for w in record] == [
            "(vi=0%, vj=-50%) lambda1 > lambda2 violates the increasing-hazard "
            "assumption"
        ]


def test_baseline_cell_is_not_recomputed(ref_model, ref_costs, ref_life, monkeypatch):
    bundles, rows = [], []
    real = optimize.estimate_row

    def counting(models, T, Ms, *args, **kwargs):
        bundles.append(models)
        rows.extend((model, M) for model in models for M in Ms)
        return real(models, T, Ms, *args, **kwargs)

    monkeypatch.setattr(optimize, "estimate_row", counting)
    cfg = SimulationConfig(n_samples=200, master_seed=SEED, worker_streams=2)
    table = gamma_sensitivity(
        ref_model, ref_costs, ref_life, PolicyGrid((10.0,), (14.0,)), (-5.0, 0.0, 5.0),
        cfg,
    )
    # One bundle per alpha, and nine member rows: the baseline, in the
    # bundle of the unperturbed alpha, and the eight perturbed cells.
    assert len(bundles) == 3
    assert all(len({m.degradation.alpha for m in models}) == 1 for models in bundles)
    assert len(rows) == len(set(rows)) == 9
    assert (ref_model, 14.0) in rows
    assert table.min_costs[1, 1] == table.baseline_min
    assert table.variation[1, 1] == 0.0


def test_processes_do_not_matter(ref_model, ref_costs, ref_life):
    # The (bundle, T) rows are the pool's tasks: one row a bundle at a fixed
    # T, one a swept T at a fixed M.  A table does not depend on its size.
    cfg = SimulationConfig(n_samples=100, master_seed=SEED, worker_streams=2)
    for fixed, sweep in ((("T", 10.0), (12.0, 14.0)), (("M", 14.0), (5.0, 10.0, 15.0))):
        tables = [
            gamma_sensitivity(ref_model, ref_costs, ref_life, sweep_grid(fixed, sweep),
                              (-5.0, 0.0, 5.0), cfg, processes)
            for processes in (1, 2)
        ]
        assert np.array_equal(tables[0].min_costs, tables[1].min_costs), fixed
        assert tables[0].baseline_min == tables[1].baseline_min, fixed


@pytest.mark.parametrize(
    "fixed, sweep", [(("M", 14.0), (10.0, 10.0000004)), (("T", 10.0), (14.0, 14.0))]
)
def test_sweep_values_of_one_seed_key_are_refused(
    ref_model, ref_costs, ref_life, monkeypatch, fixed, sweep
):
    # Two swept values of one millionth would key their rows' seed sequences
    # alike; the sweep's grid is refused, so no row is drawn.
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(optimize, "estimate_row", no_rows)
    cfg = SimulationConfig(n_samples=100, master_seed=SEED, worker_streams=2)
    with pytest.raises(ValueError, match="same millionth"):
        gamma_sensitivity(ref_model, ref_costs, ref_life, sweep_grid(fixed, sweep),
                          cfg=cfg)


class TestValidationAndExport:
    def test_positivity_violation(self, ref_model, ref_costs, ref_life, cfg):
        with pytest.raises(ValueError, match="positive"):
            shock_sensitivity(
                ref_model, ref_costs, ref_life, SWEEP,
                variations=(0.0, -110.0), cfg=cfg,
            )

    def test_sweep_above_L_rejected(self, ref_model, ref_costs, ref_life, cfg):
        with pytest.raises(ValueError):
            gamma_sensitivity(
                ref_model, ref_costs, ref_life, PolicyGrid((10.0,), (40.0,)), cfg=cfg
            )
