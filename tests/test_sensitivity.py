import numpy as np
import pytest

from cbmlife import sensitivity
from cbmlife.model import MaintenancePolicy, ShockIntensity
from cbmlife.sensitivity import (
    PerturbationScheme,
    gamma_sensitivity,
    shock_sensitivity,
    write_variation_csv,
)
from cbmlife.simulate import SimulationConfig, _simulate_kernel

SEED = 2024
SWEEP = (12.0, 14.0, 16.0)


@pytest.fixture(scope="module")
def cfg():
    return SimulationConfig(n_samples=1_500, master_seed=SEED, worker_streams=2)


@pytest.fixture(scope="module")
def gamma_table(ref_model, ref_costs, ref_life, cfg):
    return gamma_sensitivity(
        ref_model, ref_costs, ref_life, ("T", 10.0), SWEEP, cfg=cfg
    )


@pytest.fixture(scope="module")
def shock_table(ref_model, ref_costs, ref_life, cfg):
    return shock_sensitivity(
        ref_model, ref_costs, ref_life, ("T", 10.0), SWEEP, cfg=cfg
    )


class TestSchemes:
    def test_target_validation(self):
        with pytest.raises(ValueError):
            PerturbationScheme(target="nope")
        with pytest.raises(ValueError):
            PerturbationScheme(variations=(-100.0, 0.0))

    def test_default_vector(self):
        scheme = PerturbationScheme()
        assert scheme.variations == (-10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0)


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
        doubled = gamma_sensitivity(
            ref_model, ref_costs.scaled(2.0), ref_life, ("T", 10.0), SWEEP, cfg=cfg
        )
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
                [ref_policy.preventive_threshold], [n], [rng],
            )
            frac[scale] = float((Y < sigma_L).mean())
        assert frac[2.0] > frac[1.0]

    def test_ordering_warning_propagates(self, ref_model, ref_costs, ref_life, cfg):
        scheme = PerturbationScheme(
            variations=(-50.0, 0.0), target="shock_params"
        )
        # lambda1 raised far above lambda2 * 0.5 does not occur here, but
        # lambda2 shrunk by 50% at unperturbed lambda1 keeps ordering; use a
        # model where the margin is thin so the warning fires
        thin = type(ref_model)(
            degradation=ref_model.degradation,
            shocks=ShockIntensity(lambda1=0.09, lambda2=0.1),
            breakdown_threshold=ref_model.breakdown_threshold,
            shock_threshold=ref_model.shock_threshold,
        )
        with pytest.warns(UserWarning):
            shock_sensitivity(
                thin, ref_costs, ref_life, ("T", 10.0), (14.0,), scheme, cfg
            )


def test_baseline_cell_is_not_recomputed(ref_model, ref_costs, ref_life, monkeypatch):
    simulated = []
    real = sensitivity.estimate_row

    def counting(model, T, Ms, *args, **kwargs):
        simulated.extend([model] * len(Ms))
        return real(model, T, Ms, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "estimate_row", counting)
    scheme = PerturbationScheme(variations=(-5.0, 0.0, 5.0))
    cfg = SimulationConfig(n_samples=200, master_seed=SEED, worker_streams=2)
    table = gamma_sensitivity(
        ref_model, ref_costs, ref_life, ("T", 10.0), (14.0,), scheme, cfg
    )
    assert len(simulated) == 9  # the baseline and the eight perturbed cells
    assert table.min_costs[1, 1] == table.baseline_min
    assert table.variation[1, 1] == 0.0


class TestValidationAndExport:
    def test_positivity_violation(self, ref_model, ref_costs, ref_life, cfg):
        with pytest.raises(ValueError):
            PerturbationScheme(variations=(-110.0, 0.0), target="gamma_params")

    def test_sweep_above_L_rejected(self, ref_model, ref_costs, ref_life, cfg):
        with pytest.raises(ValueError):
            gamma_sensitivity(
                ref_model, ref_costs, ref_life, ("T", 10.0), (40.0,), cfg=cfg
            )

    def test_csv_layout(self, gamma_table, tmp_path):
        path = tmp_path / "var.csv"
        write_variation_csv(gamma_table, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(gamma_table.variations) + 1
        assert lines[0].startswith("vi\\vj,")
        first_row = lines[1].split(",")
        assert len(first_row) == len(gamma_table.variations) + 1
        assert all(len(x.split(".")[1]) == 4 for x in first_row[1:])
