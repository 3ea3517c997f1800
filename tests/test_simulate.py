import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlife.errors import CacheInvalidError, ConfigurationError
from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
    first_passage_cdf,
)
from cbmlife.simulate import (
    SimulationConfig,
    chain_cycles,
    chain_statistics,
    estimate_tables,
    load_tables,
    persist_tables,
    simulate_cycle,
)

SEED = 1234


def make_model(alpha=0.1, beta=0.1, lam1=0.01, lam2=0.1, L=30.0, Ms=20.0):
    return SystemModel(
        degradation=GammaDegradation(alpha=alpha, beta=beta),
        shocks=ShockIntensity(lambda1=lam1, lambda2=lam2),
        breakdown_threshold=L,
        shock_threshold=Ms,
    )


def zero_costs():
    with pytest.warns(UserWarning):
        return CostStructure(0.0, 0.0, 0.0, 0.0)


class TestSimulateCycle:
    def test_nothing_can_trigger_replacement(self):
        model = make_model(lam1=0.0, lam2=0.0, L=1e9, Ms=1e8)
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=1e8)
        life = LifeCycle(50.0)
        cfg = SimulationConfig(n_samples=1, master_seed=SEED)
        rng = np.random.default_rng(SEED)
        sample = simulate_cycle(model, policy, life, cfg, rng)
        assert sample.kind == "censored"
        assert sample.inspections_count == 5
        assert sample.replacement_time == 50.0

    def test_sample_invariants(self, ref_model, ref_policy, ref_life):
        cfg = SimulationConfig(n_samples=1, master_seed=SEED)
        rng = np.random.default_rng(SEED)
        T = ref_policy.inspection_period
        seen = set()
        for _ in range(300):
            s = simulate_cycle(ref_model, ref_policy, ref_life, cfg, rng)
            seen.add(s.kind)
            if s.kind == "corrective":
                assert s.failure_time is not None
                assert 0.0 <= s.replacement_time - s.failure_time < T
            if s.kind == "preventive":
                assert s.failure_time is None
            if s.kind != "censored":
                k = s.replacement_time / T
                assert abs(k - round(k)) < 1e-9
                assert s.inspections_count == round(k) - 1
        assert {"corrective", "preventive"} <= seen

    def test_bad_step_rejected(self, ref_model, ref_policy, ref_life):
        for step in (-0.5, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                SimulationConfig(n_samples=1, path_step=step)
        cfg = SimulationConfig(n_samples=1, path_step=5.0)  # > T/10 for T=10
        with pytest.raises(ConfigurationError):
            simulate_cycle(ref_model, ref_policy, ref_life, cfg, np.random.default_rng(0))


class TestEstimateTables:
    def test_counting_identity(self, tables_small, cfg_small):
        total = (
            tables_small.p_preventive.sum()
            + tables_small.p_corrective.sum()
            + tables_small.censored_fraction
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_probability_ranges(self, tables_small):
        tables_small.validate()
        assert tables_small.alive_no_replacement[0] == 1.0

    def test_unreachable_failure_modes(self, ref_life):
        model = make_model(lam1=0.0, lam2=0.0, L=1e9, Ms=1e8)
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=1e8)
        cfg = SimulationConfig(n_samples=500, master_seed=SEED)
        tables = estimate_tables(model, policy, ref_life, cfg)
        assert tables.p_preventive.sum() == 0.0
        assert tables.p_corrective.sum() == 0.0
        assert np.all(tables.alive_no_replacement == 1.0)

    def test_crossing_times_match_closed_form(self, ref_model, ref_life):
        # empirical P[sigma_Ms <= t] against the first-passage CDF
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=14.0)
        cfg = SimulationConfig(n_samples=20_000, master_seed=SEED)
        from cbmlife.simulate import _simulate_kernel

        rng = np.random.default_rng(SEED)
        *_, sigma_Ms, _sigma_L, _Y = _simulate_kernel(
            ref_model, policy.inspection_period, 50.0, 0.1,
            [policy.preventive_threshold], [cfg.n_samples], [rng],
        )
        n = cfg.n_samples
        for t in np.linspace(5.0, 50.0, 10):
            p_hat = float((sigma_Ms <= t).mean())
            p = first_passage_cdf(ref_model, 20.0, float(t))
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            # the grid records crossings at the next step, a small upward bias
            assert abs(p_hat - p) <= 3.0 * se + 0.05 * 0.1

    def test_step_refinement_stability(self, ref_model, ref_policy, ref_life):
        n = 5_000
        coarse = estimate_tables(
            ref_model, ref_policy, ref_life,
            SimulationConfig(n_samples=n, path_step=0.1, master_seed=SEED),
        )
        fine = estimate_tables(
            ref_model, ref_policy, ref_life,
            SimulationConfig(n_samples=n, path_step=0.05, master_seed=SEED),
        )
        for attr in ("p_preventive", "p_corrective"):
            a = getattr(coarse, attr)
            b = getattr(fine, attr)
            # the two runs are independent draws, so the noise scale of the
            # difference is the combined standard error
            se = np.sqrt(2.0 * np.maximum(b * (1.0 - b), 1e-12) / n)
            assert np.all(np.abs(a - b) <= 3.0 * se + 3.0 / n)

    def test_determinism(self, ref_model, ref_policy, ref_life):
        cfg = SimulationConfig(n_samples=2_000, master_seed=SEED, worker_streams=3)
        t1 = estimate_tables(ref_model, ref_policy, ref_life, cfg)
        t2 = estimate_tables(ref_model, ref_policy, ref_life, cfg)
        t3 = estimate_tables(ref_model, ref_policy, ref_life, cfg, threads=4)
        assert t1.equals(t2)
        assert t1.equals(t3)

    @pytest.mark.parametrize("hook", ["rate", "integrated"])
    def test_shock_hook_override_rejected(self, hook, ref_model, ref_policy, ref_costs,
                                          ref_life):
        hooked = type("HookedShocks", (ShockIntensity,), {
            hook: lambda self, regime, t: 0.0,
        })
        model = replace(ref_model, shocks=hooked(lambda1=0.01, lambda2=0.1))
        cfg = SimulationConfig(n_samples=10)
        with pytest.raises(ConfigurationError, match="overrides rate or integrated"):
            estimate_tables(model, ref_policy, ref_life, cfg)
        with pytest.raises(ConfigurationError, match="overrides rate or integrated"):
            chain_statistics(model, ref_policy, ref_costs, ref_life, cfg)

    def test_threshold_above_L_rejected(self, ref_model, ref_life):
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=31.0)
        with pytest.raises(ConfigurationError):
            estimate_tables(
                ref_model, policy, ref_life, SimulationConfig(n_samples=10)
            )

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.5),
        beta=st.floats(min_value=0.05, max_value=0.5),
        lam1=st.floats(min_value=0.0, max_value=0.05),
        lam_gap=st.floats(min_value=0.0, max_value=0.2),
        M=st.floats(min_value=5.0, max_value=25.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_tables_valid_for_random_models(self, alpha, beta, lam1, lam_gap, M):
        model = make_model(alpha=alpha, beta=beta, lam1=lam1, lam2=lam1 + lam_gap)
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=M)
        tables = estimate_tables(
            model, policy, LifeCycle(50.0),
            SimulationConfig(n_samples=400, path_step=1.0, master_seed=SEED),
        )
        tables.validate()


class TestChaining:
    def test_zero_costs(self, ref_model, ref_policy, ref_life):
        costs = zero_costs()
        cfg = SimulationConfig(n_samples=1, master_seed=SEED)
        rng = np.random.default_rng(SEED)
        samples, total = chain_cycles(ref_model, ref_policy, costs, ref_life, cfg, rng)
        assert total == 0.0
        assert samples

    def test_chain_cycles_clock(self, ref_model, ref_policy, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=1, master_seed=SEED)
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            samples, total = chain_cycles(
                ref_model, ref_policy, ref_costs, ref_life, cfg, rng
            )
            assert total >= 0.0
            elapsed = sum(s.replacement_time for s in samples)
            assert elapsed <= ref_life.horizon + 1e-9
            for s in samples[:-1]:
                assert s.kind in ("corrective", "preventive")

    def test_variance_identity(self, strict_full):
        _, totals = strict_full
        var = totals.var()
        assert var >= 0.0
        assert var == pytest.approx((totals**2).mean() - totals.mean() ** 2, rel=1e-9)

    def test_chain_statistics_determinism(self, ref_model, ref_policy, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=1_000, master_seed=SEED)
        a = chain_statistics(ref_model, ref_policy, ref_costs, ref_life, cfg)
        b = chain_statistics(ref_model, ref_policy, ref_costs, ref_life, cfg, threads=3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPersistence:
    def test_round_trip(self, tables_small, tmp_path):
        path = tmp_path / "tables.npz"
        persist_tables(tables_small, path)
        loaded = load_tables(path, expected_digest=tables_small.digest)
        assert tables_small.equals(loaded)

    def test_digest_mismatch(self, tables_small, tmp_path):
        path = tmp_path / "tables.npz"
        persist_tables(tables_small, path)
        with pytest.raises(CacheInvalidError):
            load_tables(path, expected_digest="0" * 64)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(open(path, "wb"), nonsense=np.arange(3))
        with pytest.raises(CacheInvalidError):
            load_tables(path)
