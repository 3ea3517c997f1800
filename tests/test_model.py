import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
    conditional_shock_survival,
    first_passage_cdf,
    regularized_lower_gamma,
    regularized_upper_gamma,
    sample_gamma_increment,
    shock_survival_baseline,
)

DEG = GammaDegradation(alpha=0.1, beta=0.1)
SHOCKS = ShockIntensity(lambda1=0.01, lambda2=0.1)


class TestRegularizedGamma:
    def test_at_zero(self):
        assert regularized_upper_gamma(1.0, 0.0) == 1.0

    def test_exponential_closed_form(self):
        assert regularized_upper_gamma(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_against_quadrature_oracle(self):
        a, x = 3.4, 3.0
        oracle, _ = integrate.quad(
            lambda u: u ** (a - 1.0) * math.exp(-u), x, np.inf
        )
        oracle /= math.gamma(a)
        assert regularized_upper_gamma(a, x) == pytest.approx(oracle, rel=1e-10)

    def test_large_shape_stays_finite(self):
        for a in (1e3, 1e4, 5e4):
            q = regularized_upper_gamma(a, a)
            assert 0.0 < q < 1.0 and math.isfinite(q)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_upper_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(1.0, -0.5)

    @given(
        a=st.floats(min_value=0.05, max_value=500.0),
        x=st.floats(min_value=0.0, max_value=800.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_upper_plus_lower_is_one(self, a, x):
        total = regularized_upper_gamma(a, x) + regularized_lower_gamma(a, x)
        assert abs(total - 1.0) < 1e-10

    @given(
        a=st.floats(min_value=0.1, max_value=50.0),
        x1=st.floats(min_value=0.0, max_value=100.0),
        dx=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_nonincreasing_in_x(self, a, x1, dx):
        assert regularized_upper_gamma(a, x1 + dx) <= regularized_upper_gamma(a, x1) + 1e-12

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.05, 200.0))
            x = float(rng.uniform(0.0, 400.0))
            assert regularized_upper_gamma(a, x) == pytest.approx(
                float(special.gammaincc(a, x)), abs=1e-12, rel=1e-10
            )


class TestFirstPassage:
    def test_zero_time(self):
        assert first_passage_cdf(DEG, 30.0, 0.0) == 0.0
        assert first_passage_cdf(DEG, 30.0, 5e-324) == 0.0

    def test_monte_carlo_oracle(self):
        n = 1_000_000
        rng = np.random.default_rng(42)
        draws = rng.gamma(0.1 * 25.0, 10.0, n)
        p_hat = float((draws >= 20.0).mean())
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        assert abs(first_passage_cdf(DEG, 20.0, 25.0) - p_hat) <= 3.0 * se

    def test_mean_passage_time_matches_quadrature(self):
        # E[sigma_30] by integrating the survival of the first-passage time.
        oracle, _ = integrate.quad(
            lambda t: special.gammainc(0.1 * t, 30.0 * 0.1), 0.0, 2000.0, limit=400
        )
        ours, _ = integrate.quad(
            lambda t: 1.0 - first_passage_cdf(DEG, 30.0, t), 0.0, 2000.0, limit=400
        )
        assert ours == pytest.approx(oracle, rel=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            first_passage_cdf(DEG, -1.0, 5.0)
        with pytest.raises(ValueError):
            first_passage_cdf(DEG, 5.0, -1.0)

    @given(
        t1=st.floats(min_value=0.0, max_value=200.0),
        dt=st.floats(min_value=0.0, max_value=100.0),
        z=st.floats(min_value=0.5, max_value=60.0),
    )
    @settings(max_examples=100, deadline=None)
    @example(t1=0.0, dt=5e-324, z=1.0)
    def test_monotone_in_t(self, t1, dt, z):
        assert first_passage_cdf(DEG, z, t1 + dt) >= first_passage_cdf(DEG, z, t1) - 1e-12

    @given(
        z1=st.floats(min_value=0.5, max_value=40.0),
        dz=st.floats(min_value=0.0, max_value=20.0),
        t=st.floats(min_value=0.1, max_value=200.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_z(self, z1, dz, t):
        assert first_passage_cdf(DEG, z1 + dz, t) <= first_passage_cdf(DEG, z1, t) + 1e-12


class TestShockSurvival:
    def test_equal_rates_collapse(self):
        same = ShockIntensity(lambda1=0.05, lambda2=0.05)
        for v, t in ((0.0, 7.0), (3.0, 9.0), (10.0, 10.0)):
            assert conditional_shock_survival(same, v, t) == pytest.approx(
                math.exp(-0.05 * t), rel=1e-12
            )

    def test_crossing_at_zero(self):
        assert conditional_shock_survival(SHOCKS, 0.0, 12.0) == pytest.approx(
            shock_survival_baseline(SHOCKS, 2, 12.0), rel=1e-12
        )

    def test_reference_value(self):
        assert conditional_shock_survival(SHOCKS, 20.0, 30.0) == pytest.approx(
            math.exp(-0.01 * 20.0 - 0.1 * 10.0), rel=1e-12
        )

    def test_time_before_crossing_rejected(self):
        with pytest.raises(ValueError):
            conditional_shock_survival(SHOCKS, 5.0, 4.0)

    def test_baseline_values(self):
        assert shock_survival_baseline(SHOCKS, 1, 0.0) == 1.0
        assert shock_survival_baseline(SHOCKS, 1, 100.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_baseline_mean_by_quadrature(self):
        mean, _ = integrate.quad(
            lambda t: shock_survival_baseline(SHOCKS, 2, t), 0.0, 500.0
        )
        assert mean == pytest.approx(10.0, rel=1e-6)

    @given(
        v=st.floats(min_value=0.0, max_value=30.0),
        dt1=st.floats(min_value=0.0, max_value=30.0),
        dt2=st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_and_in_unit_interval(self, v, dt1, dt2):
        a = conditional_shock_survival(SHOCKS, v, v + dt1)
        b = conditional_shock_survival(SHOCKS, v, v + dt1 + dt2)
        assert 0.0 < b <= a <= 1.0


class TestSampling:
    def test_zero_step(self):
        rng = np.random.default_rng(1)
        assert sample_gamma_increment(DEG, 0.0, rng) == 0.0

    def test_moments(self):
        rng = np.random.default_rng(2)
        draws = sample_gamma_increment(DEG, 10.0, rng, size=1_000_000)
        mean, var = draws.mean(), draws.var()
        se_mean = draws.std() / 1000.0
        assert abs(mean - 10.0) <= 3.0 * se_mean
        # variance of the sample variance for a gamma law, rough normal bound
        se_var = math.sqrt((draws**4).mean()) / 1000.0
        assert abs(var - 100.0) <= 3.0 * se_var

    def test_increment_additivity_ks(self):
        rng = np.random.default_rng(3)
        n = 100_000
        split = sample_gamma_increment(DEG, 4.0, rng, n) + sample_gamma_increment(
            DEG, 6.0, rng, n
        )
        whole = sample_gamma_increment(DEG, 10.0, rng, n)
        result = stats.ks_2samp(split, whole)
        assert result.pvalue > 0.01


class TestTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            GammaDegradation(alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            ShockIntensity(lambda1=-0.1, lambda2=0.1)
        with pytest.raises(ValueError):
            MaintenancePolicy(inspection_period=0.0, preventive_threshold=5.0)
        with pytest.raises(ValueError):
            CostStructure(corrective=-1.0, preventive=0.0, inspection=0.0, downtime_rate=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: GammaDegradation(alpha=x, beta=0.1),
            lambda x: GammaDegradation(alpha=0.1, beta=x),
            lambda x: ShockIntensity(lambda1=0.01, lambda2=x),
            lambda x: SystemModel(DEG, SHOCKS, x, 20.0),
            lambda x: SystemModel(DEG, SHOCKS, 30.0, x),
            lambda x: MaintenancePolicy(inspection_period=x, preventive_threshold=5.0),
            lambda x: MaintenancePolicy(inspection_period=10.0, preventive_threshold=x),
            lambda x: CostStructure(300.0, 150.0, 45.0, x),
            lambda x: LifeCycle(horizon=x),
        ],
        ids=["alpha", "beta", "lambda2", "L", "Ms", "T", "M", "downtime_rate",
             "horizon"],
    )
    def test_non_finite_rejected(self, build, bad):
        with pytest.raises(ValueError, match="must be finite"):
            build(bad)

    def test_rate_ordering_warns(self):
        with pytest.warns(UserWarning):
            ShockIntensity(lambda1=0.2, lambda2=0.1)

    def test_moment_helpers(self):
        assert DEG.mean(10.0) == pytest.approx(10.0)
        assert DEG.variance(10.0) == pytest.approx(100.0)
