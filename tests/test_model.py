import math

import numpy as np
import pytest
from crossings import all_crossings
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.simulate import _simulate_kernel

DEG = GammaDegradation(alpha=0.1, beta=0.1)
SHOCKS = ShockIntensity(lambda1=0.01, lambda2=0.1)


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



# The first-passage and shock laws that the model defines, checked on the
# sampler's draws of them (cbmlife.simulate).


def _failure_times(model, n, delta, horizon, seed):
    """Unmaintained (sigma_L, Y) draws, np.inf beyond the horizon."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    *_, sigma_L, Y = _simulate_kernel(
        model, horizon, horizon, delta, np.full(n, model.breakdown_threshold), rng
    )
    return sigma_L, Y


def _crossings(z, horizon, delta, n, seed, shocks=None):
    """Sampled first-passage times of level z (np.inf past the horizon)."""
    model = SystemModel(DEG, shocks or ShockIntensity(0.0, 0.0), z, z)
    return _failure_times(model, n, delta, horizon, seed)


class TestFirstPassage:
    def test_zero_time(self):
        # P[sigma_z <= 0] = 0: every crossing lies on the grid at delta or later
        sigma, _ = _crossings(30.0, 50.0, 0.1, 2_000, seed=5)
        assert np.all(sigma >= 0.1 - 1e-12)
        finite = sigma[np.isfinite(sigma)]
        assert np.allclose(finite / 0.1, np.round(finite / 0.1))

    def test_monte_carlo_oracle(self):
        # at the horizon, a grid point, sigma_z <= t exactly when X(t) >= z
        n = 200_000
        sigma, _ = _crossings(20.0, 25.0, 0.01, n, seed=42)
        p_hat = float((sigma <= 25.0).mean())
        se = math.sqrt(p_hat * (1.0 - p_hat) / n)
        p = float(special.gammaincc(0.1 * 25.0, 0.1 * 20.0))
        assert abs(p - p_hat) <= 3.0 * se

    def test_mean_passage_time_matches_quadrature(self):
        # E[sigma_30] by integrating the survival of the first-passage time.
        oracle, _ = integrate.quad(
            lambda t: special.gammainc(0.1 * t, 30.0 * 0.1), 0.0, 2000.0, limit=400
        )
        n = 50_000
        sigma, _ = _crossings(30.0, 2000.0, 0.05, n, seed=11)
        assert np.isfinite(sigma).all()
        # the grid records a crossing at the next step, less than delta late
        se = sigma.std() / math.sqrt(n)
        assert abs(sigma.mean() - oracle) <= 3.0 * se + 0.05

    @given(
        z1=st.floats(min_value=0.5, max_value=40.0),
        dz1=st.floats(min_value=0.0, max_value=20.0),
        dz2=st.floats(min_value=0.0, max_value=20.0),
        order=st.permutations([0, 1, 2]),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_z(self, z1, dz1, dz2, order):
        # on every path a higher level is first reached no earlier, whichever
        # of M, M_s and L holds it
        levels = np.array([z1, z1 + dz1, z1 + dz1 + dz2])[order]
        model = SystemModel(DEG, SHOCKS, levels[2], levels[1])
        rng = np.random.default_rng(6)
        sigma = np.stack(
            all_crossings(model, 10.0, 100.0, 0.1, levels[0], 200, rng)
        )[np.argsort(order)]
        assert np.all(sigma[0] <= sigma[1]) and np.all(sigma[1] <= sigma[2])


class TestShockSurvival:
    def test_equal_rates_collapse(self):
        # with lambda1 = lambda2 the shock time is Exp(lambda) whenever the
        # path enters the high-intensity regime
        n = 50_000
        same = ShockIntensity(lambda1=0.05, lambda2=0.05)
        model = SystemModel(DEG, same, 30.0, 5.0)
        _, Y = _failure_times(model, n, 0.1, 50.0, seed=8)
        for t in (7.0, 9.0, 10.0, 30.0):
            p = math.exp(-0.05 * t)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(float((Y > t).mean()) - p) <= 3.0 * se


class TestSampling:
    def test_increment_additivity_ks(self):
        # Gamma(a) + Gamma(b) = Gamma(a + b) in law, so the crossing times do
        # not depend on the skeleton: epochs every 4 or none before t_f
        model = SystemModel(DEG, ShockIntensity(0.0, 0.0), 6.0, 6.0)
        draws = []
        for T, seed in ((4.0, 3), (40.0, 4)):
            *_, sigma_L, _Y = _simulate_kernel(
                model, T, 40.0, 0.1, np.full(20_000, 6.0), np.random.default_rng(seed)
            )
            draws.append(np.minimum(sigma_L, 41.0))
        result = stats.ks_2samp(*draws)
        assert result.pvalue > 0.01
