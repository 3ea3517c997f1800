import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from renewal_oracle import (
    _solve_cost_memo,
    _solve_cost_sq_memo,
    _solve_interval_memo,
    _solve_survival_memo,
    on_lattice,
)

from cbmlife.errors import GridCoverageError, InconsistencyError, TruncationWarning
from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.renewal import (
    asymptotic_cost_rate,
    availability,
    cost_curve,
    expected_cost,
    expected_cost_sq,
    interval_reliability,
    performance_curve,
    reliability,
    std_dev,
    write_cost_curve_csv,
    write_performance_curve_csv,
)
from cbmlife.simulate import EstimateTables, SimulationConfig, estimate_tables, eval_times

SEED = 777


class TestExpectedCost:
    def test_zero_at_origin(self, tables_small, ref_costs):
        assert expected_cost(tables_small, ref_costs, None, 0.0) == 0.0
        assert expected_cost_sq(tables_small, ref_costs, None, 0.0) == 0.0
        assert std_dev(tables_small, ref_costs, None, 0.0) == 0.0

    def test_base_case_below_first_inspection(self, tables_small, ref_costs):
        for t in (1.0, 5.0, 9.0):
            assert expected_cost(tables_small, ref_costs, None, t) == pytest.approx(
                tables_small.base_cost(t, ref_costs), rel=1e-12
            )

    def test_staged_equals_memoized(self, tables_small, ref_costs):
        curve = cost_curve(tables_small, ref_costs)
        for staged, memo in (
            (curve.mean, _solve_cost_memo(tables_small, ref_costs)),
            (curve.mean_sq, _solve_cost_sq_memo(tables_small, ref_costs)),
        ):
            ref = on_lattice(memo, tables_small.times)
            assert np.abs(staged - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_cost_scaling_homogeneity(self, tables_small, ref_costs):
        doubled = ref_costs.scaled(2.0)
        for t in (10.0, 27.0, 50.0):
            assert expected_cost(tables_small, doubled, None, t) == pytest.approx(
                2.0 * expected_cost(tables_small, ref_costs, None, t), rel=1e-12
            )
            assert std_dev(tables_small, doubled, None, t) == pytest.approx(
                2.0 * std_dev(tables_small, ref_costs, None, t), rel=1e-9
            )

    def test_curve_invariants(self, tables_small, ref_costs):
        curve = cost_curve(tables_small, ref_costs)
        curve.validate()
        assert np.all(curve.mean_sq + 1e-9 >= curve.mean**2)

    def test_policy_mismatch_rejected(self, tables_small, ref_costs):
        other = MaintenancePolicy(inspection_period=5.0, preventive_threshold=14.0)
        with pytest.raises(GridCoverageError):
            expected_cost(tables_small, ref_costs, other, 10.0)

    def test_off_grid_lookup_rejected(self, tables_small, ref_costs):
        with pytest.raises(GridCoverageError):
            expected_cost(tables_small, ref_costs, None, 10.37)

    def test_negative_variance_flagged(self, tables_small, ref_costs):
        broken = dataclasses.replace(
            tables_small, bresid2=np.zeros_like(tables_small.bresid2)
        )
        t = 9.0
        assert broken.residual_downtime[broken.index_of(t)] > 0.0
        with pytest.raises(InconsistencyError):
            std_dev(broken, ref_costs, None, t)


class TestAsymptotic:
    def test_zero_costs(self, tables_small):
        with pytest.warns(UserWarning):
            zero = CostStructure(0.0, 0.0, 0.0, 0.0)
        assert asymptotic_cost_rate(tables_small, zero) == 0.0

    def test_truncation_warning(self, ref_model, ref_costs):
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=14.0)
        life = LifeCycle(10.0)  # a single inspection leaves large censored mass
        tables = estimate_tables(
            ref_model, policy, life, SimulationConfig(n_samples=2_000, master_seed=SEED)
        )
        assert tables.censored_fraction >= 0.01
        with pytest.warns(TruncationWarning):
            asymptotic_cost_rate(tables, ref_costs)

    def test_long_horizon_consistency(self, ref_model, ref_policy, ref_costs):
        life = LifeCycle(1_000.0)
        tables = estimate_tables(
            ref_model, ref_policy, life,
            SimulationConfig(n_samples=10_000, master_seed=SEED),
        )
        rate = asymptotic_cost_rate(tables, ref_costs)
        transient = expected_cost(tables, ref_costs, None, 1_000.0) / 1_000.0
        assert transient == pytest.approx(rate, rel=0.03)

    def test_truncation_monotonicity(self, tables_small):
        mass_full = tables_small.p_preventive.sum() + tables_small.p_corrective.sum()
        truncated = dataclasses.replace(
            tables_small,
            bp_p=tables_small.bp_p[:, :3].copy(),
            bp_c=tables_small.bp_c[:, :3].copy(),
        )
        mass_trunc = truncated.p_preventive.sum() + truncated.p_corrective.sum()
        assert mass_trunc <= mass_full + 1e-15

    def test_truncated_ratio_stops_at_kmax(self, tables_small, ref_costs):
        truncated = dataclasses.replace(
            tables_small,
            bp_p=tables_small.bp_p[:, :3].copy(),
            bp_c=tables_small.bp_c[:, :3].copy(),
        )
        assert truncated.kmax == 2
        assert truncated.joint_downtime[3:].sum() > 0.0  # downtime past kmax
        c = ref_costs
        numerator = denominator = 0.0
        for k in (1, 2):
            pp, pc = truncated.p_preventive[k], truncated.p_corrective[k]
            numerator += (c.corrective * pc + c.preventive * pp
                          + c.inspection * (k - 1) * (pp + pc)
                          + c.downtime_rate * truncated.joint_downtime[k])
            denominator += k * truncated.T * (pp + pc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            rate = asymptotic_cost_rate(truncated, ref_costs)
        assert rate == pytest.approx(numerator / denominator, rel=1e-12)


class TestPerformanceMeasures:
    def test_initial_conditions(self, tables_small):
        assert availability(tables_small, 0.0) == 1.0
        assert reliability(tables_small, 0.0) == 1.0

    def test_staged_equals_memoized(self, tables_small):
        for kind, preventive_only in (("availability", False), ("reliability", True)):
            staged = performance_curve(tables_small, kind).values
            memo = _solve_survival_memo(tables_small, preventive_only)
            assert np.abs(staged - on_lattice(memo, tables_small.times)).max() <= 1e-12
        for s in (0.0, 5.0, 13.0, 50.0):
            curve = performance_curve(tables_small, "interval_reliability", s=s)
            memo = _solve_interval_memo(tables_small, s)
            assert len(curve.times) == len(memo) > 0
            assert np.abs(curve.values - on_lattice(memo, curve.times)).max() <= 1e-12

    def test_reliability_below_availability(self, tables_small):
        avail = performance_curve(tables_small, "availability")
        rel = performance_curve(tables_small, "reliability")
        assert np.all(rel.values <= avail.values + 1e-12)
        assert np.all(np.diff(rel.values) <= 1e-12)

    def test_no_failure_modes_means_full_availability(self, ref_life):
        model = SystemModel(
            degradation=GammaDegradation(alpha=0.1, beta=0.1),
            shocks=ShockIntensity(lambda1=0.0, lambda2=0.0),
            breakdown_threshold=1e9,
            shock_threshold=1e8,
        )
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=1e8)
        tables = estimate_tables(
            model, policy, ref_life, SimulationConfig(n_samples=500, master_seed=SEED)
        )
        curve = performance_curve(tables, "availability")
        assert np.all(curve.values == 1.0)

    def test_interval_identities(self, tables_small):
        for t in np.arange(0.0, 51.0, 1.0):
            assert abs(
                interval_reliability(tables_small, float(t), 0.0)
                - availability(tables_small, float(t))
            ) <= 1e-12
            assert abs(
                interval_reliability(tables_small, 0.0, float(t))
                - reliability(tables_small, float(t))
            ) <= 1e-12

    def test_closure_for_random_models(self, ref_life):
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            model = SystemModel(
                degradation=GammaDegradation(
                    alpha=float(rng.uniform(0.05, 0.4)),
                    beta=float(rng.uniform(0.05, 0.4)),
                ),
                shocks=ShockIntensity(
                    lambda1=float(rng.uniform(0.0, 0.05)),
                    lambda2=float(rng.uniform(0.05, 0.2)),
                ),
                breakdown_threshold=30.0,
                shock_threshold=20.0,
            )
            policy = MaintenancePolicy(
                inspection_period=float(rng.choice([5.0, 10.0, 25.0])),
                preventive_threshold=float(rng.uniform(5.0, 25.0)),
            )
            tables = estimate_tables(
                model, policy, ref_life,
                SimulationConfig(n_samples=400, master_seed=SEED),
            )
            for kind in ("availability", "reliability"):
                performance_curve(tables, kind).validate()
            performance_curve(tables, "interval_reliability", s=policy.inspection_period / 2).validate()

    def test_out_of_horizon_rejected(self, tables_small):
        with pytest.raises(GridCoverageError):
            interval_reliability(tables_small, 48.0, 5.0)

    def test_period_without_exact_lattice_keys(self, ref_model, ref_costs, ref_life):
        # T = 10/3 is not a whole number of lattice keys (nanoseconds), so
        # t - T rounds to a key one off the lattice time it stands for.
        T = 10.0 / 3.0
        policy = MaintenancePolicy(inspection_period=T, preventive_threshold=14.0)
        tables = estimate_tables(
            ref_model, policy, ref_life, SimulationConfig(n_samples=500, master_seed=SEED)
        )
        cost_curve(tables, ref_costs).validate()
        avail = performance_curve(tables, "availability").values
        rel = performance_curve(tables, "reliability").values
        first = tables.times < T - 1e-9
        assert np.array_equal(avail[first], tables.alive_no_replacement[first])
        assert np.all(rel <= avail + 1e-12)
        at_zero = performance_curve(tables, "interval_reliability", s=0.0)
        assert np.abs(at_zero.values - avail).max() <= 1e-12
        for t in (T, 2 * T, 50.0):
            assert abs(interval_reliability(tables, 0.0, t) - reliability(tables, t)) <= 1e-12


class TestQueryChecks:
    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time(self, tables_small, ref_costs, t):
        with pytest.raises(GridCoverageError):
            tables_small.index_of(t)
        with pytest.raises(GridCoverageError):
            availability(tables_small, t)
        with pytest.raises(GridCoverageError):
            expected_cost(tables_small, ref_costs, None, t)
        with pytest.raises(GridCoverageError):
            interval_reliability(tables_small, t, 0.0)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -3.0])
    def test_bad_interval_length(self, tables_small, s):
        with pytest.raises(GridCoverageError, match="interval length"):
            performance_curve(tables_small, "interval_reliability", s=s)
        with pytest.raises(GridCoverageError, match="interval length"):
            interval_reliability(tables_small, 10.0, s)


@st.composite
def random_tables(draw):
    """EstimateTables of random but consistent entries on an eval_times lattice.

    t_f/T is an integer or not, and the tables may hold fewer inspection
    epochs than the horizon has (kmax below floor(t_f/T)).
    """
    T = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0, 7.0, 10.0]))
    periods = draw(st.integers(1, 12))
    tf = round(T * (periods + draw(st.sampled_from([0.0, 0.3, 0.55, 0.9]))), 9)
    full = int(np.floor(tf / T + 1e-9))
    kmax = draw(st.one_of(st.just(full), st.integers(0, full)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = eval_times(
        MaintenancePolicy(inspection_period=T, preventive_threshold=14.0),
        LifeCycle(horizon=tf),
    )
    mass = rng.dirichlet(np.ones(2 * kmax + 1)) * rng.uniform(0.2, 1.0)
    pp = np.concatenate(([0.0], mass[:kmax]))
    pc = np.concatenate(([0.0], mass[kmax : 2 * kmax]))
    jw = np.concatenate(([0.0], rng.uniform(0.0, T, full)))
    # Alive at t only if not replaced by the last inspection kf(t).
    kf = np.minimum(np.floor(times / T + 1e-9).astype(int), kmax)
    alive = (1.0 - np.cumsum(pp + pc)[kf]) * rng.uniform(0.0, 1.0, len(times))
    alive[0] = 1.0
    jw2 = jw * rng.uniform(0.0, 2.0 * T, full + 1)
    resid = rng.uniform(0.0, T, len(times))
    resid2 = resid * rng.uniform(0.0, 2.0 * T, len(times))
    # One block of n = 1 whose sums are the pooled estimates themselves.
    return EstimateTables(
        T=T, M=14.0, horizon=tf, delta=T / 100.0, n=1, master_seed=0,
        worker_streams=1, digest="random", times=times,
        block_sizes=np.array([1]), bp_p=pp[None], bp_c=pc[None], bjw=jw[None],
        bjw2=jw2[None], balive=alive[None], bresid=resid[None],
        bresid2=resid2[None], bcensored=np.array([1.0 - pp.sum() - pc.sum()]),
    )


class TestRandomLattices:
    @given(tables=random_tables(), pick=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_measures_equal_oracle(self, tables, pick, ref_costs):
        tables.validate()
        times = tables.times
        mean = np.array([expected_cost(tables, ref_costs, None, t) for t in times])
        mean_sq = np.array([expected_cost_sq(tables, ref_costs, None, t) for t in times])
        for solved, memo in (
            (mean, _solve_cost_memo(tables, ref_costs)),
            (mean_sq, _solve_cost_sq_memo(tables, ref_costs)),
        ):
            ref = on_lattice(memo, times)
            assert np.abs(solved - ref).max() <= 1e-12 * np.abs(ref).max()

        avail = performance_curve(tables, "availability").values
        rel = performance_curve(tables, "reliability").values
        for solved, preventive_only in ((avail, False), (rel, True)):
            memo = _solve_survival_memo(tables, preventive_only)
            assert np.abs(solved - on_lattice(memo, times)).max() <= 1e-12
        assert np.all(rel <= avail + 1e-12)
        for s in (0.0, tables.T / 2, tables.T, float(times[pick % len(times)])):
            curve = performance_curve(tables, "interval_reliability", s=s)
            memo = _solve_interval_memo(tables, s)
            assert len(curve.times) == len(memo)
            assert np.abs(curve.values - on_lattice(memo, curve.times)).max(initial=0.0) <= 1e-12
            assert np.all((curve.values >= -1e-12) & (curve.values <= 1.0 + 1e-12))
        assert np.all((avail >= -1e-12) & (avail <= 1.0 + 1e-12) & (rel >= -1e-12))

        i = pick % (len(times) - 1)
        off = 0.5 * (times[i] + times[i + 1])
        with pytest.raises(GridCoverageError):
            availability(tables, off)
        with pytest.raises(GridCoverageError):
            expected_cost(tables, ref_costs, None, off)
        with pytest.raises(GridCoverageError):
            interval_reliability(tables, off, 0.0)


class TestExports:
    def test_cost_curve_csv(self, tables_small, ref_costs, tmp_path):
        curve = cost_curve(tables_small, ref_costs)
        path = tmp_path / "cost.csv"
        write_cost_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,value,stddev"
        cells = lines[1].split(",")
        assert all(len(c.split(".")[1]) == 6 for c in cells)

    def test_performance_curve_csv(self, tables_small, tmp_path):
        curve = performance_curve(tables_small, "availability")
        path = tmp_path / "avail.csv"
        write_performance_curve_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == len(curve.times) + 1
