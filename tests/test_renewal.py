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

from cbmlife.errors import GridCoverageError, InconsistencyError
from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.optimize import truncation_note
from cbmlife.renewal import (
    _chain_sum,
    _cost_moments,
    asymptotic_cost_rate,
    cost_curve,
    expected_cost,
    performance_curve,
    std_dev,
)
from cbmlife.simulate import (
    EstimateTables,
    Lattice,
    SimulationConfig,
    estimate_row,
    estimate_tables,
    eval_times,
)

SEED = 777


class TestExpectedCost:
    def test_zero_at_origin(self, tables_small, ref_costs):
        assert expected_cost(tables_small, ref_costs, 0.0).tolist() == [0.0]
        assert cost_curve(tables_small, ref_costs).mean_sq[0, 0] == 0.0
        assert std_dev(tables_small, ref_costs, 0.0).tolist() == [0.0]

    def test_base_case_below_first_inspection(self, tables_small, ref_costs):
        for t in (1.0, 5.0, 9.0):
            assert expected_cost(tables_small, ref_costs, t)[0] == pytest.approx(
                ref_costs.downtime_rate
                * tables_small.residual_downtime[0, tables_small.lattice.index_of(t)],
                rel=1e-12,
            )

    def test_staged_equals_memoized(self, tables_small, ref_costs):
        curve = cost_curve(tables_small, ref_costs)
        for staged, memo in (
            (curve.mean[0], _solve_cost_memo(tables_small, ref_costs)),
            (curve.mean_sq[0], _solve_cost_sq_memo(tables_small, ref_costs)),
        ):
            ref = on_lattice(memo, tables_small.lattice.times)
            assert np.abs(staged - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_cost_scaling_homogeneity(self, tables_small, ref_costs):
        doubled = CostStructure(600.0, 300.0, 90.0, 50.0)
        for t in (10.0, 27.0, 50.0):
            assert expected_cost(tables_small, doubled, t)[0] == pytest.approx(
                2.0 * expected_cost(tables_small, ref_costs, t)[0], rel=1e-12
            )
            assert std_dev(tables_small, doubled, t)[0] == pytest.approx(
                2.0 * std_dev(tables_small, ref_costs, t)[0], rel=1e-9
            )

    def test_curve_invariants(self, tables_small, ref_costs):
        curve = cost_curve(tables_small, ref_costs)
        curve.validate()
        assert np.all(curve.mean_sq + 1e-9 >= curve.mean**2)

    def test_off_grid_lookup_rejected(self, tables_small, ref_costs):
        with pytest.raises(GridCoverageError):
            expected_cost(tables_small, ref_costs, 10.37)

    def test_negative_variance_flagged(self, tables_small, ref_costs):
        broken = dataclasses.replace(
            tables_small, bresid2=np.zeros_like(tables_small.bresid2)
        )
        t = 9.0
        assert broken.residual_downtime[0, broken.lattice.index_of(t)] > 0.0
        with pytest.raises(InconsistencyError):
            std_dev(broken, ref_costs, t)


class TestAsymptotic:
    def test_zero_costs(self, tables_small):
        with pytest.warns(UserWarning):
            zero = CostStructure(0.0, 0.0, 0.0, 0.0)
        assert asymptotic_cost_rate(tables_small, zero).tolist() == [0.0]

    def test_truncation_warning(self, ref_model, ref_costs):
        # The rate of a censored table set is computed without a warning;
        # the asymptotic grid search labels its cell with the note.
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=14.0)
        life = LifeCycle(10.0)  # a single inspection leaves large censored mass
        tables = estimate_tables(
            ref_model, policy, life, SimulationConfig(n_samples=2_000, master_seed=SEED)
        )
        assert tables.censored_fraction[0] >= 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(asymptotic_cost_rate(tables, ref_costs)).all()
        assert truncation_note(tables.censored_fraction[0]) == (
            f"censored mass {tables.censored_fraction[0]:.3f} >= 1%; "
            "asymptotic sums are truncated"
        )
        assert truncation_note(0.0099) is None

    def test_long_horizon_consistency(self, ref_model, ref_policy, ref_costs):
        life = LifeCycle(1_000.0)
        tables = estimate_tables(
            ref_model, ref_policy, life,
            SimulationConfig(n_samples=10_000, master_seed=SEED),
        )
        rate = asymptotic_cost_rate(tables, ref_costs)[0]
        transient = expected_cost(tables, ref_costs, 1_000.0)[0] / 1_000.0
        assert transient == pytest.approx(rate, rel=0.03)

    def test_truncation_monotonicity(self, tables_small):
        mass_full = tables_small.p_preventive.sum() + tables_small.p_corrective.sum()
        truncated = dataclasses.replace(
            tables_small,
            bp_p=tables_small.bp_p[..., :3].copy(),
            bp_c=tables_small.bp_c[..., :3].copy(),
        )
        mass_trunc = truncated.p_preventive.sum() + truncated.p_corrective.sum()
        assert mass_trunc <= mass_full + 1e-15

    def test_truncated_ratio_stops_at_kmax(self, tables_small, ref_costs):
        truncated = dataclasses.replace(
            tables_small,
            bp_p=tables_small.bp_p[..., :3].copy(),
            bp_c=tables_small.bp_c[..., :3].copy(),
        )
        assert truncated.kmax == 2
        assert truncated.joint_downtime[0, 3:].sum() > 0.0  # downtime past kmax
        c = ref_costs
        numerator = denominator = 0.0
        for k in (1, 2):
            pp, pc = truncated.p_preventive[0, k], truncated.p_corrective[0, k]
            numerator += (c.corrective * pc + c.preventive * pp
                          + c.inspection * (k - 1) * (pp + pc)
                          + c.downtime_rate * truncated.joint_downtime[0, k])
            denominator += k * truncated.lattice.T * (pp + pc)
        rate = asymptotic_cost_rate(truncated, ref_costs)[0]
        assert rate == pytest.approx(numerator / denominator, rel=1e-12)


class TestPerformanceMeasures:
    def test_initial_conditions(self, tables_small):
        curve = performance_curve(tables_small)
        assert curve.times[0] == 0.0
        assert curve.availability[0, 0] == curve.reliability[0, 0] == 1.0

    def test_staged_equals_memoized(self, tables_small):
        curve = performance_curve(tables_small)
        for staged, preventive_only in ((curve.availability, False),
                                        (curve.reliability, True)):
            memo = _solve_survival_memo(tables_small, preventive_only)
            assert np.abs(staged[0] - on_lattice(memo, curve.times)).max() <= 1e-12
        for s in (0.0, 5.0, 13.0, 50.0):
            times, values = interval_points(performance_curve(tables_small, s))
            memo = _solve_interval_memo(tables_small, s)
            assert len(times) == len(memo) > 0
            assert np.abs(values - on_lattice(memo, times)).max() <= 1e-12

    def test_reliability_below_availability(self, tables_small):
        curve = performance_curve(tables_small)
        assert np.all(curve.reliability <= curve.availability + 1e-12)
        assert np.all(np.diff(curve.reliability) <= 1e-12)

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
        assert np.all(performance_curve(tables).availability == 1.0)

    def test_interval_identities(self, tables_small):
        # IR(t, t) is A(t), and IR(0, t) is R(t).
        at_zero = performance_curve(tables_small)
        for t in np.arange(0.0, 51.0, 1.0):
            i = tables_small.lattice.index_of(float(t))
            assert abs(at_zero.interval[0, i] - at_zero.availability[0, i]) <= 1e-12
            from_zero = performance_curve(tables_small, float(t)).interval[0, 0]
            assert abs(from_zero - at_zero.reliability[0, i]) <= 1e-12

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
            performance_curve(tables, s=policy.inspection_period / 2).validate()

    def test_out_of_horizon_rejected(self, tables_small):
        # IR(48, 53) has no value past the horizon 50.
        curve = performance_curve(tables_small, 5.0)
        assert np.isnan(curve.interval[0, tables_small.lattice.index_of(48.0)])
        assert not np.isnan(curve.interval[0, tables_small.lattice.index_of(45.0)])

    def test_period_without_exact_lattice_keys(self, ref_model, ref_costs, ref_life):
        # T = 10/3 is not a whole number of lattice keys (nanoseconds), so
        # t - T rounds to a key one off the lattice time it stands for.
        T = 10.0 / 3.0
        policy = MaintenancePolicy(inspection_period=T, preventive_threshold=14.0)
        tables = estimate_tables(
            ref_model, policy, ref_life, SimulationConfig(n_samples=500, master_seed=SEED)
        )
        cost_curve(tables, ref_costs).validate()
        at_zero = performance_curve(tables, s=0.0)
        avail, rel = at_zero.availability[0], at_zero.reliability[0]
        first = tables.lattice.times < T - 1e-9
        assert np.array_equal(avail[first], tables.alive_no_replacement[0, first])
        assert np.all(rel <= avail + 1e-12)
        assert np.abs(at_zero.interval[0] - avail).max() <= 1e-12
        for t in (T, 2 * T, 50.0):
            from_zero = performance_curve(tables, t).interval[0, 0]
            assert abs(from_zero - rel[tables.lattice.index_of(t)]) <= 1e-12


def interval_points(curve):
    """The times and values of a one-row curve's IR(t, t + s) on the lattice."""
    keep = ~np.isnan(curve.interval[0])
    return curve.times[keep], curve.interval[0, keep]


def row_measures(costs, t, s):
    """Each measure of a table set at t (and s), as arrays led by its R rows."""
    return {
        "expected_cost": lambda tables: expected_cost(tables, costs, t),
        "std_dev": lambda tables: std_dev(tables, costs, t),
        "asymptotic_cost_rate": lambda tables: asymptotic_cost_rate(tables, costs),
        "cost_curve": lambda tables: curve_arrays(
            cost_curve(tables, costs), "mean", "mean_sq", "std"),
        "performance_curve": lambda tables: curve_arrays(
            performance_curve(tables, s), "availability", "reliability", "interval"),
    }


def curve_arrays(curve, *names):
    """A curve's (R, N) arrays stacked as (R, len(names), N)."""
    return np.stack([getattr(curve, name) for name in names], axis=1)


class TestQueryChecks:
    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_time(self, tables_small, ref_costs, t):
        with pytest.raises(GridCoverageError):
            tables_small.lattice.index_of(t)
        with pytest.raises(GridCoverageError):
            expected_cost(tables_small, ref_costs, t)
        with pytest.raises(GridCoverageError):
            std_dev(tables_small, ref_costs, t)

    @pytest.mark.parametrize("s", [np.nan, np.inf, -3.0])
    def test_bad_interval_length(self, tables_small, s):
        with pytest.raises(GridCoverageError, match="interval length"):
            performance_curve(tables_small, s)

    @pytest.mark.parametrize("name", list(row_measures(None, 10.0, 5.0)))
    def test_measures_take_every_row(self, name, ref_model, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=200, master_seed=SEED)
        tables = estimate_row(ref_model, 10.0, (8.0, 14.0, 20.0), ref_life, cfg,
                              np.random.SeedSequence(SEED))
        measure = row_measures(ref_costs, 10.0, 5.0)[name]
        values = measure(tables)
        assert len(values) == 3
        for r in range(3):
            np.testing.assert_array_equal(values[r], measure(tables.take(r))[0])


@st.composite
def random_lattice(draw):
    """(T, t_f, kmax) of a random eval_times lattice.

    t_f/T is an integer or not, and kmax may be below floor(t_f/T): tables
    holding fewer inspection epochs than the horizon has.
    """
    T = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0, 7.0, 10.0]))
    periods = draw(st.integers(1, 12))
    tf = round(T * (periods + draw(st.sampled_from([0.0, 0.3, 0.55, 0.9]))), 9)
    full = int(np.floor(tf / T + 1e-9))
    kmax = draw(st.one_of(st.just(full), st.integers(0, full)))
    return T, tf, kmax


def lattice_times(T, tf):
    return eval_times(
        MaintenancePolicy(inspection_period=T, preventive_threshold=14.0),
        LifeCycle(horizon=tf),
    )


def random_estimates(rng, T, tf, kmax, times):
    """Random but consistent pooled estimates, keyed by their block array.

    The replacement masses are multiples of 2**-30, so a block's counts,
    these times its size, add up to its size exactly with the censored count.
    """
    full = int(np.floor(tf / T + 1e-9))
    mass = rng.dirichlet(np.ones(2 * kmax + 1)) * rng.uniform(0.2, 1.0)
    mass = np.floor(mass * 2.0**30) / 2.0**30
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
    return {
        "bp_p": pp, "bp_c": pc, "bjw": jw, "bjw2": jw2, "balive": alive,
        "bresid": resid, "bresid2": resid2, "bcensored": 1.0 - pp.sum() - pc.sum(),
    }


def tables_of(T, times, sizes, estimates):
    """EstimateTables whose row r holds estimates[r][b] in block b of sizes[b] paths."""
    sizes = np.asarray(sizes)
    return EstimateTables(
        lattice=Lattice(times, T), Ms=np.full(len(estimates), 14.0),
        block_sizes=np.tile(sizes, (len(estimates), 1)),
        **{
            name: np.array([[n * e[name] for n, e in zip(sizes, row)] for row in estimates])
            for name in estimates[0][0]
        },
    )


BLOCK_ARRAYS = (
    "block_sizes", "bp_p", "bp_c", "bjw", "bjw2", "balive", "bresid", "bresid2",
    "bcensored",
)


def block_tables(tables, r, blocks=slice(None)):
    """Threshold r of a table set, with only the worker blocks ``blocks``.

    It is a one-threshold table set of its own, built without ``take`` or
    ``batches``.
    """
    return dataclasses.replace(
        tables, Ms=tables.Ms[r : r + 1],
        **{name: getattr(tables, name)[r : r + 1, blocks] for name in BLOCK_ARRAYS},
    )


def singles(tables):
    """The one-threshold table sets of the rows of tables and of tables.batches().

    Threshold r with all its blocks, in row order; then each nonempty block
    b of threshold r alone, threshold-major.
    """
    pooled = [block_tables(tables, r) for r in range(len(tables.Ms))]
    blocks = [
        block_tables(tables, r, slice(b, b + 1))
        for r, b in zip(*np.nonzero(tables.block_sizes))
    ]
    return pooled, blocks


@st.composite
def random_tables(draw):
    """EstimateTables of random but consistent entries on a random lattice."""
    T, tf, kmax = draw(random_lattice())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = lattice_times(T, tf)
    # One block of n = 1 whose sums are the pooled estimates themselves.
    return tables_of(T, times, [1], [[random_estimates(rng, T, tf, kmax, times)]])


@st.composite
def random_row(draw):
    """A table set of several thresholds on a random lattice, some blocks maybe empty."""
    T, tf, kmax = draw(random_lattice())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = lattice_times(T, tf)
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    return tables_of(
        T, times, sizes,
        [[random_estimates(rng, T, tf, kmax, times) for _ in sizes]
         for _ in range(draw(st.integers(1, 5)))],
    )


def one_solve(chains, g, p, v=None):
    """The forward substitution of one table set, on 2-D chain matrices."""
    row, level = chains

    def matrix(values):
        out = np.zeros((row.max() + 1, level.max() + 1))
        out[row, level] = values
        return out

    out = matrix(g)
    src = out if v is None else matrix(v)
    lags = np.zeros(out.shape[1])
    lags[: min(len(p), len(lags))] = p[: len(lags)]
    for j in range(1, out.shape[1]):
        out[:, j] += src[:, j - 1 :: -1] @ lags[:j]
    return out[row, level]


class TestBatchedSolve:
    @given(
        lattice=random_lattice(), R=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1), with_v=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_chain_sum_equals_separate_solves(self, lattice, R, seed, with_v):
        T, tf, kmax = lattice
        times = lattice_times(T, tf)
        chains = Lattice(times, T).chains
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (R, 1))
        g = rng.uniform(0.0, 1.0, (R, len(times))) * scale
        p = rng.uniform(0.0, 0.3, (R, kmax))
        v = rng.uniform(0.0, 1.0, (R, len(times))) * scale if with_v else None
        batched = _chain_sum(chains, g, p, v)
        for r in range(R):
            alone = one_solve(chains, g[r], p[r], None if v is None else v[r])
            assert np.array_equal(batched[r], alone)

    @given(tables=random_row(), pick=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_row_measures_equal_one_table_measures(self, tables, pick, ref_costs):
        t = float(tables.lattice.times[pick % len(tables.lattice.times)])
        assert_row_measures_equal_one_table_measures(tables, ref_costs, t)

    def test_row_with_empty_blocks(self, ref_model, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=3, master_seed=SEED, worker_streams=4)
        seq = np.random.SeedSequence(SEED)
        tables = estimate_row(ref_model, 10.0, (8.0, 14.0), ref_life, cfg, seq)
        assert tables.block_sizes.tolist() == [[1, 1, 1, 0], [1, 1, 1, 0]]
        assert len(tables.batches().Ms) == 2 * 3
        assert_row_measures_equal_one_table_measures(tables, ref_costs, 50.0)


def assert_row_measures_equal_one_table_measures(tables, costs, t):
    """Each row of tables and of tables.batches() is its one-threshold table set.

    Bit for bit, every measure's row r is that measure of the r-th one; a
    check that refuses a row refuses one of the ones.
    """
    measures = row_measures(costs, t, t).values()
    for rows, ones in zip((tables, tables.batches()), singles(tables)):
        assert len(rows.censored_fraction) == len(ones)
        for r, one in enumerate(ones):
            assert rows.censored_fraction[r] == one.censored_fraction[0]
        for measure in measures:
            try:
                values = measure(rows)
            except InconsistencyError:
                with pytest.raises(InconsistencyError):
                    for one in ones:
                        measure(one)
                continue
            for r, one in enumerate(ones):
                np.testing.assert_array_equal(values[r], measure(one)[0])


class TestRandomLattices:
    @given(tables=random_tables(), pick=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_measures_equal_oracle(self, tables, pick, ref_costs):
        tables.validate()
        times = tables.lattice.times
        mean = np.array([expected_cost(tables, ref_costs, t)[0] for t in times])
        mean_sq = _cost_moments(tables, ref_costs)[1][0]
        for solved, memo in (
            (mean, _solve_cost_memo(tables, ref_costs)),
            (mean_sq, _solve_cost_sq_memo(tables, ref_costs)),
        ):
            ref = on_lattice(memo, times)
            assert np.abs(solved - ref).max() <= 1e-12 * np.abs(ref).max()

        curve = performance_curve(tables)
        avail, rel = curve.availability[0], curve.reliability[0]
        for solved, preventive_only in ((avail, False), (rel, True)):
            memo = _solve_survival_memo(tables, preventive_only)
            assert np.abs(solved - on_lattice(memo, times)).max() <= 1e-12
        assert np.all(rel <= avail + 1e-12)
        for s in (0.0, tables.lattice.T / 2, tables.lattice.T, float(times[pick % len(times)])):
            ir_times, values = interval_points(performance_curve(tables, s))
            memo = _solve_interval_memo(tables, s)
            assert len(ir_times) == len(memo)
            assert np.abs(values - on_lattice(memo, ir_times)).max(initial=0.0) <= 1e-12
            assert np.all((values >= -1e-12) & (values <= 1.0 + 1e-12))
        assert np.all((avail >= -1e-12) & (avail <= 1.0 + 1e-12) & (rel >= -1e-12))

        i = pick % (len(times) - 1)
        off = 0.5 * (times[i] + times[i + 1])
        with pytest.raises(GridCoverageError):
            tables.lattice.index_of(off)
        with pytest.raises(GridCoverageError):
            expected_cost(tables, ref_costs, off)
        with pytest.raises(GridCoverageError):
            std_dev(tables, ref_costs, off)
