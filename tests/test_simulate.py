import copy
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from crossings import all_crossings
from dense_sampler import loop_accumulate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from cbmlife import simulate
from cbmlife.errors import ConfigurationError, GridCoverageError
from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.simulate import (
    SimulationConfig,
    _block_accumulate,
    _brackets,
    _reduce,
    _simulate_kernel,
    _skeleton,
    _zero_sums,
    chain_statistics,
    estimate_row,
    estimate_tables,
    eval_times,
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
        rng = np.random.default_rng(SEED)
        k_rep, _, censored, D, *_, Y = _simulate_kernel(
            model, 10.0, 50.0, 0.1, np.full(200, 1e8), rng
        )
        assert censored.all()
        assert np.all(k_rep == 6)  # one past the last inspection, k_max = 5
        assert np.all(np.isinf(D)) and np.all(np.isinf(Y))

    def test_sample_invariants(self, ref_model, ref_policy, ref_life):
        T, M = ref_policy.inspection_period, ref_policy.preventive_threshold
        delta = T / 100.0
        k_rep, corrective, censored, D, *_ = _simulate_kernel(
            ref_model, T, ref_life.horizon, delta, np.full(300, M),
            np.random.default_rng(SEED),
        )
        # The kernel draws the skeleton first, epoch by epoch: step j extends
        # the paths still below M, in path order, by one gamma call.  X_at
        # stays NaN past the epoch at which a path reaches M.
        grid = _skeleton(ref_life.horizon, T, delta)
        deg = ref_model.degradation
        replay = np.random.default_rng(SEED)
        X_at = np.full((300, len(grid)), np.nan)  # X_at[:, k] = X(kT), k <= kmax
        X_at[:, 0] = 0.0
        live = rows = np.arange(300)
        for j in range(1, len(grid)):
            shape = deg.alpha * delta * (grid[j] - grid[j - 1])
            X_at[live, j] = X_at[live, j - 1] + replay.gamma(
                shape, 1.0 / deg.beta, len(live)
            )
            live = live[X_at[live, j] < M]
        assert np.all(k_rep >= 1)
        fixed = corrective & ~censored
        down = k_rep[fixed] * T - D[fixed]
        assert np.all((down >= 0.0) & (down < T))
        # no inspection before the replacement found M
        ended = ~censored
        assert np.all(X_at[rows[ended], k_rep[ended] - 1] < M)
        preventive = ~corrective & ~censored
        # replaced at the first inspection that finds X >= M, before any failure
        assert np.all(X_at[rows[preventive], k_rep[preventive]] >= M)
        assert np.all(D[preventive] > k_rep[preventive] * T)
        assert fixed.any() and preventive.any()

    def test_no_bridge_draws_past_the_replacement(self, counting_rng):
        # Every path is found above M at the first inspection, long before it
        # can reach M_s or L, so no crossing needs resolving.
        model = make_model(L=300.0, Ms=200.0)
        n = 500
        rng = counting_rng(SEED)
        outputs = _simulate_kernel(model, 10.0, 1000.0, 0.1, np.full(n, 1e-6), rng)
        k_rep, corrective, censored, D, *_ = outputs
        assert np.all(k_rep == 1) and not censored.any()
        assert np.all(D[~corrective] > 10.0)
        # one skeleton step: every path is at or above M after it
        assert rng.counts == {"gamma": n, "exponential": n}
        plain = _simulate_kernel(
            model, 10.0, 1000.0, 0.1, np.full(n, 1e-6), np.random.default_rng(SEED)
        )
        for a, b in zip(outputs, plain):
            assert np.array_equal(a, b)

    def test_bad_step_rejected(self, ref_model, ref_policy, ref_life):
        for step in (-0.5, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                SimulationConfig(n_samples=1, path_step=step)
        cfg = SimulationConfig(n_samples=1, path_step=5.0)  # > T/10 for T=10
        with pytest.raises(ConfigurationError):
            estimate_tables(ref_model, ref_policy, ref_life, cfg)


class TestEstimateTables:
    def test_counting_identity(self, tables_small, cfg_small):
        total = (
            tables_small.p_preventive.sum()
            + tables_small.p_corrective.sum()
            + tables_small.censored_fraction[0]
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_probability_ranges(self, tables_small):
        tables_small.validate()
        assert tables_small.alive_no_replacement[0, 0] == 1.0

    def test_a_path_counted_twice_is_refused(self, ref_model, ref_life):
        # With censored paths the pooled replacement mass stays below one
        # after a bp_p cell is raised by one path, so only the block's exact
        # count of replaced and censored paths finds it.
        cfg = SimulationConfig(n_samples=400, master_seed=SEED, worker_streams=2)
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=25.0)
        tables = estimate_tables(ref_model, policy, ref_life, cfg)
        tables.bp_p[0, 0, 1] += 1.0
        assert tables.bcensored[0, 0] >= 1.0
        assert tables.p_preventive.sum() + tables.p_corrective.sum() <= 1.0
        with pytest.raises(ConfigurationError, match="replacement probabilities exceed"):
            tables.validate()

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
        rng = np.random.default_rng(SEED)
        _sigma_M, sigma_Ms, _sigma_L = all_crossings(
            ref_model, policy.inspection_period, 50.0, 0.1,
            policy.preventive_threshold, cfg.n_samples, rng,
        )
        n = cfg.n_samples
        deg = ref_model.degradation
        for t in np.linspace(5.0, 50.0, 10):
            p_hat = float((sigma_Ms <= t).mean())
            # P[sigma_z <= t] = P[X(t) >= z] = Q(alpha t, beta z)
            p = float(special.gammaincc(deg.alpha * t, deg.beta * 20.0))
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
        assert t1.equals(t2)

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


class TestRandomModels:
    @given(
        alpha=st.floats(min_value=0.02, max_value=1.0),
        beta=st.floats(min_value=0.02, max_value=1.0),
        lam1=st.floats(min_value=0.0, max_value=0.1),
        lam2=st.floats(min_value=0.0, max_value=0.3),
        L=st.floats(min_value=1.0, max_value=60.0),
        Ms_over_L=st.floats(min_value=0.1, max_value=2.0),
        M_over_L=st.floats(min_value=0.01, max_value=1.0),
        T=st.floats(min_value=0.5, max_value=30.0),
        periods=st.floats(min_value=0.2, max_value=50.0),
        n=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_valid_tables_and_finite_chains_or_typed_error(
        self, ref_costs, alpha, beta, lam1, lam2, L, Ms_over_L, M_over_L, T, periods, n
    ):
        # M_s above L is allowed; t_f / T is at most 50
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # lambda1 > lambda2
            model = make_model(alpha, beta, lam1, lam2, L, Ms=L * Ms_over_L)
        policy = MaintenancePolicy(inspection_period=T, preventive_threshold=L * M_over_L)
        life = LifeCycle(T * periods)
        cfg = SimulationConfig(n_samples=n, master_seed=SEED)
        try:
            tables = estimate_tables(model, policy, life, cfg)
            counts, totals = chain_statistics(model, policy, ref_costs, life, cfg)
        except (ConfigurationError, GridCoverageError):
            return
        tables.validate()
        assert np.isfinite(counts).all() and np.isfinite(totals).all()
        assert np.all(totals >= 0.0)


class TestChaining:
    def test_zero_costs(self, ref_model, ref_policy, ref_life):
        cfg = SimulationConfig(n_samples=200, master_seed=SEED)
        counts, totals = chain_statistics(
            ref_model, ref_policy, zero_costs(), ref_life, cfg
        )
        assert np.all(totals == 0.0)
        assert counts.any()

    def test_chain_cycles_clock(self, ref_model, ref_policy, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=500, master_seed=SEED)
        counts, totals = chain_statistics(
            ref_model, ref_policy, ref_costs, ref_life, cfg
        )
        # a renewal completes at an inspection, so at most floor(t_f / T) of them
        kmax = math.floor(ref_life.horizon / ref_policy.inspection_period)
        assert np.all((counts >= 0) & (counts <= kmax) & (counts == np.round(counts)))
        assert np.all(totals >= counts * ref_costs.preventive)

    def test_first_cycles_are_the_table_paths(
        self, ref_model, ref_policy, ref_costs, ref_life, monkeypatch
    ):
        # chain_statistics starts from the paths of estimate_tables with the
        # same seed, in one pass or in chunks alike: a realization renews at
        # least once exactly when its first cycle is not censored
        cfg = SimulationConfig(n_samples=2_000, master_seed=SEED, worker_streams=4)
        for cap in (simulate._PASS_PATHS, 300):
            monkeypatch.setattr(simulate, "_PASS_PATHS", cap)
            tables = estimate_tables(ref_model, ref_policy, ref_life, cfg)
            counts, _ = chain_statistics(ref_model, ref_policy, ref_costs, ref_life, cfg)
            assert np.array_equal(
                [(block >= 1).sum() for block in np.split(counts, 4)],
                tables.block_sizes[0] - tables.bcensored[0],
            ), cap

    def test_variance_identity(self, strict_full):
        _, totals = strict_full
        var = totals.var()
        assert var >= 0.0
        assert var == pytest.approx((totals**2).mean() - totals.mean() ** 2, rel=1e-9)

    def test_chain_statistics_determinism(self, ref_model, ref_policy, ref_costs, ref_life):
        cfg = SimulationConfig(n_samples=1_000, master_seed=SEED)
        a = chain_statistics(ref_model, ref_policy, ref_costs, ref_life, cfg)
        b = chain_statistics(ref_model, ref_policy, ref_costs, ref_life, cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestSkeleton:
    """Each path is drawn one skeleton epoch at a time, until it reaches M."""

    @pytest.mark.parametrize("T, M", [(10.0, 14.0), (5.0, 30.0), (50.0, 1.0)])
    def test_law_of_the_inspection_that_finds_M(self, T, M):
        # With nothing able to fail, k_rep is k_p capped at k_max + 1, and
        # P[k_p <= k] = P[X(kT) >= M] = Q(alpha k T, beta M).  Up to 10
        # correlated points are tested per case, each within 4 SE.
        model = make_model(lam1=0.0, lam2=0.0, L=1e9, Ms=1e8)
        horizon, n = 50.0, 20_000
        k_rep, _, censored, *_ = _simulate_kernel(
            model, T, horizon, T / 100.0, np.full(n, M), np.random.default_rng(SEED)
        )
        kmax = math.floor(horizon / T)
        assert np.array_equal(censored, k_rep > kmax)
        deg = model.degradation
        for k in range(1, kmax + 1):
            p = float(special.gammaincc(deg.alpha * k * T, deg.beta * M))
            p_hat = float((k_rep <= k).mean())
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            assert abs(p_hat - p) <= 4.0 * se, (k, p_hat, p)

    def test_gammas_drawn_up_to_the_inspection_that_finds_M(self, counting_rng):
        # Path i draws min(k_p,i, len(grid) - 1) skeleton gammas, in at most
        # one call per skeleton step, and its levels are bracketed up to k_p.
        T, horizon, delta, n = 5.0, 23.0, 0.5, 3_000
        grid = _skeleton(horizon, T, delta)
        Ms = np.linspace(1.0, 30.0, n)
        levels = np.vstack([Ms, np.full(n, 20.0), np.full(n, 30.0)])
        rng = counting_rng(SEED)
        pos, xa, xb = _brackets(grid, levels, 0.1 * delta, 10.0, rng)
        k_p = pos[0]
        assert rng.counts == {"gamma": np.minimum(k_p, len(grid) - 1).sum()}
        assert rng.calls["gamma"] <= len(grid) - 1
        assert (k_p < len(grid)).any() and (k_p == len(grid)).any()
        hit = pos < len(grid)
        assert np.all((xa[hit] < levels[hit]) & (levels[hit] <= xb[hit]))
        # no level is bracketed past k_p, and one at or below M is by k_p
        assert np.all(pos[1:][hit[1:]] <= np.broadcast_to(k_p, pos[1:].shape)[hit[1:]])
        assert np.all(hit[1:][(levels[1:] <= Ms) & (k_p < len(grid))])

    @pytest.mark.parametrize(
        "column, scales, horizon, n",
        [
            # Thresholds given twice.
            pytest.param((14.0, 14.0, 6.0, 6.0), (1.0,), 50.0, 500, id="repeated"),
            # 10 at scale 2 is 20 at scale 1, and 15 at scale 2 is 30 = L.
            pytest.param((10.0, 15.0, 5.0), (1.0, 2.0), 50.0, 500,
                         id="scaled-levels-coincide"),
            # M_s and L far above the row-0 level 8 * 1.1.
            pytest.param((8.0, 4.0), (1.0, 1.1), 50.0, 500, id="above-row-0"),
            # At t_f = 12 most paths stay below 28 up to the last point.
            pytest.param((28.0, 12.0), (1.0,), 12.0, 500, id="row-0-unreached"),
            pytest.param((14.0, 8.0), (1.0, 1.05), 50.0, 1, id="one-path"),
        ],
    )
    def test_shared_levels_are_searched_bit_for_bit(self, column, scales, horizon, n):
        # A paired pass's column of levels (its thresholds at each scale,
        # the largest first, then M_s and L at each scale) searched once a
        # step gives the brackets and the draws of the per-path comparison.
        grid = _skeleton(horizon, 10.0, 0.1)
        s = np.array(scales)
        named = np.sort(np.r_[20.0 * s, 30.0 * s])  # M_s and L at each scale
        levels = np.concatenate([*(np.array(column) * f for f in s[::-1]), named])
        rng = np.random.default_rng(SEED)
        rng.gamma(1.0, size=3)  # a generator in mid-stream
        other = copy.deepcopy(rng)
        shared = _brackets(grid, levels, 0.01, 10.0, rng, n)
        per_path = _brackets(grid, np.repeat(levels[:, None], n, axis=1), 0.01, 10.0,
                             other)
        for got, want in zip(shared, per_path):
            assert got.shape == (len(levels), n)
            assert np.array_equal(got, want)
        assert rng.random() == other.random()
        hit = shared[0] < len(grid)
        if n > 1:  # a step that stops a path can cross levels above its row 0
            assert hit[levels > levels[0]].any()
        if horizon < 50.0:  # and a path can stay below row 0 to the end
            assert not hit[0].all()

    def test_a_long_horizon_draws_in_small_memory(self, ref_model):
        # A pass holds O(paths) state: at T = 0.5 and t_f = 200 the 401
        # skeleton epochs of one 12,500-path block would take 40 MB alone.
        policy, life = MaintenancePolicy(0.5, 14.0), LifeCycle(200.0)
        cfg = SimulationConfig(n_samples=50_000, master_seed=SEED)
        tracemalloc.start()
        try:
            tables = estimate_tables(ref_model, policy, life, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables.validate()
        assert peak < 10e6


def kernel_outcomes(D, k_p, T, kmax):
    """The kernel's outcomes of failure times D and inspections k_p finding M."""
    k_c = np.maximum(np.ceil(D / T - 1e-12), 1.0)
    k_c[~np.isfinite(k_c)] = kmax + 1_000_000
    corrective = k_c <= k_p
    k_rep = np.minimum(np.where(corrective, k_c, k_p), kmax + 1).astype(np.int64)
    censored = np.where(corrective, k_c, k_p) > kmax
    return k_rep, corrective, censored, D


class TestReduction:
    """The tables of given kernel outputs against the per-time loop."""

    @pytest.mark.parametrize(
        "T, tf", [(10.0, 50.0), (15.0, 50.0), (5.0, 200.0), (50.0, 50.0), (7.0, 50.0)]
    )
    def test_edge_cases_match_the_loop(self, T, tf):
        # Every failure time on the lattice, at each kT, never (inf), inside
        # the last interval and at random, each with every k_p, including
        # one past k_max (M never found), in random order over 3 thresholds.
        rng = np.random.default_rng(SEED)
        times = eval_times(MaintenancePolicy(T, 1.0), LifeCycle(tf))
        kmax = math.floor(tf / T + 1e-9)
        D = np.concatenate([
            times[1:], np.arange(1, kmax + 1) * T, np.full(5, np.inf),
            rng.uniform(max(kmax * T, tf - T), tf, 20), rng.uniform(0.0, tf, 50),
        ])
        k_p = np.append(np.arange(1, kmax + 1), kmax + 1_000_000)
        D, k_p = (a.ravel() for a in np.meshgrid(D, k_p))
        order = rng.permutation(len(D))[: len(D) // 3 * 3]
        outputs = kernel_outcomes(D[order], k_p[order], T, kmax)
        k_rep, _, censored, failure = outputs
        assert (k_rep == kmax + 1).any()
        # a failure after k_max T is censored where the horizon is past it
        assert (censored & np.isfinite(failure)).any() == (tf > kmax * T)
        size = len(order) // 3
        sums = _zero_sums(3, kmax, times)
        # one member, one read a path: arrays of shape (member, read, path)
        owner = np.arange(3).repeat(size)
        _reduce(*(o[None, None] for o in outputs), owner[None, None], T, kmax, times,
                sums)
        for i in range(3):
            paths = slice(i * size, (i + 1) * size)
            ref = loop_accumulate(*(o[paths] for o in outputs), T, kmax, times)
            assert sums.keys() == ref.keys()
            for key in ("bp_p", "bp_c", "balive", "bcensored"):
                assert np.array_equal(sums[key][i], ref[key]), key
            # sums of size nonnegative terms, added in another order
            for key in ("bjw", "bjw2", "bresid", "bresid2"):
                np.testing.assert_allclose(
                    sums[key][i], ref[key], rtol=size * np.finfo(float).eps,
                    atol=0.0, err_msg=key,
                )

    @pytest.mark.parametrize(
        "T, tf", [(10.0, 50.0), (15.0, 50.0), (5.0, 200.0), (7.0, 50.0)]
    )
    def test_runs_of_reads_match_the_loop(self, T, tf):
        # Each path read at R thresholds, the largest first: k_p falls along
        # the reads, so its outcomes come in runs, which add in prefix form.
        # A reversed cumulative sum along the reads gives each read the sums
        # of the loop over that read's outcomes.
        rng = np.random.default_rng(SEED)
        times = eval_times(MaintenancePolicy(T, 1.0), LifeCycle(tf))
        kmax = math.floor(tf / T + 1e-9)
        D = np.concatenate([
            times[1:], np.arange(1, kmax + 1) * T, np.full(50, np.inf),
            rng.uniform(0.0, tf, 2_000),
        ])
        R = 6
        # every inspection, the last skeleton point and never, the last two
        # often enough that some reads of a path take each
        choices = np.append(np.arange(1, kmax + 2), kmax + 1_000_000)
        weight = np.append(np.ones(kmax), [kmax / 4.0, kmax / 4.0])
        k_p = rng.choice(choices, (R, len(D)), p=weight / weight.sum())
        k_p = -np.sort(-k_p, axis=0)
        k_rep, corrective, censored = (
            np.stack(o)[None]
            for o in zip(*(kernel_outcomes(D, k, T, kmax)[:3] for k in k_p))
        )
        # reads partly corrective, and a censored failure prefix that shares
        # its k_rep = kmax + 1 with the next read's preventive run
        assert (corrective[0, 0] & ~corrective[0, -1]).any()
        assert (corrective[0, :-1] & ~corrective[0, 1:]
                & (k_rep[0, :-1] == k_rep[0, 1:])).any()
        sums = _zero_sums(R, kmax, times)
        owner = np.broadcast_to(np.arange(R)[:, None], k_p.shape)[None]
        _reduce(k_rep, corrective, censored, D[None, None], owner, T, kmax, times, sums)
        for key, value in sums.items():
            value[:] = np.cumsum(value[::-1], axis=0)[::-1]
        for j in range(R):
            ref = loop_accumulate(k_rep[0, j], corrective[0, j], censored[0, j], D, T,
                                  kmax, times)
            for key in ("bp_p", "bp_c", "balive", "bcensored"):
                assert np.array_equal(sums[key][j], ref[key]), (j, key)
            for key in ("bjw", "bjw2", "bresid", "bresid2"):
                assert np.all(sums[key][j] >= 0.0), (j, key)
                np.testing.assert_allclose(
                    sums[key][j], ref[key], rtol=len(D) * np.finfo(float).eps,
                    atol=0.0, err_msg=f"read {j} {key}",
                )

    @pytest.mark.parametrize(
        "tf, rates, shocks, thresholds, paired",
        [
            pytest.param(50.0, 1, 1, 30, False, id="50.0"),
            pytest.param(200.0, 1, 1, 30, False, id="200.0"),
            pytest.param(50.0, 7, 1, 4, False, id="50.0-7-rates"),
            pytest.param(200.0, 7, 1, 4, False, id="200.0-7-rates"),
            pytest.param(50.0, 1, 7, 1, False, id="50.0-49-shock-rates"),
            pytest.param(200.0, 1, 7, 1, False, id="200.0-49-shock-rates"),
            pytest.param(50.0, 7, 1, 11, True, id="50.0-7-rates-paired"),
            pytest.param(200.0, 7, 1, 11, True, id="200.0-7-rates-paired"),
        ],
    )
    def test_a_pass_holds_little_memory(
        self, ref_model, tf, rates, shocks, thresholds, paired
    ):
        # One pass of _PASS_PATHS // K paths at T = 5, for a bundle of K
        # distinct rates beta, each with shocks**2 pairs (lambda1, lambda2),
        # and the row's sums it adds into, one table at a time.  It peaked
        # at 2.07 MB with one rate (t_f = 200), at 1.91 MB with seven and at
        # 2.14 MB for the shock table; with every table of a run held until
        # the last was counted, at 2.12, 2.03 and 2.14 MB, and with the
        # reduction looping over inspections, at 3.1 MB.  A pass adds into
        # one row of sums per (member, threshold), so the bundle's case keeps
        # about the 30 rows of the one-model case: over 30 thresholds its
        # 210 rows of 401 lattice times alone take 2.3 MB at t_f = 200, and
        # that pass peaks at 5.0 MB.  The 49 members of the shock table share
        # one full pass of one threshold, reduced one member at a time.  A
        # paired pass reads every path at every threshold, so 7 rates at 11
        # thresholds cap it at 3 * _PASS_PATHS // (7 * 13) = 270 paths; it
        # peaked at 1.49 MB (t_f = 50) and 2.12 MB (t_f = 200).
        T, Ms = 5.0, np.linspace(1.0, 30.0, thresholds)
        variations = (0.0, -10.0, -5.0, -1.0, 1.0, 5.0, 10.0)
        members = [
            SystemModel(
                degradation=GammaDegradation(alpha=0.1, beta=0.1 * (1.0 + v / 100.0)),
                shocks=ShockIntensity(
                    lambda1=ref_model.shocks.lambda1 * (1.0 + v1 / 100.0),
                    lambda2=ref_model.shocks.lambda2 * (1.0 + v2 / 100.0),
                ),
                breakdown_threshold=ref_model.breakdown_threshold,
                shock_threshold=ref_model.shock_threshold,
            )
            for v in variations[:rates]
            for v1 in variations[:shocks]
            for v2 in variations[:shocks]
        ]
        life = LifeCycle(tf)
        times = eval_times(MaintenancePolicy(T, 1.0), life)
        if paired:  # every path at every threshold, the largest first
            size = 3 * simulate._PASS_PATHS // (rates * (len(Ms) + 2))
            bins = np.tile(np.arange(len(Ms))[::-1, None], size)
        else:
            size = simulate._PASS_PATHS // rates // len(Ms)
            bins = np.arange(len(Ms)).repeat(size)[None]
        rng = np.random.default_rng(SEED)
        tracemalloc.start()
        try:
            sums = _zero_sums(len(members) * len(Ms), int(tf // T), times)
            _block_accumulate(members, T, life, T / 100.0, Ms, bins, rng, times, sums)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


def loop_times(T, tf, eps=1e-9):
    """The evaluation lattice built point by point, keyed in nanoseconds."""
    dg = T / 10.0
    points = {0}
    j = 0
    while tf - j * dg > -eps:
        points.add(int(round(max(tf - j * dg, 0.0) * 1e9)))
        j += 1
    for k in range(int(math.floor(tf / T + eps)) + 1):
        points.add(int(round(k * T * 1e9)))
    return np.array(sorted(points), dtype=np.int64) / 1e9


class TestLattice:
    @pytest.mark.parametrize(
        "T, tf",
        [(10.0, 50.0), (15.0, 50.0), (5.0, 200.0), (7.2222222222222, 50.0),
         (10.0 / 3.0, 50.0), (0.3, 50.0), (45.0, 50.0), (50.0, 50.0),
         (0.7, 13.1), (60.0, 50.0), (0.01, 100.0)],
    )
    def test_lattice_equals_the_loop(self, T, tf):
        times = eval_times(MaintenancePolicy(T, 1.0), LifeCycle(tf))
        assert np.array_equal(times, loop_times(T, tf))

    def test_too_many_periods_rejected(self, ref_model, ref_costs):
        # T = 0.001 at t_f = 50 is 50,000 periods, over the cap of 10,000:
        # refused at the call, before any lattice or path.
        policy, life = MaintenancePolicy(0.001, 14.0), LifeCycle(50.0)
        cfg = SimulationConfig(n_samples=10, master_seed=SEED)
        calls = (
            lambda: eval_times(policy, life),
            lambda: estimate_tables(ref_model, policy, life, cfg),
            lambda: estimate_row(ref_model, 0.001, (14.0,), life, cfg,
                                 np.random.SeedSequence(SEED)),
            lambda: chain_statistics(ref_model, policy, ref_costs, life, cfg),
        )
        for call in calls:
            with pytest.raises(ConfigurationError, match="inspection periods"):
                call()
        at_cap = eval_times(MaintenancePolicy(0.005, 14.0), life)
        assert len(at_cap) == 100_001


class TestPersistence:
    def test_other_draws_give_other_tables(self, ref_model, ref_policy, ref_life):
        # A table set is its block sums: the same call gives the same tables,
        # and another seed, seed sequence or row gives other tables.
        cfg = SimulationConfig(n_samples=200, master_seed=SEED, worker_streams=2)
        tables = estimate_tables(ref_model, ref_policy, ref_life, cfg)
        assert estimate_tables(ref_model, ref_policy, ref_life, cfg).equals(tables)
        # A paired row of one threshold is the row.
        one = estimate_row(ref_model, 10.0, (14.0,), ref_life, cfg,
                           np.random.SeedSequence(SEED), paired=True)
        assert one.equals(tables)
        other_cfg = SimulationConfig(n_samples=200, master_seed=SEED + 1, worker_streams=2)
        other = estimate_tables(ref_model, ref_policy, ref_life, other_cfg)
        assert not other.equals(tables)
        assert not np.array_equal(other.balive, tables.balive)
        # the same master seed with a spawn key
        keyed = np.random.SeedSequence(SEED, spawn_key=(14_000_000,))
        moved = estimate_tables(ref_model, ref_policy, ref_life, cfg, seed_sequence=keyed)
        assert not moved.equals(tables)
        assert not np.array_equal(moved.balive, tables.balive)
        # a row's cell depends on the row's thresholds, not on their order
        row = estimate_row(ref_model, 10.0, (20.0, 14.0), ref_life, cfg,
                           np.random.SeedSequence(SEED))
        ascending = estimate_row(ref_model, 10.0, (14.0, 20.0), ref_life, cfg,
                                 np.random.SeedSequence(SEED))
        assert row.take(0).equals(ascending.take(1))
        assert row.take(1).equals(ascending.take(0))
        assert not np.array_equal(row.balive[1], tables.balive[0])
        # a paired row of two thresholds reads other paths than the row
        pair = estimate_row(ref_model, 10.0, (20.0, 14.0), ref_life, cfg,
                            np.random.SeedSequence(SEED), paired=True)
        for r in range(2):
            assert not pair.take(r).equals(row.take(r))
            assert not np.array_equal(pair.balive[r], row.balive[r])

    def test_pickled_tables_are_their_fields(self, ref_model, ref_life):
        # A table set holds its fields alone, validated or not: a pickled one
        # (a pool task's result) is its fields, and the copy computes the
        # same pooled estimates from them.
        cfg = SimulationConfig(n_samples=800, master_seed=SEED)
        tables = estimate_row(ref_model, 5.0, np.linspace(1.0, 30.0, 30), ref_life,
                              cfg, np.random.SeedSequence(SEED))
        assert tables.__dict__.keys() == tables.__dataclass_fields__.keys()
        copy = pickle.loads(pickle.dumps(tables))
        assert copy.equals(tables)
        assert copy.__dict__.keys() == tables.__dataclass_fields__.keys()
        for name in ("p_preventive", "p_corrective", "joint_downtime",
                     "joint_downtime_sq", "alive_no_replacement", "residual_downtime",
                     "residual_downtime_sq", "censored_fraction"):
            assert np.array_equal(getattr(copy, name), getattr(tables, name)), name

    def test_one_seed_sequence_object_twice(self, ref_model, ref_policy, ref_costs, ref_life):
        # The generator is built without spawning, so one object passed
        # twice, or after a spawn, gives the tables and chains of a fresh
        # one.
        cfg = SimulationConfig(n_samples=300, master_seed=SEED, worker_streams=3)
        seq = np.random.SeedSequence(SEED, spawn_key=(7,))
        first = estimate_tables(ref_model, ref_policy, ref_life, cfg, seed_sequence=seq)
        again = estimate_tables(ref_model, ref_policy, ref_life, cfg, seed_sequence=seq)
        assert again.equals(first)
        chains = [
            chain_statistics(ref_model, ref_policy, ref_costs, ref_life, cfg,
                             seed_sequence=seq)
            for _ in range(2)
        ]
        for a, b in zip(*chains):
            assert np.array_equal(a, b)
        assert seq.n_children_spawned == 0
        seq.spawn(2)
        spawned = estimate_tables(ref_model, ref_policy, ref_life, cfg, seed_sequence=seq)
        assert spawned.equals(first)
