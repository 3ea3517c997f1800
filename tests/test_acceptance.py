"""Acceptance gate: nine criteria checked at fixed tolerances.

Each test prints a single CRITERION line (run with ``pytest -s`` to see all
of them) summarizing every sub-check with the measured values, then asserts
them.  The benchmark dataset is alpha = beta = 0.1, L = 30, M_s = 20,
lambda1 = 0.01, lambda2 = 0.1, C_c = 300, C_p = 150, C_I = 45, C_d = 25,
t_f = 50.

The reference values of criteria 1, 2, 3, 6 and 7 come from the quadrature
oracle of the documented model in ``tests/oracle.py``, never from the
program.  The oracle is recomputed live at every cell an assertion reads;
only the grid minima are committed (in ``tests/oracle.py``), because the
full oracle grid takes minutes.  The optimum cells are compared by value, not
by position: on the oracle surfaces the two best cells differ by less than
the per-cell Monte Carlo error, so the exact argmin is decided by the seed.  The simulation records threshold
crossings at the next path-grid point, a bias of about +delta/2 in crossing
times that stays within every tolerance.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from crossings import all_crossings
from oracle import (
    ASYMPTOTIC_MIN,
    TRANSIENT_MIN,
    TRANSIENT_T10_MIN,
    Oracle,
    cell_cost_rates,
)
from renewal_oracle import (
    _solve_cost_memo,
    _solve_cost_sq_memo,
    _solve_survival_memo,
    on_lattice,
)
from scipy import special

from cbmlife.model import CostStructure, MaintenancePolicy
from cbmlife.optimize import (
    PolicyGrid,
    optimize_asymptotic,
    optimize_transient,
)
from cbmlife.renewal import cost_curve, expected_cost, performance_curve, std_dev
from cbmlife.sensitivity import gamma_sensitivity, shock_sensitivity
from cbmlife.simulate import (
    SimulationConfig,
    _simulate_kernel,
    chain_statistics,
    estimate_tables,
)

SEED = 20_260_824


def report(num: int, name: str, checks: list[tuple[str, bool]]) -> None:
    status = "PASS" if all(ok for _, ok in checks) else "FAIL"
    details = "; ".join(f"{label} [{'ok' if ok else 'FAIL'}]" for label, ok in checks)
    line = f"CRITERION {num} ({name}): {status} | {details}"
    print("\n" + line)
    assert status == "PASS", line


@pytest.fixture(scope="module")
def grids_full(ref_model, ref_costs, ref_life):
    """Both full grids, and the wall clock of the asymptotic one in seconds."""
    cfg = SimulationConfig(n_samples=50_000, master_seed=SEED, worker_streams=4)
    grid = PolicyGrid()
    start = time.perf_counter()
    asym = optimize_asymptotic(ref_model, ref_costs, ref_life, grid, cfg)
    asym_seconds = time.perf_counter() - start
    trans = optimize_transient(ref_model, ref_costs, ref_life, grid, cfg)
    return asym, trans, asym_seconds


def test_criterion_1_failure_laws(ref_model):
    # unmaintained failure draws: one inspection, at the 300 horizon
    rng = np.random.default_rng(np.random.SeedSequence(SEED))
    *_, sigma_L, Y = _simulate_kernel(
        ref_model, 300.0, 300.0, 0.1, np.full(50_000, ref_model.breakdown_threshold), rng
    )
    mean_sigma = float(sigma_L[np.isfinite(sigma_L)].mean())
    mean_shock = float(Y[np.isfinite(Y)].mean())
    oracle = Oracle(ref_model)
    ref_sigma = oracle.mean_degradation_failure_time()
    ref_shock = oracle.mean_shock_time()
    checks = [
        (
            "all degradation passages within the horizon",
            bool(np.isfinite(sigma_L).all()),
        ),
        (
            f"E[sigma_L]={mean_sigma:.4f} vs oracle {ref_sigma:.4f} +/- 1%",
            abs(mean_sigma - ref_sigma) <= 0.01 * ref_sigma,
        ),
        (
            f"E[Y]={mean_shock:.4f} vs oracle {ref_shock:.4f} +/- 2%",
            abs(mean_shock - ref_shock) <= 0.02 * ref_shock,
        ),
    ]
    report(1, "failure-law checks", checks)


def oracle_rate(model, costs, life, objective, T, M):
    index = ("asymptotic", "transient").index(objective)
    return cell_cost_rates(model, costs, life.horizon, T, M)[index]


def optimum_checks(result, oracle_min, model, costs, life):
    """Argmin T equals the oracle's; the oracle at the argmin is within 1%."""
    T_ref, M_ref, ref = oracle_min
    at_argmin = oracle_rate(
        model, costs, life, result.objective, result.T_opt, result.M_opt
    )
    return [
        (
            f"argmin T={result.T_opt:g} vs oracle T={T_ref:g}",
            result.T_opt == T_ref,
        ),
        (
            f"oracle at argmin ({result.T_opt:g},{result.M_opt:g})={at_argmin:.4f} "
            f"vs oracle minimum {ref:.4f} at ({T_ref:g},{M_ref:g}) +/- 1%",
            abs(at_argmin - ref) <= 0.01 * ref,
        ),
    ]


@pytest.mark.slow
def test_criterion_2_asymptotic_optimum(ref_model, ref_costs, ref_life, grids_full):
    asym, _, asym_seconds = grids_full
    start = time.perf_counter()
    smoke = optimize_asymptotic(
        ref_model, ref_costs, ref_life, PolicyGrid(),
        SimulationConfig(n_samples=5_000, master_seed=SEED, worker_streams=4),
    )
    smoke_seconds = time.perf_counter() - start
    ref = ASYMPTOTIC_MIN[2]
    checks = optimum_checks(asym, ASYMPTOTIC_MIN, ref_model, ref_costs, ref_life) + [
        (
            f"minimum={asym.minimum:.4f} vs oracle {ref:.4f} +/- 3%",
            abs(asym.minimum - ref) <= 0.03 * ref,
        ),
        (
            f"full grid wall clock {asym_seconds:.1f}s < 900s",
            asym_seconds < 900.0,
        ),
        (
            f"smoke minimum={smoke.minimum:.4f} vs oracle {ref:.4f} +/- 8%",
            abs(smoke.minimum - ref) <= 0.08 * ref,
        ),
        (
            f"smoke wall clock {smoke_seconds:.1f}s < 120s",
            smoke_seconds < 120.0,
        ),
    ]
    report(2, "asymptotic optimum", checks)


@pytest.mark.slow
def test_criterion_3_transient_optimum(ref_model, ref_costs, ref_life, grids_full):
    _, trans, _ = grids_full
    T_row, M_ref, row_ref = TRANSIENT_T10_MIN
    row = trans.values[trans.T_values.index(T_row)]
    j_best = int(row.argmin())
    m_best = trans.M_values[j_best]
    value = float(row[j_best])
    at_row_argmin = oracle_rate(
        ref_model, ref_costs, ref_life, "transient", T_row, m_best
    )
    checks = [
        (
            f"oracle at T=10 row argmin M={m_best:g}: {at_row_argmin:.4f} "
            f"vs oracle row minimum {row_ref:.4f} at M={M_ref:g} +/- 1%",
            abs(at_row_argmin - row_ref) <= 0.01 * row_ref,
        ),
        (
            f"row minimum={value:.4f} vs oracle {row_ref:.4f} +/- 3%",
            abs(value - row_ref) <= 0.03 * row_ref,
        ),
    ] + optimum_checks(trans, TRANSIENT_MIN, ref_model, ref_costs, ref_life)
    report(3, "transient optimum", checks)


def test_criterion_4_oracle_equivalence(ref_model, ref_costs, ref_life):
    cfg = SimulationConfig(n_samples=50_000, master_seed=SEED, worker_streams=4)
    tf = ref_life.horizon
    checks = []
    for M in (5.0, 10.0, 14.0, 20.0, 25.0):
        policy = MaintenancePolicy(inspection_period=10.0, preventive_threshold=M)
        tables = estimate_tables(ref_model, policy, ref_life, cfg)
        recursive = expected_cost(tables, ref_costs, tf)[0] / tf
        # The rows of tables.batches() are the worker blocks, one rate each.
        block_rates = list(expected_cost(tables.batches(), ref_costs, tf) / tf)
        assert len(block_rates) == cfg.worker_streams
        se_rec = float(np.std(block_rates, ddof=1)) / math.sqrt(len(block_rates))
        _, totals = chain_statistics(ref_model, policy, ref_costs, ref_life, cfg)
        strict = float(totals.mean()) / tf
        se_mc = float(totals.std(ddof=1)) / math.sqrt(cfg.n_samples) / tf
        bound = 3.0 * math.sqrt(se_rec**2 + se_mc**2)
        checks.append(
            (
                f"M={M:g}: recursive={recursive:.4f} strict={strict:.4f} "
                f"|diff|<={bound:.4f}",
                abs(recursive - strict) <= bound,
            )
        )
        if M == 14.0:
            ref = oracle_rate(ref_model, ref_costs, ref_life, "transient", 10.0, 14.0)
            deviation = abs(strict - ref) / ref * 100.0
            print(
                f"\n  [reference] strict MC at M=14: {strict:.4f} "
                f"(oracle value {ref:.4f}, deviation {deviation:.1f}%)"
            )
    report(4, "recursive vs strict Monte Carlo", checks)


def test_criterion_5_variance_recursion(tables_full, strict_full, ref_costs):
    sd = std_dev(tables_full, ref_costs, 50.0)[0]
    _, totals = strict_full
    sample_sd = float(totals.std(ddof=1))
    curve = cost_curve(tables_full, ref_costs)
    checks = [
        (
            f"S(50)={sd:.3f} vs strict {sample_sd:.3f} within 5%",
            abs(sd - sample_sd) <= 0.05 * sample_sd,
        ),
        ("S(t) >= 0 across the grid", bool(np.all(curve.std >= 0.0))),
    ]
    report(5, "variance recursion", checks)


def test_criterion_6_renewal_counts(ref_model, ref_life):
    cfg = SimulationConfig(n_samples=50_000, master_seed=SEED, worker_streams=4)
    with pytest.warns(UserWarning):
        zero = CostStructure(0.0, 0.0, 0.0, 0.0)
    oracle = Oracle(ref_model)
    checks = []
    for T in (5.0, 10.0, 30.0, 45.0):
        policy = MaintenancePolicy(inspection_period=T, preventive_threshold=14.0)
        counts, _ = chain_statistics(ref_model, policy, zero, ref_life, cfg)
        count = float(counts.mean())
        ref = oracle.renewal_count(T, 14.0, ref_life.horizon)
        checks.append(
            (
                f"E[N(50)] at T={T:g}: {count:.4f} vs oracle {ref:.4f} +/- 2%",
                abs(count - ref) <= 0.02 * ref,
            )
        )
    report(6, "renewal counts", checks)


def test_criterion_7_performance_measures(ref_model, ref_policy, tables_full):
    # A(t) and R(t) at every lattice time against the oracle's: its
    # first-cycle tables and alive(t), solved by the memoized recursions.
    # The tolerance is 5 binomial SEs at the oracle's value, plus 1e-12 of
    # rounding where that value is 1 (A is 1 at every inspection epoch).
    T, M = ref_policy.inspection_period, ref_policy.preventive_threshold
    times = tables_full.lattice.times
    oracle = Oracle(ref_model)
    cycle = oracle.cycle_tables(T, M, 50.0)
    exact = SimpleNamespace(
        lattice=tables_full.lattice, kmax=cycle["n"],
        p_preventive=cycle["p_p"][None], p_corrective=cycle["p_c"][None],
        alive_no_replacement=oracle.alive(T, M, times)[None],
    )
    n = int(tables_full.block_sizes.sum())
    at_zero = performance_curve(tables_full)
    gaps = {}
    for kind, preventive_only in (("availability", False), ("reliability", True)):
        p = on_lattice(_solve_survival_memo(exact, preventive_only), times)
        gap = np.abs(getattr(at_zero, kind)[0] - p)
        excess = gap - 5.0 * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / n)
        gaps[kind] = (float(gap.max()), float(excess.max()))
    index = tables_full.lattice.index_of
    ir = performance_curve(tables_full, 5.0).interval[0]
    ir_min = min(ir[index(float(t))] for t in np.arange(15.0, 36.0))
    id_avail = max(
        abs(at_zero.interval[0, index(float(t))] - at_zero.availability[0, index(float(t))])
        for t in np.arange(0.0, 51.0)
    )
    id_rel = max(
        abs(performance_curve(tables_full, float(t)).interval[0, 0]
            - at_zero.reliability[0, index(float(t))])
        for t in np.arange(0.0, 51.0)
    )
    checks = [
        (f"{kind} vs oracle max gap {gap:.5f} within 5 SE", excess <= 1e-12)
        for kind, (gap, excess) in gaps.items()
    ] + [
        (f"interval reliability min={ir_min:.4f} >= 0.71", ir_min >= 0.71),
        (f"IR(t,t+0)=A(t) max err {id_avail:.2e} <= 1e-12", id_avail <= 1e-12),
        (f"IR(0,t)=R(t) max err {id_rel:.2e} <= 1e-12", id_rel <= 1e-12),
    ]
    report(7, "performance measures", checks)


def test_criterion_8_sensitivity_structure(ref_model, ref_costs, ref_life):
    cfg = SimulationConfig(n_samples=3_000, master_seed=SEED, worker_streams=2)
    sweep = PolicyGrid((10.0,), (10.0, 12.0, 14.0, 16.0, 18.0))
    gamma = gamma_sensitivity(ref_model, ref_costs, ref_life, sweep, cfg=cfg)
    shocks = shock_sensitivity(ref_model, ref_costs, ref_life, sweep, cfg=cfg)
    v = gamma.variation
    zero = gamma.variations.index(0.0)
    diag = float(np.diag(v).mean())
    off = float(v[~np.eye(len(v), dtype=bool)].mean())
    i_plus, j_minus = gamma.variations.index(10.0), gamma.variations.index(-10.0)
    w = shocks.variation
    lambda1_effect = float((w.max(axis=0) - w.min(axis=0)).mean())
    lambda2_effect = float((w.max(axis=1) - w.min(axis=1)).mean())
    checks = [
        (f"gamma diag mean {diag:.3f} < off-diag mean {off:.3f}", diag < off),
        (
            "gamma (+10%, -10%) corner is the table maximum",
            v[i_plus, j_minus] == v.max(),
        ),
        ("gamma zero cell exactly 0", v[zero, zero] == 0.0),
        (
            f"lambda1 effect {lambda1_effect:.3f} > lambda2 effect {lambda2_effect:.3f}",
            lambda1_effect > lambda2_effect,
        ),
        ("shock zero cell exactly 0", w[zero, zero] == 0.0),
    ]
    report(8, "sensitivity structure", checks)


def test_criterion_9_property_suite(ref_model, ref_policy, ref_costs, ref_life, tables_full):
    checks = []

    times = tables_full.lattice.times
    curve = cost_curve(tables_full, ref_costs)
    cost_gap = 0.0
    for staged, memo in (
        (curve.mean[0], _solve_cost_memo(tables_full, ref_costs)),
        (curve.mean_sq[0], _solve_cost_sq_memo(tables_full, ref_costs)),
    ):
        ref = on_lattice(memo, times)
        cost_gap = max(cost_gap, np.abs(staged - ref).max() / np.abs(ref).max())
    surv_gap = 0.0
    perf = performance_curve(tables_full, 5.0)
    for a, preventive_only in ((perf.availability, False), (perf.reliability, True)):
        b = on_lattice(_solve_survival_memo(tables_full, preventive_only), times)
        surv_gap = max(surv_gap, np.abs(a[0] - b).max())
    checks.append(
        (f"solver vs memoized oracle gap {max(cost_gap, surv_gap):.2e} <= 1e-12",
         max(cost_gap, surv_gap) <= 1e-12)
    )

    closure_ok = True
    ir = perf.interval[~np.isnan(perf.interval)]
    for values in (perf.availability, perf.reliability, ir):
        closure_ok &= bool(np.all((values >= 0.0) & (values <= 1.0)))
    checks.append(("probability closure in [0,1]", closure_ok))

    curve = cost_curve(tables_full, ref_costs)
    checks.append(
        ("variance nonnegative on the grid",
         bool(np.all(curve.mean_sq + 1e-9 >= curve.mean**2)))
    )

    n = 5_000
    coarse = estimate_tables(
        ref_model, ref_policy, ref_life,
        SimulationConfig(n_samples=n, path_step=0.1, master_seed=SEED),
    )
    fine = estimate_tables(
        ref_model, ref_policy, ref_life,
        SimulationConfig(n_samples=n, path_step=0.05, master_seed=SEED),
    )
    p_a = coarse.p_preventive + coarse.p_corrective
    p_b = fine.p_preventive + fine.p_corrective
    se = np.sqrt(2.0 * np.maximum(p_b * (1.0 - p_b), 1e-12) / n)
    checks.append(
        ("step refinement within Monte Carlo error",
         bool(np.all(np.abs(p_a - p_b) <= 3.0 * se + 3.0 / n)))
    )

    cfg = SimulationConfig(n_samples=2_000, master_seed=SEED, worker_streams=3)
    t1 = estimate_tables(ref_model, ref_policy, ref_life, cfg)
    t2 = estimate_tables(ref_model, ref_policy, ref_life, cfg)
    checks.append(("determinism", t1.equals(t2)))

    n_fp = 10_000
    rng = np.random.default_rng(SEED)
    _sigma_M, sigma_Ms, _sigma_L = all_crossings(
        ref_model, ref_policy.inspection_period, 50.0, 0.02,
        ref_policy.preventive_threshold, n_fp, rng,
    )
    fp_ok = True
    deg = ref_model.degradation
    for t in np.linspace(5.0, 50.0, 10):
        # P[sigma_z <= t] = P[X(t) >= z] = Q(alpha t, beta z)
        p = float(special.gammaincc(deg.alpha * t, deg.beta * 20.0))
        p_hat = float((sigma_Ms <= t).mean())
        se_t = math.sqrt(max(p * (1.0 - p), 1e-12) / n_fp)
        fp_ok &= abs(p_hat - p) <= 3.0 * se_t
    checks.append(("first-passage empirical vs closed form (3 SE)", fp_ok))

    report(9, "property suite", checks)
