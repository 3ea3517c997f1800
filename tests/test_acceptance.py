"""Acceptance gate: nine criteria checked at fixed tolerances.

Each test prints a single CRITERION line (run with ``pytest -s`` to see all
of them) summarizing every sub-check with the measured values, then asserts
them.  The benchmark dataset is alpha = beta = 0.1, L = 30, M_s = 20,
lambda1 = 0.01, lambda2 = 0.1, C_c = 300, C_p = 150, C_I = 45, C_d = 25,
t_f = 50.

The reference values of criteria 1, 2, 3 and 6 come from the quadrature
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

import numpy as np
import pytest
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

from cbmlife.model import MaintenancePolicy, first_passage_cdf
from cbmlife.optimize import (
    PolicyGrid,
    optimize_asymptotic,
    optimize_transient,
    renewal_counts,
)
from cbmlife.renewal import (
    availability,
    cost_curve,
    expected_cost,
    interval_reliability,
    performance_curve,
    reliability,
    std_dev,
)
from cbmlife.sensitivity import gamma_sensitivity, shock_sensitivity
from cbmlife.simulate import (
    SimulationConfig,
    _simulate_kernel,
    chain_statistics,
    estimate_tables,
    sample_failure_times,
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
    cfg = SimulationConfig(n_samples=50_000, master_seed=SEED, worker_streams=4)
    grid = PolicyGrid()
    asym = optimize_asymptotic(ref_model, ref_costs, grid, cfg, ref_life)
    trans = optimize_transient(ref_model, ref_costs, ref_life, grid, cfg)
    return asym, trans


def test_criterion_1_failure_laws(ref_model):
    sigma_L, Y = sample_failure_times(
        ref_model, n=50_000, delta=0.1, horizon=300.0, master_seed=SEED
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
    asym, _ = grids_full
    smoke = optimize_asymptotic(
        ref_model, ref_costs, PolicyGrid(),
        SimulationConfig(n_samples=5_000, master_seed=SEED, worker_streams=4),
        ref_life,
    )
    ref = ASYMPTOTIC_MIN[2]
    checks = optimum_checks(asym, ASYMPTOTIC_MIN, ref_model, ref_costs, ref_life) + [
        (
            f"minimum={asym.minimum:.4f} vs oracle {ref:.4f} +/- 3%",
            abs(asym.minimum - ref) <= 0.03 * ref,
        ),
        (
            f"full grid wall clock {asym.elapsed_seconds:.1f}s < 900s",
            asym.elapsed_seconds < 900.0,
        ),
        (
            f"smoke minimum={smoke.minimum:.4f} vs oracle {ref:.4f} +/- 8%",
            abs(smoke.minimum - ref) <= 0.08 * ref,
        ),
        (
            f"smoke wall clock {smoke.elapsed_seconds:.1f}s < 120s",
            smoke.elapsed_seconds < 120.0,
        ),
    ]
    report(2, "asymptotic optimum", checks)


@pytest.mark.slow
def test_criterion_3_transient_optimum(ref_model, ref_costs, ref_life, grids_full):
    _, trans = grids_full
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
        recursive = expected_cost(tables, ref_costs, None, tf) / tf
        block_rates = [
            expected_cost(tables.block_view(b), ref_costs, None, tf) / tf
            for b in range(cfg.worker_streams)
        ]
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
    sd = std_dev(tables_full, ref_costs, None, 50.0)
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
    oracle = Oracle(ref_model)
    checks = []
    for T in (5.0, 10.0, 30.0, 45.0):
        policy = MaintenancePolicy(inspection_period=T, preventive_threshold=14.0)
        count = renewal_counts(ref_model, policy, ref_life, cfg)
        ref = oracle.renewal_count(T, 14.0, ref_life.horizon)
        checks.append(
            (
                f"E[N(50)] at T={T:g}: {count:.4f} vs oracle {ref:.4f} +/- 2%",
                abs(count - ref) <= 0.02 * ref,
            )
        )
    report(6, "renewal counts", checks)


def test_criterion_7_performance_measures(tables_full):
    grid50 = np.arange(1.0, 51.0)
    avail_min = min(availability(tables_full, float(t)) for t in grid50)
    rel_50 = reliability(tables_full, 50.0)
    ir_min = min(
        interval_reliability(tables_full, float(t), 5.0)
        for t in np.arange(15.0, 36.0)
    )
    id_avail = max(
        abs(interval_reliability(tables_full, float(t), 0.0)
            - availability(tables_full, float(t)))
        for t in np.arange(0.0, 51.0)
    )
    id_rel = max(
        abs(interval_reliability(tables_full, 0.0, float(t))
            - reliability(tables_full, float(t)))
        for t in np.arange(0.0, 51.0)
    )
    checks = [
        (f"availability min={avail_min:.4f} >= 0.81", avail_min >= 0.81),
        (f"reliability(50)={rel_50:.4f} vs 0.32 +/- 0.03", abs(rel_50 - 0.32) <= 0.03),
        (f"interval reliability min={ir_min:.4f} >= 0.71", ir_min >= 0.71),
        (f"IR(t,t+0)=A(t) max err {id_avail:.2e} <= 1e-12", id_avail <= 1e-12),
        (f"IR(0,t)=R(t) max err {id_rel:.2e} <= 1e-12", id_rel <= 1e-12),
    ]
    report(7, "performance measures", checks)


def test_criterion_8_sensitivity_structure(ref_model, ref_costs, ref_life):
    cfg = SimulationConfig(n_samples=3_000, master_seed=SEED, worker_streams=2)
    sweep = (10.0, 12.0, 14.0, 16.0, 18.0)
    gamma = gamma_sensitivity(ref_model, ref_costs, ref_life, ("T", 10.0), sweep, cfg=cfg)
    shocks = shock_sensitivity(ref_model, ref_costs, ref_life, ("T", 10.0), sweep, cfg=cfg)
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

    times = tables_full.times
    curve = cost_curve(tables_full, ref_costs)
    cost_gap = 0.0
    for staged, memo in (
        (curve.mean, _solve_cost_memo(tables_full, ref_costs)),
        (curve.mean_sq, _solve_cost_sq_memo(tables_full, ref_costs)),
    ):
        ref = on_lattice(memo, times)
        cost_gap = max(cost_gap, np.abs(staged - ref).max() / np.abs(ref).max())
    surv_gap = 0.0
    for kind, preventive_only in (("availability", False), ("reliability", True)):
        a = performance_curve(tables_full, kind).values
        b = on_lattice(_solve_survival_memo(tables_full, preventive_only), times)
        surv_gap = max(surv_gap, np.abs(a - b).max())
    checks.append(
        (f"solver vs memoized oracle gap {max(cost_gap, surv_gap):.2e} <= 1e-12",
         max(cost_gap, surv_gap) <= 1e-12)
    )

    closure_ok = True
    for kind in ("availability", "reliability"):
        curve = performance_curve(tables_full, kind)
        closure_ok &= bool(np.all((curve.values >= 0.0) & (curve.values <= 1.0)))
    ir_curve = performance_curve(tables_full, "interval_reliability", s=5.0)
    closure_ok &= bool(np.all((ir_curve.values >= 0.0) & (ir_curve.values <= 1.0)))
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
    t1 = estimate_tables(ref_model, ref_policy, ref_life, cfg, threads=1)
    t2 = estimate_tables(ref_model, ref_policy, ref_life, cfg, threads=4)
    checks.append(("determinism across thread counts", t1.equals(t2)))

    n_fp = 10_000
    rng = np.random.default_rng(SEED)
    *_, sigma_Ms, _sigma_L, _Y = _simulate_kernel(
        ref_model, ref_policy.inspection_period, 50.0, 0.02,
        [ref_policy.preventive_threshold], [n_fp], [rng],
    )
    fp_ok = True
    for t in np.linspace(5.0, 50.0, 10):
        p = first_passage_cdf(ref_model, 20.0, float(t))
        p_hat = float((sigma_Ms <= t).mean())
        se_t = math.sqrt(max(p * (1.0 - p), 1e-12) / n_fp)
        fp_ok &= abs(p_hat - p) <= 3.0 * se_t
    checks.append(("first-passage empirical vs closed form (3 SE)", fp_ok))

    report(9, "property suite", checks)
