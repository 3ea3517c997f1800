"""The gamma-bridge kernel against the dense reference sampler.

Both samplers record a crossing at the first delta-grid point at or above
the threshold, so they have one law; the bridge draws far fewer variates.
The kernel resolves only what a cycle's outcome reads, so its outputs are
compared through the events the tables read, and the crossing times through
``all_crossings``, the kernel's routines with every level bisected.  The
two-sample checks compare independent runs of the two at 4 standard errors
of the difference; the joint checks hold path by path.
"""

import math

import numpy as np
import pytest
from crossings import all_crossings
from dense_sampler import dense_kernel, loop_accumulate

from cbmlife.model import (
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.simulate import _block_accumulate, _simulate_kernel, _zero_sums, eval_times

SEED = 4321
N = 50_000
HORIZON = 50.0
Z = 4.0


def make_model(L=30.0, Ms=20.0):
    return SystemModel(
        degradation=GammaDegradation(alpha=0.1, beta=0.1),
        shocks=ShockIntensity(lambda1=0.01, lambda2=0.1),
        breakdown_threshold=L,
        shock_threshold=Ms,
    )


def proportion_z(a, b):
    """Two-sample z of the proportions of True in equal-size samples a and b."""
    p1, p2 = a.mean(axis=-1), b.mean(axis=-1)
    pooled = (p1 + p2) / 2.0
    se = np.sqrt(np.maximum(pooled * (1.0 - pooled), 1e-12) * 2.0 / a.shape[-1])
    return (p1 - p2) / se


def mean_z(a, b):
    se = math.sqrt((a.var() + b.var()) / len(a))
    return 0.0 if se == 0.0 else (a.mean() - b.mean()) / se


LAW_CASES = [
    pytest.param(10.0, 14.0, 0.1, 30.0, 20.0, id="reference"),
    pytest.param(50.0, 25.0, 0.5, 30.0, 20.0, id="one-inspection"),
    pytest.param(10.0, 30.0, 0.1, 30.0, 20.0, id="M-equals-L"),
    pytest.param(10.0, 14.0, 0.3, 30.0, 20.0, id="T-over-delta-not-integer"),
    pytest.param(10.0, 14.0, 0.1, 30.0, 35.0, id="Ms-above-L"),
]


@pytest.mark.parametrize("T, M, delta, L, Ms", LAW_CASES)
def test_law_matches_dense_sampler(T, M, delta, L, Ms):
    # the events the tables read: when and how a cycle ends, and whether it
    # has failed by each inspection up to the one that ends it
    model = make_model(L, Ms)
    policy = MaintenancePolicy(inspection_period=T, preventive_threshold=M)
    bridge = _simulate_kernel(
        model, T, HORIZON, delta, np.full(N, M), np.random.default_rng(SEED)
    )
    dense = dense_kernel(
        model, policy, HORIZON, delta, N, np.random.default_rng(SEED + 1)
    )
    kmax = int(HORIZON // T)
    ks = np.arange(1, kmax + 1)
    epochs = T * ks

    def events(k_rep, corrective, censored, D, *_):
        return np.vstack([
            k_rep[None, :] == np.arange(1, kmax + 2)[:, None],
            corrective,
            censored,
            (D[None, :] <= epochs[:, None]) & (k_rep[None, :] >= ks[:, None]),
        ])

    z = proportion_z(events(*bridge), events(*dense))
    worst = np.abs(z).max()
    assert worst <= Z, f"largest two-sample |z| is {worst:.2f}"


@pytest.mark.parametrize("T, M, delta, L, Ms", LAW_CASES)
def test_crossing_law_matches_dense_sampler(T, M, delta, L, Ms):
    model = make_model(L, Ms)
    policy = MaintenancePolicy(inspection_period=T, preventive_threshold=M)
    bridge = all_crossings(model, T, HORIZON, delta, M, N, np.random.default_rng(SEED))
    dense = dense_kernel(
        model, policy, HORIZON, delta, N, np.random.default_rng(SEED + 1)
    )[4:7]
    epochs = T * np.arange(1, int(HORIZON // T) + 1)
    z = []
    for a, b in zip(bridge, dense):
        z.extend(proportion_z(a[None, :] <= epochs[:, None], b[None, :] <= epochs[:, None]))
        z.append(mean_z(np.minimum(a, HORIZON), np.minimum(b, HORIZON)))
    worst = max(abs(v) for v in z)
    assert worst <= Z, f"largest two-sample |z| is {worst:.2f}"


@pytest.mark.parametrize("M, delta", [(14.0, 0.1), (25.0, 0.3), (30.0, 0.5)])
def test_crossings_are_grid_points_of_one_path(M, delta):
    model = make_model()
    sM, sMs, sL = all_crossings(
        model, 10.0, HORIZON, delta, M, 20_000, np.random.default_rng(SEED)
    )
    for sigma in (sM, sMs, sL):
        hit = sigma[np.isfinite(sigma)]
        assert hit.size
        assert np.array_equal(hit, np.round(hit / delta) * delta)
    crossings = {M: sM, 20.0: sMs, 30.0: sL}
    ordered = [crossings[z] for z in sorted(crossings)]
    for earlier, later in zip(ordered, ordered[1:]):
        assert np.all(earlier <= later)
    if M == 30.0:
        assert np.array_equal(sM, sL)


def test_identical_thresholds_give_identical_crossings():
    model = make_model(L=25.0, Ms=25.0)
    sM, sMs, sL = all_crossings(
        model, 10.0, HORIZON, 0.1, 25.0, 20_000, np.random.default_rng(SEED)
    )
    assert np.isfinite(sM).any()
    assert np.array_equal(sM, sMs) and np.array_equal(sMs, sL)


@pytest.mark.parametrize("T, horizon, delta", [(10.0, 50.0, 0.1), (5.0, 200.0, 0.5)])
def test_one_pass_reduction_matches_loops(T, horizon, delta):
    model = make_model()
    policy = MaintenancePolicy(inspection_period=T, preventive_threshold=14.0)
    life = LifeCycle(horizon=horizon)
    times = eval_times(policy, life)
    n = 20_000
    seq = np.random.SeedSequence(SEED)
    sums = _zero_sums(1, int(horizon // T), times)
    _block_accumulate(
        [model], T, life, delta, np.array([14.0]), np.zeros((1, n), dtype=int),
        np.random.default_rng(seq), times, sums,
    )
    sums = {key: value[0] for key, value in sums.items()}
    outputs = _simulate_kernel(
        model, T, horizon, delta, np.full(n, 14.0), np.random.default_rng(seq)
    )
    ref = loop_accumulate(*outputs[:4], T, int(horizon // T), times)
    # Counts are exact; sums of n nonnegative terms differ only by summation
    # order, at most n float64 roundings.
    assert sums.keys() == ref.keys()
    for key in ref:
        np.testing.assert_allclose(sums[key], ref[key], rtol=n * np.finfo(float).eps,
                                   atol=0.0, err_msg=key)


@pytest.mark.parametrize(
    "T, horizon, delta, Ms",
    [(5.0, 200.0, 0.5, (1.0, 3.0)), (15.0, 50.0, 0.15, (1.0, 2.0)),
     (50.0, 50.0, 0.5, (0.5,))],
)
def test_reduction_stops_at_the_last_open_inspection(T, horizon, delta, Ms):
    # Every cycle of a low threshold ends within a few inspections, so the
    # later columns must stay zero.
    model = make_model()
    life = LifeCycle(horizon=horizon)
    times = eval_times(MaintenancePolicy(T, min(Ms)), life)
    n, kmax = 5_000, int(horizon // T)
    seq = np.random.SeedSequence(SEED)
    sums = _zero_sums(len(Ms), kmax, times)
    _block_accumulate(
        [model], T, life, delta, np.array(Ms), np.arange(len(Ms)).repeat(n)[None],
        np.random.default_rng(seq), times, sums,
    )
    outputs = _simulate_kernel(
        model, T, horizon, delta, np.repeat(Ms, n), np.random.default_rng(seq)
    )
    assert outputs[0].max() <= kmax  # every cycle ends before the horizon
    for i in range(len(Ms)):
        paths = slice(i * n, (i + 1) * n)
        ref = loop_accumulate(*(o[paths] for o in outputs[:4]), T, kmax, times)
        for key in ref:
            np.testing.assert_allclose(
                sums[key][i], ref[key], rtol=n * np.finfo(float).eps, atol=0.0,
                err_msg=f"M={Ms[i]} {key}",
            )
        assert not sums["balive"][i, times > outputs[0][paths].max() * T].any()
