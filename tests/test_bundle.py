"""estimate_row over a bundle: one set of paths serves every member.

The members of a bundle share alpha, M_s and L.  Their paths are drawn at
alpha and at beta_d, the smallest rate of the members; member j reads them
at the levels M, M_s and L scaled by beta_j / beta_d, and draws its shock
time from the path's one exponential with its own rates.  A bundle whose
members differ only in lambda draws exactly the paths of one model, so its
rows are that model's rows bit for bit; with several rates each member keeps
its own law, which the z-tests check against the member's own independent
estimate.  A member's rows do not depend on the order of the members.  A
paired row reads every path at every threshold, so it draws its paths once
for all thresholds, and each threshold keeps its law.
"""

from dataclasses import replace

import numpy as np
import pytest

from cbmlife import simulate
from cbmlife.model import (
    GammaDegradation,
    LifeCycle,
    ShockIntensity,
    SystemModel,
)
from cbmlife.sensitivity import VARIATIONS
from cbmlife.simulate import SimulationConfig, estimate_row

SEED = 1357
# Below M_s = 20, between M_s and L = 30, at M_s and at L.
THRESHOLDS = (5.0, 14.0, 20.0, 25.0, 30.0)
ARRAYS = ("block_sizes", "bp_p", "bp_c", "bjw", "bjw2", "balive", "bresid",
          "bresid2", "bcensored")
Z = 4.0


@pytest.fixture(scope="module")
def model():
    return SystemModel(
        degradation=GammaDegradation(alpha=0.1, beta=0.1),
        shocks=ShockIntensity(lambda1=0.01, lambda2=0.1),
        breakdown_threshold=30.0,
        shock_threshold=20.0,
    )


def row_seed():
    return np.random.SeedSequence(SEED, spawn_key=(10_000_000,))


def with_rates(model, beta=1.0, lambda1=1.0, lambda2=1.0):
    """The model with beta, lambda1 and lambda2 scaled by the given factors."""
    deg, shocks = model.degradation, model.shocks
    return replace(
        model,
        degradation=GammaDegradation(alpha=deg.alpha, beta=deg.beta * beta),
        shocks=ShockIntensity(lambda1=shocks.lambda1 * lambda1,
                              lambda2=shocks.lambda2 * lambda2),
    )


def member_rows(tables, j, count):
    """Member j's rows of a bundle's table set, of count thresholds each."""
    return tables._rows(tables.Ms[j * count : (j + 1) * count],
                        slice(j * count, (j + 1) * count))


@pytest.mark.parametrize(
    "n, cap",
    [
        pytest.param(803, None, id="one-pass"),
        # 150 paths in two passes of 75, members reduced one at a time.
        pytest.param(30, 100, id="passes-and-member-groups"),
        # 2,020 paths in 21 passes of at most 100, each within a threshold
        # or across two.
        pytest.param(404, 100, id="chunks"),
    ],
)
def test_lambda_bundle_rows_are_the_models_rows(model, monkeypatch, n, cap):
    if cap is not None:
        monkeypatch.setattr(simulate, "_PASS_PATHS", cap)
    members = [
        with_rates(model, lambda1=f1, lambda2=f2)
        for f1, f2 in ((1.0, 1.0), (0.9, 1.1), (1.1, 0.5), (2.0, 1.0), (0.0, 1.0))
    ]
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=n, master_seed=SEED, worker_streams=4)
    bundle = estimate_row(members, 10.0, THRESHOLDS, life, cfg, row_seed())
    assert bundle.Ms.tolist() == list(THRESHOLDS) * len(members)
    for j, member in enumerate(members):
        alone = estimate_row(member, 10.0, THRESHOLDS, life, cfg, row_seed())
        rows = member_rows(bundle, j, len(THRESHOLDS))
        for name in ARRAYS:
            assert np.array_equal(getattr(rows, name), getattr(alone, name)), (j, name)


def test_bundle_rows_do_not_depend_on_member_order(model, monkeypatch):
    monkeypatch.setattr(simulate, "_PASS_PATHS", 400)
    members = [with_rates(model, beta=1.0 + v / 100.0) for v in VARIATIONS]
    members.append(with_rates(model, beta=1.05, lambda1=1.5))
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=50, master_seed=SEED, worker_streams=3)
    given = estimate_row(members, 10.0, THRESHOLDS, life, cfg, row_seed())
    order = [3, 7, 0, 6, 1, 5, 2, 4]
    permuted = estimate_row([members[k] for k in order], 10.0, THRESHOLDS, life,
                            cfg, row_seed())
    R = len(THRESHOLDS)
    for position, k in enumerate(order):
        assert member_rows(permuted, position, R).equals(member_rows(given, k, R)), k
    # The members of one rate read the same crossings, so only their shock
    # times differ; the members of other rates read other crossings.
    p_p = given.p_preventive.reshape(len(members), R, -1)
    assert not np.array_equal(p_p[5], p_p[7])
    assert not np.array_equal(p_p[3], p_p[4])


def test_members_must_share_alpha_and_thresholds(model):
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=10)
    others = (
        replace(model, degradation=GammaDegradation(alpha=0.2, beta=0.1)),
        replace(model, shock_threshold=21.0),
        replace(model, breakdown_threshold=31.0),
    )
    for other in others:
        with pytest.raises(ValueError, match="must share alpha, M_s and L"):
            estimate_row([model, other], 10.0, (14.0,), life, cfg, row_seed())
    with pytest.raises(ValueError, match="at least one model"):
        estimate_row([], 10.0, (14.0,), life, cfg, row_seed())


def test_a_bundle_pass_holds_a_share_of_the_cap(model, monkeypatch, counting_rng):
    # K distinct rates: the row's paths are cut into the fewest even passes
    # of at most _PASS_PATHS // K, with one exponential per path and one
    # exponential call per pass.
    made = []

    def default_rng(seed):
        made.append(counting_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    members = [with_rates(model, beta=1.0 + v / 100.0) for v in VARIATIONS]
    life = LifeCycle(50.0)
    Ms = np.linspace(6.0, 26.0, 11)
    cfg = SimulationConfig(n_samples=200, master_seed=SEED, worker_streams=4)
    estimate_row(members, 10.0, Ms, life, cfg, row_seed())
    (rng,) = made
    cap = simulate._PASS_PATHS // len(members)
    passes = simulate._chunks(len(Ms) * cfg.n_samples, cap)
    assert passes == [(0, 1100), (1100, 2200)]
    assert rng.calls["exponential"] == len(passes)
    assert rng.counts["exponential"] == len(Ms) * cfg.n_samples
    assert rng.largest["exponential"] == 1100 <= cap
    assert rng.largest["gamma"] <= cap


def test_a_paired_row_draws_its_paths_once(model, monkeypatch, counting_rng):
    # The sensitivity row: 7 rates at 11 thresholds, paired.  A pass holds
    # at most 3 * _PASS_PATHS // (7 * 13) = 270 paths, so its 200 paths are
    # one pass with one exponential a path, not one a path and threshold.
    made = []

    def default_rng(seed):
        made.append(counting_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    members = [with_rates(model, beta=1.0 + v / 100.0) for v in VARIATIONS]
    Ms = np.linspace(6.0, 26.0, 11)
    cfg = SimulationConfig(n_samples=200, master_seed=SEED, worker_streams=4)
    estimate_row(members, 10.0, Ms, LifeCycle(50.0), cfg, row_seed(), paired=True)
    (rng,) = made
    cap = 3 * simulate._PASS_PATHS // (len(members) * (len(Ms) + 2))
    assert cap == 270 and simulate._chunks(cfg.n_samples, cap) == [(0, 200)]
    assert rng.calls["exponential"] == 1
    assert rng.counts["exponential"] == cfg.n_samples
    assert rng.largest["gamma"] <= cfg.n_samples


# Each member of a 7-rate bundle against its own one-model estimate, drawn
# from another seed sequence: the two are independent with one law.
LAW_N = 4_000


@pytest.fixture(scope="module")
def law_bundle(model):
    members = [with_rates(model, beta=1.0 + v / 100.0) for v in VARIATIONS]
    cfg = SimulationConfig(n_samples=LAW_N, master_seed=SEED)
    life = LifeCycle(50.0)
    Ms = (14.0, 25.0)
    bundle = estimate_row(members, 10.0, Ms, life, cfg,
                          np.random.SeedSequence(SEED, spawn_key=(1,)))
    return members, bundle, Ms, cfg, life


@pytest.mark.parametrize("j", range(len(VARIATIONS)))
def test_bundle_members_agree_in_law_with_their_own_rows(law_bundle, j):
    members, bundle, Ms, cfg, life = law_bundle
    cell = member_rows(bundle, j, len(Ms))
    own = estimate_row(members[j], 10.0, Ms, life, cfg,
                       np.random.SeedSequence(SEED, spawn_key=(2, j)))
    first = own.lattice.index_of(10.0)

    def proportions(tables):
        # Each is the fraction of paths with an event, so binomial.
        return np.stack([tables.p_preventive.sum(axis=1),
                         tables.p_corrective.sum(axis=1),
                         tables.alive_no_replacement[:, first]])

    a, b = proportions(cell), proportions(own)
    se = np.sqrt((a * (1 - a) + b * (1 - b)) / LAW_N)
    assert np.all(se > 0.0)
    z = (a - b) / se
    assert np.all(np.abs(z) <= Z), z


@pytest.fixture(scope="module")
def paired_law_bundle(model):
    members = [with_rates(model, beta=1.0 + v / 100.0) for v in VARIATIONS]
    cfg = SimulationConfig(n_samples=LAW_N, master_seed=SEED)
    life = LifeCycle(50.0)
    Ms = (6.0, 14.0, 20.0, 25.0)
    bundle = estimate_row(members, 10.0, Ms, life, cfg,
                          np.random.SeedSequence(SEED, spawn_key=(3,)), paired=True)
    return members, bundle, Ms, cfg, life


@pytest.mark.parametrize("j", range(len(VARIATIONS)))
def test_paired_thresholds_agree_in_law_with_their_own_rows(paired_law_bundle, j):
    # Every threshold of a paired row reads the same paths; each keeps the
    # law of the member's own unpaired row, drawn from another seed sequence.
    members, bundle, Ms, cfg, life = paired_law_bundle
    cell = member_rows(bundle, j, len(Ms))
    own = estimate_row(members[j], 10.0, Ms, life, cfg,
                       np.random.SeedSequence(SEED, spawn_key=(4, j)))
    first = own.lattice.index_of(10.0)

    def proportions(tables):
        # Each is the fraction of paths with an event, so binomial.
        return np.stack([tables.p_preventive.sum(axis=1),
                         tables.p_corrective.sum(axis=1),
                         tables.alive_no_replacement[:, first]])

    a, b = proportions(cell), proportions(own)
    se = np.sqrt((a * (1 - a) + b * (1 - b)) / LAW_N)
    assert np.all(se > 0.0)
    z = (a - b) / se
    assert np.all(np.abs(z) <= Z), z
