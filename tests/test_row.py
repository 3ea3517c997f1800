"""estimate_row: one generator serves a whole row of thresholds.

The row's generator, default_rng of its seed sequence, draws the row's
len(Ms) * n paths threshold-major in ascending M, cut into the fewest passes
of even sizes, and each threshold has paths of its own; the row's table set
holds them in the order given, one row each.  Worker block b of a threshold
is the b-th range of its paths, and a pass boundary may fall inside a
threshold and inside a block.  A threshold's estimates therefore depend on
the row's set of thresholds, though not on their order or the process
count, its pooled counts not on the number of blocks, and estimate_tables
is the one-threshold row.  A cell of a row is not bit for bit its
one-threshold estimate_tables, but it has the same law:
the tests below check the layout against the reference reduction, the
invariances, the agreement in law with each cell's own estimate, and the
generators and sampler calls a row costs.  A paired row draws n paths and
reads each at every threshold, cut into passes as well; its layout is
checked the same way, and on its shared paths the count of paths replaced
by each inspection never rises with M.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cbmlife import simulate
from cbmlife.errors import ConfigurationError
from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.optimize import PolicyGrid, optimize_transient
from cbmlife.sensitivity import VARIATIONS
from cbmlife.simulate import (
    SimulationConfig,
    _draw_pass,
    _outcomes,
    _skeleton,
    estimate_row,
    estimate_tables,
    eval_times,
)
from dense_sampler import loop_accumulate

SEED = 8642
# Below M_s = 20, between M_s and L = 30, at M_s and at L.
THRESHOLDS = (5.0, 14.0, 20.0, 25.0, 30.0)
COUNTS = ("bp_p", "bp_c", "balive", "bcensored")
SUMS = ("bjw", "bjw2", "bresid", "bresid2")


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


def betas(model, variations=VARIATIONS):
    """The model at beta scaled by 1 + v/100 for each v: a bundle of rates."""
    return [
        replace(model, degradation=GammaDegradation(alpha=0.1, beta=0.1 * (1 + v / 100)))
        for v in variations
    ]


def by_path_ranges(models, T, Ms, life, cfg, paired=False):
    """Each (member, threshold) row's block sums, drawn as documented and
    reduced by the loop.

    One generator draws the row's paths once for every member, in the
    fewest passes of even sizes of at most 3 * _PASS_PATHS // (K * (R + 2))
    paths for K distinct betas and R thresholds a path.  Unpaired, the row
    draws len(Ms) * n paths, threshold-major in ascending M, one threshold
    a path (R = 1); paired, it draws n paths, each at every threshold, the
    largest first.  Block b of a threshold is the b-th range of its paths,
    reduced on its own by the reference reduction.
    """
    members = [models] if isinstance(models, SystemModel) else list(models)
    policy = MaintenancePolicy(T, min(Ms))
    delta, times = cfg.step_for(policy), eval_times(policy, life)
    kmax = int(math.floor(life.horizon / T + 1e-9))
    n = cfg.n_samples
    R = len(Ms) if paired else 1
    K = len({m.degradation.beta for m in members})
    cap = 3 * simulate._PASS_PATHS // (K * (R + 2))
    block = simulate._block_split(n, cfg.worker_streams)
    starts = np.concatenate([[0], np.cumsum(block)])
    ascending = sorted(Ms)
    if paired:
        levels = np.repeat(np.array(ascending[::-1])[:, None], n, axis=1)
    else:
        levels = np.repeat(ascending, n)[None]
    passes = math.ceil(levels.shape[1] / cap)
    bounds = [p * levels.shape[1] // passes for p in range(passes + 1)]
    rng = np.random.default_rng(row_seed())
    drawn = []
    for lo, hi in zip(bounds, bounds[1:]):
        which, state = _draw_pass(members, T, life.horizon, delta, levels[:, lo:hi], rng)
        out = _outcomes(members, which, state, T, life.horizon)
        drawn.append([np.broadcast_to(o, out[0].shape) for o in out[:4]])
    # (member, threshold, path) arrays of the whole row's paths.
    out = [np.concatenate(parts, axis=2) for parts in zip(*drawn)]

    def paths(o, j, i, b):
        """Member j's outcomes at ascending threshold i in block b."""
        if paired:
            return o[j, R - 1 - i, starts[b] : starts[b + 1]]
        return o[j, 0, i * n + starts[b] : i * n + starts[b + 1]]

    expected = {
        (j, M): {
            b: loop_accumulate(*(paths(o, j, i, b) for o in out), T, kmax, times)
            for b in np.flatnonzero(block)
        }
        for j in range(len(members))
        for i, M in enumerate(ascending)
    }
    return expected, block


def assert_row_follows_its_generator(models, T, Ms, life, cfg, paired=False):
    tables = estimate_row(models, T, Ms, life, cfg, row_seed(), paired=paired)
    expected, block = by_path_ranges(models, T, Ms, life, cfg, paired)
    members = len(tables.Ms) // len(Ms)
    assert tables.Ms.tolist() == list(Ms) * members
    for r, M in enumerate(tables.Ms):
        for b in range(cfg.worker_streams):
            sums = expected[r // len(Ms), M].get(b)
            for name in COUNTS + SUMS:
                got = getattr(tables, name)[r, b]
                if sums is None:  # an empty block keeps its zero row
                    assert not np.any(got), (r, M, b, name)
                elif name in COUNTS:
                    assert np.array_equal(got, sums[name]), (r, M, b, name)
                else:
                    # sums of block[b] nonnegative terms, in another order
                    np.testing.assert_allclose(
                        got, sums[name], rtol=block[b] * np.finfo(float).eps,
                        atol=0.0, err_msg=f"row {r} M={M} block {b} {name}",
                    )


@pytest.mark.parametrize(
    "T, horizon, n, streams, delta",
    [
        pytest.param(10.0, 50.0, 803, 4, None, id="n-not-divisible"),
        pytest.param(10.0, 50.0, 3, 4, None, id="empty-blocks"),
        pytest.param(10.0, 50.0, 400, 3, 0.3, id="T-over-delta-not-integer"),
        pytest.param(15.0, 50.0, 200, 4, None, id="horizon-not-a-multiple-of-T"),
        pytest.param(5.0, 200.0, 100, 2, 0.5, id="long-horizon"),
    ],
)
def test_row_equals_its_block_streams(model, T, horizon, n, streams, delta):
    # Block b of each threshold sums its b-th range of the generator's paths.
    cfg = SimulationConfig(n_samples=n, path_step=delta, master_seed=SEED,
                           worker_streams=streams)
    assert_row_follows_its_generator(model, T, THRESHOLDS, LifeCycle(horizon), cfg)


@pytest.mark.parametrize(
    "Ms", [pytest.param(35.0, id="Ms-above-L"), pytest.param(30.0, id="Ms-equals-L")]
)
def test_row_with_shock_threshold_at_or_above_L(Ms):
    model = SystemModel(
        degradation=GammaDegradation(alpha=0.1, beta=0.1),
        shocks=ShockIntensity(lambda1=0.01, lambda2=0.1),
        breakdown_threshold=30.0,
        shock_threshold=Ms,
    )
    cfg = SimulationConfig(n_samples=803, master_seed=SEED, worker_streams=4)
    assert_row_follows_its_generator(model, 10.0, THRESHOLDS, LifeCycle(50.0), cfg)


@pytest.mark.parametrize(
    "n, streams",
    [
        # 150 paths in two passes of 75: the boundary splits the third
        # threshold at its path 15, inside its block 1 (paths 8-15).
        pytest.param(30, 4, id="passes-across-thresholds"),
        # 2,020 paths in 21 passes of 96 or 97, blocks of 101 split between
        # passes.
        pytest.param(404, 4, id="blocks-above-the-cap"),
    ],
)
def test_row_spanning_several_passes(model, monkeypatch, n, streams):
    monkeypatch.setattr(simulate, "_PASS_PATHS", 100)
    cfg = SimulationConfig(n_samples=n, master_seed=SEED, worker_streams=streams)
    assert len(THRESHOLDS) * n > simulate._PASS_PATHS  # several passes
    # Shuffled, so the passes must follow ascending M, not the order given.
    Ms = (25.0, 5.0, 30.0, 14.0, 20.0)
    assert_row_follows_its_generator(model, 10.0, Ms, LifeCycle(50.0), cfg)


def test_bundle_pass_boundary_inside_a_threshold_and_a_block(model):
    # 7 betas cap a pass at 8192 // 7 = 1,170 paths, so the 2,310 paths of
    # 11 thresholds of 210 take two passes of 1,155.  The boundary falls at
    # path 105 of the sixth threshold, inside its block 1 (paths 53-105).
    members = betas(model)
    Ms = tuple(np.linspace(6.0, 26.0, 11))
    cfg = SimulationConfig(n_samples=210, master_seed=SEED, worker_streams=4)
    cap = simulate._PASS_PATHS // len(members)
    assert simulate._chunks(len(Ms) * cfg.n_samples, cap) == [(0, 1155), (1155, 2310)]
    assert_row_follows_its_generator(members, 10.0, Ms, LifeCycle(50.0), cfg)


@pytest.mark.parametrize(
    "rates, Ms, n, cap",
    [
        # Five thresholds a path, in the one pass of 3 * 8192 // 7 = 3,510.
        pytest.param(1, (25.0, 5.0, 30.0, 14.0, 20.0), 803, None, id="one-pass"),
        # 7 betas at 11 thresholds cap a pass at 3 * 8192 // (7 * 13) =
        # 270 paths, so 600 take three passes of 200, which split the
        # blocks of 150.
        pytest.param(7, tuple(np.linspace(6.0, 26.0, 11)), 600, None,
                     id="7-betas-passes-split-blocks"),
        # A threshold given twice reads the same paths twice; passes of
        # 3 * 100 // 5 = 60 cut 90 paths into two of 45.
        pytest.param(1, (14.0, 20.0, 14.0), 90, 100, id="repeated-threshold"),
    ],
)
def test_paired_row_follows_its_generator(model, monkeypatch, rates, Ms, n, cap):
    # Paired, the row draws n paths, each read at every threshold; block b
    # of every threshold is the b-th range of the same paths.
    if cap is not None:
        monkeypatch.setattr(simulate, "_PASS_PATHS", cap)
    cfg = SimulationConfig(n_samples=n, master_seed=SEED, worker_streams=4)
    members = betas(model, VARIATIONS[:rates])
    assert_row_follows_its_generator(members, 10.0, Ms, LifeCycle(50.0), cfg,
                                     paired=True)


def test_paired_replacements_by_inspection_fall_with_M(model, monkeypatch):
    # Path by path k_rep = min(k_c, k_p(M)), and k_p grows with M, so for
    # every member and block the count of paths replaced by inspection k,
    # k <= kmax, never rises with M.  Cells drawn from paths of their own
    # break this by their noise.
    monkeypatch.setattr(simulate, "_PASS_PATHS", 300)  # 9 passes of 22 or 23
    members = betas(model, (-10.0, 0.0, 10.0))
    faster = ShockIntensity(lambda1=0.02, lambda2=0.2)
    members.append(replace(members[1], shocks=faster))
    Ms = (14.0, 6.0, 26.0, 14.5, 8.0, 20.0, 10.0, 22.0, 16.0, 12.0, 18.0, 24.0)
    cfg = SimulationConfig(n_samples=200, master_seed=SEED, worker_streams=4)
    tables = estimate_row(members, 10.0, Ms, LifeCycle(50.0), cfg, row_seed(),
                          paired=True)
    replaced = (tables.bp_p + tables.bp_c).cumsum(axis=-1)
    replaced = replaced.reshape(len(members), len(Ms), 4, -1)[:, np.argsort(Ms)]
    steps = np.diff(replaced, axis=1)
    assert np.all(steps <= 0.0)
    assert np.any(steps < 0.0)


def test_one_threshold_paired_row_is_the_row(model):
    # One threshold a path either way: the same passes and draws.
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=1_803, master_seed=SEED, worker_streams=4)
    members = betas(model)
    paired = estimate_row(members, 10.0, (14.0,), life, cfg, row_seed(), paired=True)
    assert paired.equals(estimate_row(members, 10.0, (14.0,), life, cfg, row_seed()))


def test_one_threshold_row_is_estimate_tables(model, monkeypatch):
    # With passes of one threshold each, the lowest is drawn first, in the
    # one pass its one-threshold row draws.
    monkeypatch.setattr(simulate, "_PASS_PATHS", 404)
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=404, master_seed=SEED, worker_streams=4)
    row = estimate_row(model, 10.0, THRESHOLDS, life, cfg, row_seed())
    alone = estimate_tables(model, MaintenancePolicy(10.0, 5.0), life, cfg,
                            seed_sequence=row_seed())
    for name in ("bp_p", "bp_c", "bjw", "bjw2", "balive", "bresid", "bresid2"):
        assert np.array_equal(getattr(row, name)[0], getattr(alone, name)[0]), name
    assert not np.array_equal(row.balive[1], alone.balive[0])


def test_thresholds_have_paths_of_their_own(model):
    # A threshold given twice gets two rows from disjoint paths.
    cfg = SimulationConfig(n_samples=400, master_seed=SEED)
    tables = estimate_row(model, 10.0, (14.0, 14.0), LifeCycle(50.0), cfg, row_seed())
    first, second = tables.take(0), tables.take(1)
    assert first.Ms.tolist() == second.Ms.tolist() == [14.0]
    assert not np.array_equal(first.balive, second.balive)
    assert not np.array_equal(first.bp_p, second.bp_p)


def test_threshold_order_does_not_matter(model):
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=250, master_seed=SEED)
    row = estimate_row(model, 10.0, THRESHOLDS, life, cfg, row_seed())
    permuted = (25.0, 5.0, 30.0, 14.0, 20.0)
    other = estimate_row(model, 10.0, permuted, life, cfg, row_seed())
    for i, M in enumerate(THRESHOLDS):
        assert row.take(i).equals(other.take(permuted.index(M)))


def test_a_row_keeps_the_order_given(model, monkeypatch):
    # Drawn in ascending M over several passes, the rows follow Ms as
    # given, and take(i) is threshold i alone: row i of every array.
    monkeypatch.setattr(simulate, "_PASS_PATHS", 100)
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=30, master_seed=SEED, worker_streams=4)
    Ms = (25.0, 5.0, 30.0, 14.0, 20.0)
    shuffled = estimate_row(model, 10.0, Ms, life, cfg, row_seed())
    ascending = estimate_row(model, 10.0, sorted(Ms), life, cfg, row_seed())
    assert shuffled.Ms.tolist() == list(Ms)
    for i, M in enumerate(Ms):
        one, j = shuffled.take(i), sorted(Ms).index(M)
        assert one.Ms.tolist() == [M] and one.lattice is shuffled.lattice
        for name in ("block_sizes", "bp_p", "bp_c", "bjw", "bjw2", "balive",
                     "bresid", "bresid2", "bcensored"):
            assert np.array_equal(getattr(one, name), getattr(shuffled, name)[i : i + 1])
            assert np.array_equal(getattr(one, name)[0], getattr(ascending, name)[j])
        for name in ("p_preventive", "p_corrective", "joint_downtime",
                     "joint_downtime_sq", "alive_no_replacement", "residual_downtime",
                     "residual_downtime_sq", "censored_fraction"):
            assert np.array_equal(getattr(one, name)[0], getattr(shuffled, name)[i])


def test_blocks_do_not_change_the_pooled_tables(model):
    # The blocks split the same paths, so the pooled counts are identical
    # and the pooled sums add the same terms in another order.
    life, n = LifeCycle(50.0), 803
    rows = {
        streams: estimate_row(
            model, 10.0, THRESHOLDS, life,
            SimulationConfig(n_samples=n, master_seed=SEED, worker_streams=streams),
            row_seed(),
        )
        for streams in (1, 3, 4, 7)
    }
    ref = rows[1]
    for streams, tables in rows.items():
        assert tables.block_sizes.shape == (len(THRESHOLDS), streams)
        for name in ("p_preventive", "p_corrective", "alive_no_replacement",
                     "censored_fraction"):
            assert np.array_equal(getattr(tables, name), getattr(ref, name)), name
        for name in ("joint_downtime", "joint_downtime_sq", "residual_downtime",
                     "residual_downtime_sq"):
            np.testing.assert_allclose(
                getattr(tables, name), getattr(ref, name),
                rtol=n * np.finfo(float).eps, atol=0.0,
                err_msg=f"{streams} blocks, {name}",
            )


def test_processes_do_not_matter(model):
    costs = CostStructure(corrective=300.0, preventive=150.0, inspection=45.0,
                          downtime_rate=25.0)
    life = LifeCycle(50.0)
    grid = PolicyGrid(T_values=(10.0, 15.0, 20.0), M_values=(10.0, 14.0, 30.0))
    cfg = SimulationConfig(n_samples=300, master_seed=SEED)
    serial = optimize_transient(model, costs, life, grid, cfg)
    parallel = optimize_transient(model, costs, life, grid, cfg, processes=2)
    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.stderr, parallel.stderr)
    assert serial.warnings == parallel.warnings


def test_policies_checked_at_the_call(model):
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=10)
    with pytest.raises(ConfigurationError, match="must not exceed L"):
        estimate_row(model, 10.0, (14.0, 31.0), life, cfg, row_seed())
    with pytest.raises(ValueError, match="at least one threshold"):
        estimate_row(model, 10.0, (), life, cfg, row_seed())


@pytest.mark.parametrize(
    "name, column, change, message",
    [
        ("p_p", 1, 1e6, "replacement probabilities exceed one"),
        ("p_c", 2, -1e6, "probability entry outside"),
        ("resid", 3, -1e6, "negative downtime moment"),
        ("alive", 0, -1.0, r"alive_no_replacement\(0\) must be 1"),
    ],
)
def test_a_corrupted_cell_fails_the_row(
    model, monkeypatch, name, column, change, message
):
    # A row is checked once, every threshold at once; one bad cell in one
    # block of the middle threshold fails the row.
    accumulate, check, checks = (
        simulate._block_accumulate, simulate.EstimateTables.validate, []
    )

    def corrupted(model, T, life, delta, Ms, bins, rng, times, sums):
        accumulate(model, T, life, delta, Ms, bins, rng, times, sums)
        row = THRESHOLDS.index(20.0) * 4 + 1  # rows are (member, threshold, block)
        if (bins == row).any():
            sums[f"b{name}"][row, column] += change  # the table's block sums

    def counted(tables):
        checks.append(tables.bp_p.shape)
        return check(tables)

    monkeypatch.setattr(simulate.EstimateTables, "validate", counted)
    life = LifeCycle(50.0)
    cfg = SimulationConfig(n_samples=400, master_seed=SEED, worker_streams=4)
    estimate_row(model, 10.0, THRESHOLDS, life, cfg, row_seed())
    assert checks == [(len(THRESHOLDS), 4, 6)]  # one check of the whole row
    monkeypatch.setattr(simulate, "_block_accumulate", corrupted)
    with pytest.raises(ConfigurationError, match=message):
        estimate_row(model, 10.0, THRESHOLDS, life, cfg, row_seed())


def counted_generators(monkeypatch, counting_rng):
    """The CountingGenerators that default_rng hands out from now on."""
    made = []

    def default_rng(seed):
        made.append(counting_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


def test_a_row_costs_one_generator(model, monkeypatch, counting_rng):
    made = counted_generators(monkeypatch, counting_rng)
    life = LifeCycle(50.0)
    Ms = np.linspace(1.0, 30.0, 30)
    cfg = SimulationConfig(n_samples=800, master_seed=SEED, worker_streams=4)
    estimate_row(model, 10.0, Ms, life, cfg, row_seed())
    (rng,) = made
    passes = len(simulate._chunks(len(Ms) * cfg.n_samples, simulate._PASS_PATHS))
    assert passes == 3  # 10 thresholds of 800 paths a pass
    # A bracket of w grid steps is bisected in ceil(log2 w) rounds.
    grid = _skeleton(50.0, 10.0, 0.1)
    rounds = math.ceil(math.log2(np.diff(grid).max()))
    assert 0 < rng.calls["beta"] <= passes * rounds
    # A pass draws its skeleton in at most one gamma call per skeleton step.
    assert rng.calls["exponential"] == passes
    assert 0 < rng.calls["gamma"] <= passes * (len(grid) - 1)


def test_a_large_threshold_is_drawn_in_chunks(model, monkeypatch, counting_rng):
    # 50,000 paths of one threshold: no sampler call draws more than a
    # pass, and the chunks are even.
    made = counted_generators(monkeypatch, counting_rng)
    cfg = SimulationConfig(n_samples=50_000, master_seed=SEED, worker_streams=4)
    estimate_row(model, 10.0, (14.0,), LifeCycle(50.0), cfg, row_seed())
    (rng,) = made
    cap = simulate._PASS_PATHS
    assert rng.calls["exponential"] == math.ceil(cfg.n_samples / cap)
    assert rng.counts["exponential"] == cfg.n_samples
    assert 0 < rng.largest["gamma"] <= cap
    chunks = rng.calls["exponential"]
    assert rng.largest["exponential"] == math.ceil(cfg.n_samples / chunks)


# Each cell of a 30-threshold row against its own one-threshold estimate,
# drawn from another seed sequence: the two are independent with one law.
LAW_N = 4_000


@pytest.fixture(scope="module")
def law_rows(model):
    cfg = SimulationConfig(n_samples=LAW_N, master_seed=SEED)
    life = LifeCycle(50.0)
    Ms = tuple(np.linspace(1.0, 30.0, 30))
    rows = {}

    def row(T):
        if T not in rows:
            seed = np.random.SeedSequence(SEED, spawn_key=(1, int(T)))
            rows[T] = estimate_row(model, T, Ms, life, cfg, seed)
        return rows[T]

    return row, cfg, life


@pytest.mark.parametrize(
    "T, M", [(10.0, 14.0), (15.0, 11.0), (30.0, 15.0), (10.0, 5.0)]
)
def test_row_cells_agree_in_law_with_their_own_tables(model, law_rows, T, M):
    row, cfg, life = law_rows
    cell = row(T).take(row(T).Ms.tolist().index(M))
    seed = np.random.SeedSequence(SEED, spawn_key=(2, int(T), int(M)))
    own = estimate_tables(model, MaintenancePolicy(T, M), life, cfg, seed_sequence=seed)
    first = own.lattice.index_of(T)

    def proportions(tables):
        # Each is the fraction of paths with an event, so binomial.
        return np.array([tables.p_preventive.sum(), tables.p_corrective.sum(),
                         tables.alive_no_replacement[0, first]])

    a, b = proportions(cell), proportions(own)
    se = np.sqrt((a * (1 - a) + b * (1 - b)) / LAW_N)
    assert np.all(se > 0.0)
    z = (a - b) / se
    assert np.all(np.abs(z) <= 3.0), dict(zip(("p_p", "p_c", "alive(T)"), z))
