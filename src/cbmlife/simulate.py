"""Monte Carlo simulation of maintained trajectories.

Threshold crossings are recorded at the first point of a uniform grid of step
delta whose state is at or above the threshold, the same first-grid-point law
as a path advanced step by step on that grid, but without drawing the whole
path.  Each path is drawn only at a skeleton of grid points, the inspection
epochs and the last grid point, by one gamma increment per skeleton interval.
The first grid point at or above each of the three thresholds (M, M_s, L) is
then found by bisecting the skeleton interval that brackets it with the gamma
bridge: given X(a) and X(b), the midpoint m satisfies

    X(m) = X(a) + (X(b) - X(a)) * Beta(alpha*delta*(m - a), alpha*delta*(b - m)).

The thresholds are bisected together in ascending order, and a midpoint drawn
for one threshold is reused by the next when both brackets are the same
interval, so the three crossings belong to one path and keep their joint law.
Time and memory grow with the number of inspections, not with 1/delta; only
the log2(T/delta) bisection levels do.  Crossings stay on the delta-grid, so
they keep its +delta/2 bias.  Shock times are drawn exactly from the
two-regime hazard conditional on the simulated crossing of the shock
threshold, and inspection outcomes (preventive, corrective, censored) follow
from the first-cycle definition of the replacement policy.

The central product is :class:`EstimateTables`: per-inspection replacement
probabilities, joint downtime moments, and the non-renewal (alive, residual
downtime) functions on the evaluation lattice.  Every recursion in
:mod:`cbmlife.renewal` consumes these tables.  Sampling is partitioned into
``worker_streams`` blocks with independent substreams so results are
reproducible bit for bit regardless of the executing thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CacheInvalidError, ConfigurationError, GridCoverageError
from .model import (
    CostStructure,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)

__all__ = [
    "SimulationConfig",
    "ReplacementSample",
    "EstimateTables",
    "simulate_cycle",
    "estimate_tables",
    "chain_cycles",
    "chain_statistics",
    "sample_failure_times",
    "persist_tables",
    "load_tables",
    "tables_digest",
    "eval_times",
]

_EPS = 1e-9
_MAGIC = "CBMLIFE-TABLES"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SimulationConfig:
    """Controls for the Monte Carlo engine.

    ``path_step`` of None selects the default step T/100 of the policy under
    study.  ``worker_streams`` fixes the reproducible partition of samples
    into independent substreams; it is part of the statistical identity of a
    run, unlike the physical thread count.
    """

    n_samples: int = 50_000
    path_step: float | None = None
    eval_grid: tuple[float, ...] | None = None
    master_seed: int = 20_260_824
    worker_streams: int = 4

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be at least 1")
        if self.path_step is not None and not 0.0 < self.path_step < math.inf:
            raise ConfigurationError("path_step must be positive and finite")
        if self.worker_streams < 1:
            raise ConfigurationError("worker_streams must be at least 1")

    def step_for(self, policy: MaintenancePolicy) -> float:
        delta = self.path_step
        if delta is None:
            delta = policy.inspection_period / 100.0
        if delta > policy.inspection_period / 10.0 + _EPS:
            raise ConfigurationError(
                "path_step must not exceed one tenth of the inspection period"
            )
        return delta


@dataclass(frozen=True)
class ReplacementSample:
    """One simulated first renewal cycle.

    ``replacement_time`` is a multiple of the inspection period for replaced
    cycles and equals the life-cycle horizon for censored ones.  Crossing and
    shock times beyond the simulated horizon are None.  ``inspections_count``
    is the number of inspections charged at the inspection cost (the
    replacing inspection itself is folded into the replacement cost).
    """

    replacement_time: float
    kind: str
    failure_time: float | None
    sigma_M: float | None
    sigma_Ms: float | None
    sigma_L: float | None
    shock_time: float | None
    inspections_count: int

    @property
    def downtime(self) -> float:
        if self.kind != "corrective" or self.failure_time is None:
            return 0.0
        return self.replacement_time - self.failure_time


def _key(t: float) -> int:
    """Canonical integer key for a grid time (nanosecond-style rounding)."""
    return int(round(t * 1e9))


def eval_times(policy: MaintenancePolicy, life: LifeCycle) -> np.ndarray:
    """Evaluation lattice: {t_f - j*T/10} down to 0, union inspection epochs.

    Both families are closed under subtracting multiples of T, so every
    recursive lookup t - kT lands back on the lattice.
    """
    T = policy.inspection_period
    tf = life.horizon
    dg = T / 10.0
    points = {0}
    j = 0
    while tf - j * dg > -_EPS:
        points.add(_key(max(tf - j * dg, 0.0)))
        j += 1
    kmax = int(math.floor(tf / T + _EPS))
    for k in range(kmax + 1):
        points.add(_key(k * T))
    return np.array(sorted(points), dtype=np.int64) / 1e9


def _check_simulable(model: SystemModel, policy: MaintenancePolicy) -> None:
    """Reject what the sampler cannot simulate before any path is drawn."""
    if policy.preventive_threshold > model.breakdown_threshold:
        raise ConfigurationError("preventive threshold must not exceed L")
    shocks = type(model.shocks)
    if (shocks.rate is not ShockIntensity.rate
            or shocks.integrated is not ShockIntensity.integrated):
        raise ConfigurationError(
            f"{shocks.__name__} overrides rate or integrated; the sampler draws "
            "shock times from lambda1 and lambda2 only"
        )


def _skeleton(horizon: float, T: float, delta: float) -> np.ndarray:
    """Grid indices at which paths are drawn: 0, the inspection epochs, K."""
    K = int(math.ceil(horizon / delta - _EPS))
    kmax = int(math.floor(horizon / T + _EPS))
    epochs = {int(math.floor(k * T / delta + _EPS)) for k in range(1, kmax + 1)}
    return np.array(sorted({0, K, *(min(j, K) for j in epochs)}), dtype=np.int64)


def _first_crossings(X, grid, levels, shape_step, rng):
    """First grid index at which each path reaches each level, 0 if none.

    ``X`` holds the paths at the skeleton indices ``grid`` (column 0 is the
    origin, X = 0) and ``levels`` is ascending.  Each level's bracketing
    skeleton interval is bisected with gamma-bridge midpoints; a level whose
    bracket is the previous level's takes that level's midpoint, so a point is
    never drawn twice.  Only the previous level needs checking: brackets are
    ordered like their levels, so two equal brackets enclose every level
    between them.  Returns an (len(levels), n) index array.
    """
    n = X.shape[0]
    z = np.asarray(levels, dtype=float)[:, None]
    pos = (X[None, :, :] < z[:, :, None]).sum(axis=2)
    hit = pos < X.shape[1]
    pos = np.minimum(pos, X.shape[1] - 1)
    rows = np.arange(n)
    b, xb = grid[pos], X[rows, pos]
    a, xa = np.where(hit, grid[pos - 1], b), X[rows, pos - 1]
    while True:
        active = b - a > 1
        if not active.any():
            break
        m = (a + b) >> 1
        shared = np.zeros_like(active)
        shared[1:] = active[1:] & (a[1:] == a[:-1]) & (b[1:] == b[:-1])
        draw = np.flatnonzero(active & ~shared)
        lo, mid, hi = a.ravel()[draw], m.ravel()[draw], b.ravel()[draw]
        xm = np.zeros(a.shape)
        x_lo = xa.ravel()[draw]
        xm.flat[draw] = x_lo + (xb.ravel()[draw] - x_lo) * rng.beta(
            shape_step * (mid - lo), shape_step * (hi - mid)
        )
        for i in range(1, len(z)):
            xm[i] = np.where(shared[i], xm[i - 1], xm[i])
        left = active & (xm >= z)
        right = active & ~left
        b, xb = np.where(left, m, b), np.where(left, xm, xb)
        a, xa = np.where(right, m, a), np.where(right, xm, xa)
    return np.where(hit, b, 0)


def _simulate_kernel(model, policy, horizon, delta, n, rng):
    """Vectorized first-cycle simulation of n samples.

    Returns per-sample arrays: replacement inspection index (k_rep),
    corrective flag, censored flag, failure time D, crossing times of M,
    M_s, L, and the shock time Y (np.inf when beyond the horizon).
    """
    alpha = model.degradation.alpha
    beta = model.degradation.beta
    lam1 = model.shocks.lambda1
    lam2 = model.shocks.lambda2
    T = policy.inspection_period

    grid = _skeleton(horizon, T, delta)
    shape_step = alpha * delta
    X = np.zeros((n, len(grid)))
    X[:, 1:] = rng.gamma(shape_step * np.diff(grid), 1.0 / beta, (n, len(grid) - 1))
    np.cumsum(X, axis=1, out=X)
    levels = np.array(
        [policy.preventive_threshold, model.shock_threshold, model.breakdown_threshold]
    )
    order = np.argsort(levels, kind="stable")
    index = np.empty((len(levels), n), dtype=np.int64)
    index[order] = _first_crossings(X, grid, levels[order], shape_step, rng)
    sigma_M, sigma_Ms, sigma_L = np.where(index > 0, index * delta, np.inf)
    del X

    # Exact inverse-transform draw of the shock time given the (grid) time v
    # at which the path enters the high-intensity regime: the cumulative
    # hazard is lam1*t on [0, v] and lam1*v + lam2*(t - v) beyond.
    E = rng.exponential(1.0, n)
    v = np.minimum(sigma_Ms, horizon)
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.where(lam1 > 0.0, E / max(lam1, 1e-300), np.inf)
        above = np.where(lam2 > 0.0, v + (E - lam1 * v) / max(lam2, 1e-300), np.inf)
    Y = np.where(E <= lam1 * v, below, above)
    Y[Y > horizon] = np.inf

    D = np.minimum(sigma_L, Y)
    kmax = int(math.floor(horizon / T + _EPS))
    # A failure in (0, T] is found at the first inspection, however early.
    k_c = np.maximum(np.ceil(D / T - 1e-12), 1.0)
    k_p = np.ceil(sigma_M / T - 1e-12)
    k_c[~np.isfinite(k_c)] = kmax + 1_000_000
    k_p[~np.isfinite(k_p)] = kmax + 1_000_000
    corrective = k_c <= k_p
    k_rep = np.where(corrective, k_c, k_p)
    k_rep = np.minimum(k_rep, kmax + 1).astype(np.int64)
    censored = np.where(corrective, k_c, k_p) > kmax
    return k_rep, corrective, censored, D, sigma_M, sigma_Ms, sigma_L, Y


def _block_accumulate(model, policy, life, delta, n_block, seed_seq, times):
    """Simulate one block and reduce it to table sums (not means)."""
    rng = np.random.default_rng(seed_seq)
    T = policy.inspection_period
    kmax = int(math.floor(life.horizon / T + _EPS))
    k_rep, corrective, censored, D, *_ = _simulate_kernel(
        model, policy, life.horizon, delta, n_block, rng
    )
    # Per inspection k: replacements by kind and the downtime kT - D of
    # corrective ones (k_rep <= kmax exactly when the cycle is not censored).
    k = k_rep[~censored]
    corr = corrective[~censored]
    w = np.where(corr, k * T - D[~censored], 0.0)
    size = kmax + 1
    sums = {
        "p_p": np.bincount(k[~corr], minlength=size).astype(float),
        "p_c": np.bincount(k[corr], minlength=size).astype(float),
        "jw": np.bincount(k, weights=w, minlength=size),
        "jw2": np.bincount(k, weights=w * w, minlength=size),
        "alive": np.zeros(len(times)),
        "resid": np.zeros(len(times)),
        "resid2": np.zeros(len(times)),
        "censored": float(censored.sum()),
    }
    # Per lattice time t, over the cycles not replaced by its last inspection
    # kf: alive at t, and the downtime accrued since max(D, kf T).  The times
    # sharing one kf are reduced together.
    kf_of = np.minimum(np.floor(times / T + _EPS).astype(np.int64), kmax)
    for kf in range(kmax + 1):
        cols = np.flatnonzero(kf_of == kf)
        t = times[cols]
        D_open = D[k_rep > kf]
        sums["alive"][cols] = (D_open[:, None] > t).sum(axis=0)
        down = np.maximum(0.0, t - np.maximum(D_open, kf * T)[:, None])
        sums["resid"][cols] = down.sum(axis=0)
        sums["resid2"][cols] = (down * down).sum(axis=0)
    return sums


@dataclass(eq=False)
class EstimateTables:
    """Monte Carlo estimates feeding the Markov renewal recursions.

    Arrays prefixed ``b`` hold one row per worker block; pooled estimates are
    sample-size-weighted means across blocks.  Downtime moments are stored
    cost-free (time units); the recursion base cases are recovered by
    scaling with the downtime cost rate.
    """

    T: float
    M: float
    horizon: float
    delta: float
    n: int
    master_seed: int
    worker_streams: int
    digest: str
    times: np.ndarray
    block_sizes: np.ndarray
    bp_p: np.ndarray
    bp_c: np.ndarray
    bjw: np.ndarray
    bjw2: np.ndarray
    balive: np.ndarray
    bresid: np.ndarray
    bresid2: np.ndarray
    bcensored: np.ndarray
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {_key(t): i for i, t in enumerate(self.times)}

    # -- pooled estimates -------------------------------------------------
    def _pool(self, blocks: np.ndarray) -> np.ndarray:
        return blocks.sum(axis=0) / self.n

    @cached_property
    def p_preventive(self) -> np.ndarray:
        return self._pool(self.bp_p)

    @cached_property
    def p_corrective(self) -> np.ndarray:
        return self._pool(self.bp_c)

    @cached_property
    def joint_downtime(self) -> np.ndarray:
        return self._pool(self.bjw)

    @cached_property
    def joint_downtime_sq(self) -> np.ndarray:
        return self._pool(self.bjw2)

    @cached_property
    def alive_no_replacement(self) -> np.ndarray:
        return self._pool(self.balive)

    @cached_property
    def residual_downtime(self) -> np.ndarray:
        return self._pool(self.bresid)

    @cached_property
    def residual_downtime_sq(self) -> np.ndarray:
        return self._pool(self.bresid2)

    @cached_property
    def censored_fraction(self) -> float:
        return float(self.bcensored.sum()) / self.n

    # -- structure ---------------------------------------------------------
    @property
    def kmax(self) -> int:
        return self.bp_p.shape[1] - 1

    def index_of(self, t: float) -> int:
        try:
            return self._index[_key(t)]
        except KeyError:
            raise GridCoverageError(
                f"time {t} is not on the evaluation grid (T={self.T})"
            ) from None

    def base_cost(self, t: float, costs: CostStructure) -> float:
        """Recursion base case E[C(t)] for t < T: downtime cost only."""
        if not t < self.T + _EPS:
            raise GridCoverageError("base_cost is defined for t < T only")
        return costs.downtime_rate * self.residual_downtime[self.index_of(t)]

    def base_cost_sq(self, t: float, costs: CostStructure) -> float:
        if not t < self.T + _EPS:
            raise GridCoverageError("base_cost_sq is defined for t < T only")
        return costs.downtime_rate**2 * self.residual_downtime_sq[self.index_of(t)]

    def block_view(self, b: int) -> "EstimateTables":
        """Single-block tables, used for batch-means standard errors."""
        return EstimateTables(
            T=self.T,
            M=self.M,
            horizon=self.horizon,
            delta=self.delta,
            n=int(self.block_sizes[b]),
            master_seed=self.master_seed,
            worker_streams=1,
            digest=f"{self.digest}:block{b}",
            times=self.times,
            block_sizes=self.block_sizes[b : b + 1],
            bp_p=self.bp_p[b : b + 1],
            bp_c=self.bp_c[b : b + 1],
            bjw=self.bjw[b : b + 1],
            bjw2=self.bjw2[b : b + 1],
            balive=self.balive[b : b + 1],
            bresid=self.bresid[b : b + 1],
            bresid2=self.bresid2[b : b + 1],
            bcensored=self.bcensored[b : b + 1],
        )

    def validate(self) -> None:
        total = self.p_preventive.sum() + self.p_corrective.sum()
        if total > 1.0 + 1e-12:
            raise ConfigurationError("replacement probabilities exceed one")
        for arr in (self.p_preventive, self.p_corrective, self.alive_no_replacement):
            if (arr < -1e-15).any() or (arr > 1.0 + 1e-12).any():
                raise ConfigurationError("probability entry outside [0, 1]")
        for arr in (
            self.joint_downtime,
            self.joint_downtime_sq,
            self.residual_downtime,
            self.residual_downtime_sq,
        ):
            if (arr < -1e-15).any():
                raise ConfigurationError("negative downtime moment")
        if abs(self.alive_no_replacement[self.index_of(0.0)] - 1.0) > 1e-12:
            raise ConfigurationError("alive_no_replacement(0) must be 1")

    def equals(self, other: "EstimateTables") -> bool:
        if not isinstance(other, EstimateTables):
            return False
        scalars = ("T", "M", "horizon", "delta", "n", "master_seed",
                   "worker_streams", "digest")
        if any(getattr(self, f) != getattr(other, f) for f in scalars):
            return False
        arrays = ("times", "block_sizes", "bp_p", "bp_c", "bjw", "bjw2",
                  "balive", "bresid", "bresid2", "bcensored")
        return all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in arrays
        )


def tables_digest(model, policy, life, cfg, delta: float) -> str:
    payload = {
        "format": _FORMAT_VERSION,
        "alpha": model.degradation.alpha,
        "beta": model.degradation.beta,
        "lambda1": model.shocks.lambda1,
        "lambda2": model.shocks.lambda2,
        "L": model.breakdown_threshold,
        "Ms": model.shock_threshold,
        "T": policy.inspection_period,
        "M": policy.preventive_threshold,
        "tf": life.horizon,
        "n": cfg.n_samples,
        "delta": delta,
        "seed": cfg.master_seed,
        "streams": cfg.worker_streams,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _block_split(n: int, streams: int) -> np.ndarray:
    base, extra = divmod(n, streams)
    return np.array([base + (1 if i < extra else 0) for i in range(streams)])


def estimate_tables(
    model: SystemModel,
    policy: MaintenancePolicy,
    life: LifeCycle,
    cfg: SimulationConfig,
    threads: int = 1,
    seed_sequence: np.random.SeedSequence | None = None,
) -> EstimateTables:
    """Estimate all recursion inputs from cfg.n_samples first cycles.

    The output is a pure function of (model, policy, life, cfg); the thread
    count only affects wall-clock time.
    """
    _check_simulable(model, policy)
    delta = cfg.step_for(policy)
    times = eval_times(policy, life)
    if cfg.eval_grid is not None:
        keys = {_key(t) for t in times}
        missing = [t for t in cfg.eval_grid if _key(t) not in keys]
        if missing:
            raise GridCoverageError(f"eval_grid points off the lattice: {missing}")
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(cfg.master_seed)
    children = seed_sequence.spawn(cfg.worker_streams)
    sizes = _block_split(cfg.n_samples, cfg.worker_streams)

    def work(args):
        n_block, child = args
        if n_block == 0:
            return None
        return _block_accumulate(model, policy, life, delta, n_block, child, times)

    jobs = list(zip(sizes.tolist(), children))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]

    B = cfg.worker_streams
    kmax = int(math.floor(life.horizon / policy.inspection_period + _EPS))
    shape_k = (B, kmax + 1)
    shape_t = (B, len(times))
    arrays = {
        "bp_p": np.zeros(shape_k), "bp_c": np.zeros(shape_k),
        "bjw": np.zeros(shape_k), "bjw2": np.zeros(shape_k),
        "balive": np.zeros(shape_t), "bresid": np.zeros(shape_t),
        "bresid2": np.zeros(shape_t), "bcensored": np.zeros(B),
    }
    for b, sums in enumerate(results):
        if sums is None:
            continue
        arrays["bp_p"][b] = sums["p_p"]
        arrays["bp_c"][b] = sums["p_c"]
        arrays["bjw"][b] = sums["jw"]
        arrays["bjw2"][b] = sums["jw2"]
        arrays["balive"][b] = sums["alive"]
        arrays["bresid"][b] = sums["resid"]
        arrays["bresid2"][b] = sums["resid2"]
        arrays["bcensored"][b] = sums["censored"]

    tables = EstimateTables(
        T=policy.inspection_period,
        M=policy.preventive_threshold,
        horizon=life.horizon,
        delta=delta,
        n=cfg.n_samples,
        master_seed=cfg.master_seed,
        worker_streams=cfg.worker_streams,
        digest=tables_digest(model, policy, life, cfg, delta),
        times=times,
        block_sizes=sizes,
        **arrays,
    )
    tables.validate()
    return tables


def simulate_cycle(
    model: SystemModel,
    policy: MaintenancePolicy,
    life: LifeCycle,
    cfg: SimulationConfig,
    rng_stream,
) -> ReplacementSample:
    """Simulate one first renewal cycle and classify its outcome."""
    _check_simulable(model, policy)
    delta = cfg.step_for(policy)
    k_rep, corrective, censored, D, sM, sMs, sL, Y = _simulate_kernel(
        model, policy, life.horizon, delta, 1, rng_stream
    )
    T = policy.inspection_period
    kmax = int(math.floor(life.horizon / T + _EPS))

    def opt(x):
        return float(x) if np.isfinite(x) else None

    if censored[0]:
        return ReplacementSample(
            replacement_time=life.horizon,
            kind="censored",
            failure_time=opt(D[0]),
            sigma_M=opt(sM[0]),
            sigma_Ms=opt(sMs[0]),
            sigma_L=opt(sL[0]),
            shock_time=opt(Y[0]),
            inspections_count=kmax,
        )
    k = int(k_rep[0])
    kind = "corrective" if corrective[0] else "preventive"
    return ReplacementSample(
        replacement_time=k * T,
        kind=kind,
        failure_time=float(D[0]) if kind == "corrective" else None,
        sigma_M=opt(sM[0]),
        sigma_Ms=opt(sMs[0]),
        sigma_L=opt(sL[0]),
        shock_time=opt(Y[0]),
        inspections_count=k - 1,
    )


def chain_cycles(
    model: SystemModel,
    policy: MaintenancePolicy,
    costs: CostStructure,
    life: LifeCycle,
    cfg: SimulationConfig,
    rng_stream,
) -> tuple[list[ReplacementSample], float]:
    """One chained realization over the whole life cycle.

    Cycles restart after each replacement; the final (censored) cycle is
    charged its inspections and any terminal downtime up to the horizon.
    """
    T = policy.inspection_period
    tf = life.horizon
    clock = 0.0
    total = 0.0
    samples: list[ReplacementSample] = []
    while clock < tf - _EPS:
        sample = simulate_cycle(model, policy, life, cfg, rng_stream)
        remaining = tf - clock
        k_limit = int(math.floor(remaining / T + _EPS))
        replaced = (
            sample.kind != "censored"
            and sample.replacement_time <= k_limit * T + _EPS
        )
        if replaced:
            k = int(round(sample.replacement_time / T))
            rep_cost = (
                costs.corrective if sample.kind == "corrective" else costs.preventive
            )
            total += rep_cost + costs.inspection * (k - 1)
            total += costs.downtime_rate * sample.downtime
            samples.append(sample)
            clock += sample.replacement_time
        else:
            total += costs.inspection * k_limit
            if sample.failure_time is not None and sample.failure_time < remaining:
                total += costs.downtime_rate * (remaining - sample.failure_time)
            samples.append(
                ReplacementSample(
                    replacement_time=remaining,
                    kind="censored",
                    failure_time=sample.failure_time,
                    sigma_M=sample.sigma_M,
                    sigma_Ms=sample.sigma_Ms,
                    sigma_L=sample.sigma_L,
                    shock_time=sample.shock_time,
                    inspections_count=k_limit,
                )
            )
            break
    return samples, total


def _chain_block(model, policy, costs, life, delta, n_block, seed_seq):
    """Vectorized chained realizations for one block."""
    rng = np.random.default_rng(seed_seq)
    T = policy.inspection_period
    tf = life.horizon
    clock = np.zeros(n_block)
    active = np.ones(n_block, dtype=bool)
    counts = np.zeros(n_block)
    total = np.zeros(n_block)
    while active.any():
        na = int(active.sum())
        k_rep, corrective, censored, D, *_ = _simulate_kernel(
            model, policy, tf, delta, na, rng
        )
        remaining = tf - clock[active]
        k_limit = np.floor(remaining / T + _EPS).astype(np.int64)
        replaced = (k_rep <= k_limit) & ~censored
        rep_time = k_rep * T
        downtime = np.where(
            corrective & replaced, np.maximum(0.0, rep_time - D), 0.0
        )
        cycle_cost = np.where(
            replaced,
            np.where(corrective, costs.corrective, costs.preventive)
            + costs.inspection * (k_rep - 1)
            + costs.downtime_rate * downtime,
            0.0,
        )
        terminal_down = np.where(
            ~replaced & (D < remaining),
            np.maximum(0.0, remaining - np.maximum(D, k_limit * T)),
            0.0,
        )
        cycle_cost += np.where(
            ~replaced,
            costs.inspection * k_limit + costs.downtime_rate * terminal_down,
            0.0,
        )
        idx = np.where(active)[0]
        total[idx] += cycle_cost
        counts[idx] += replaced
        clock[idx[replaced]] += rep_time[replaced]
        active[idx[~replaced]] = False
        still = idx[replaced]
        active[still] = clock[still] < tf - _EPS
    return counts, total


def chain_statistics(
    model: SystemModel,
    policy: MaintenancePolicy,
    costs: CostStructure,
    life: LifeCycle,
    cfg: SimulationConfig,
    threads: int = 1,
    seed_sequence: np.random.SeedSequence | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chained (strict Monte Carlo) realizations for all samples.

    Returns the per-realization count of completed renewal cycles and the
    per-realization total cost over the life cycle.
    """
    _check_simulable(model, policy)
    delta = cfg.step_for(policy)
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(cfg.master_seed)
    children = seed_sequence.spawn(cfg.worker_streams)
    sizes = _block_split(cfg.n_samples, cfg.worker_streams)

    def work(args):
        n_block, child = args
        if n_block == 0:
            return np.zeros(0), np.zeros(0)
        return _chain_block(model, policy, costs, life, delta, n_block, child)

    jobs = list(zip(sizes.tolist(), children))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]
    counts = np.concatenate([r[0] for r in results])
    total = np.concatenate([r[1] for r in results])
    return counts, total


def sample_failure_times(
    model: SystemModel,
    n: int,
    delta: float,
    horizon: float,
    master_seed: int = 20_260_824,
) -> tuple[np.ndarray, np.ndarray]:
    """Unmaintained failure draws: (sigma_L, Y), np.inf beyond the horizon."""
    if not (0.0 < delta < math.inf and 0.0 < horizon < math.inf):
        raise ConfigurationError("delta and horizon must be positive and finite")
    policy = MaintenancePolicy(
        inspection_period=horizon, preventive_threshold=model.breakdown_threshold
    )
    _check_simulable(model, policy)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    *_, sigma_L, Y = _simulate_kernel(model, policy, horizon, delta, n, rng)
    return sigma_L, Y


# -- persistence -----------------------------------------------------------

def persist_tables(tables: EstimateTables, path) -> None:
    """Write tables to a versioned npz container keyed by the config digest."""
    with open(path, "wb") as fh:
        np.savez(
            fh,
            magic=np.array(_MAGIC),
            version=np.array(_FORMAT_VERSION),
            digest=np.array(tables.digest),
            T=np.array(tables.T),
            M=np.array(tables.M),
            horizon=np.array(tables.horizon),
            delta=np.array(tables.delta),
            n=np.array(tables.n),
            master_seed=np.array(tables.master_seed),
            worker_streams=np.array(tables.worker_streams),
            times=tables.times,
            block_sizes=tables.block_sizes,
            bp_p=tables.bp_p,
            bp_c=tables.bp_c,
            bjw=tables.bjw,
            bjw2=tables.bjw2,
            balive=tables.balive,
            bresid=tables.bresid,
            bresid2=tables.bresid2,
            bcensored=tables.bcensored,
        )


def load_tables(path, expected_digest: str | None = None) -> EstimateTables:
    """Read a persisted table file, validating magic, version, and digest."""
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _MAGIC:
            raise CacheInvalidError("not a table cache file (bad magic)")
        if int(data["version"]) != _FORMAT_VERSION:
            raise CacheInvalidError("unsupported table cache version")
        digest = str(data["digest"])
        if expected_digest is not None and digest != expected_digest:
            raise CacheInvalidError("table cache digest mismatch (stale cache)")
        return EstimateTables(
            T=float(data["T"]),
            M=float(data["M"]),
            horizon=float(data["horizon"]),
            delta=float(data["delta"]),
            n=int(data["n"]),
            master_seed=int(data["master_seed"]),
            worker_streams=int(data["worker_streams"]),
            digest=digest,
            times=data["times"],
            block_sizes=data["block_sizes"],
            bp_p=data["bp_p"],
            bp_c=data["bp_c"],
            bjw=data["bjw"],
            bjw2=data["bjw2"],
            balive=data["balive"],
            bresid=data["bresid"],
            bresid2=data["bresid2"],
            bcensored=data["bcensored"],
        )
