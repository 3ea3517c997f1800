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

:func:`estimate_row` serves every threshold M of one inspection period.  It
simulates the blocks of all its table sets together, in passes of at most
``_PASS_PATHS`` paths (a larger block runs alone), which removes the fixed
cost of a sampler call per block.  Within a pass each block keeps its own
generator and draws what it would draw alone, in the same order, and each
table sum is one ``np.bincount`` over (block, bin), which adds a block's
paths in path order.  Every table set therefore equals bit for bit the
:func:`estimate_tables` result of its policy and seed sequence, whatever
else the pass holds.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
    "estimate_row",
    "chain_cycles",
    "chain_statistics",
    "sample_failure_times",
    "persist_tables",
    "load_tables",
    "tables_digest",
    "eval_times",
]

_EPS = 1e-9
# Paths simulated together in one sampler pass.  A pass holds about 400
# bytes a path (bisection state, bridge draws and reduction temporaries) plus
# 8 bytes a skeleton point while the paths are drawn, so the cap bounds its
# memory; a larger block runs alone in its own pass.
_PASS_PATHS = 2048
# Skeleton points (paths times skeleton indices) drawn at once: a long
# horizon has many inspection epochs, and its skeleton would otherwise
# outweigh the rest of a pass.
_SKELETON_POINTS = 16_384
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


def _first_crossings(grid, levels, shape_step, scale, rngs, sizes):
    """Draw the streams' paths and find where each path first reaches each level.

    Stream s has ``sizes[s]`` paths, drawn from ``rngs[s]`` at the skeleton
    grid indices ``grid`` by one gamma increment per interval; its paths
    follow those of stream s - 1.  ``levels`` is (3, n) with each path's
    levels ascending.  Each level's bracketing skeleton interval is bisected
    with gamma-bridge midpoints; a level whose bracket is the previous
    level's takes that level's midpoint, so a point is never drawn twice.
    Only the previous level needs checking: brackets are ordered like their
    levels, so two equal brackets enclose every level between them.  Returns
    the (3, n) first grid indices, 0 where a path stays below a level.
    """
    # The skeleton is drawn and reduced to the brackets of the levels a group
    # of whole streams at a time, each group at most _SKELETON_POINTS points.
    a, b = np.empty(levels.shape, dtype=np.int64), np.empty(levels.shape, dtype=np.int64)
    xa, xb = np.empty(levels.shape), np.empty(levels.shape)
    hit = np.empty(levels.shape, dtype=bool)
    shapes = shape_step * np.diff(grid)
    starts = np.cumsum(sizes) - sizes
    for group in _passes(sizes, _SKELETON_POINTS // len(grid)):
        paths = slice(starts[group[0]], starts[group[-1]] + sizes[group[-1]])
        X = np.zeros((paths.stop - paths.start, len(grid)))
        np.concatenate(
            [rngs[s].gamma(shapes, scale, (sizes[s], len(grid) - 1)) for s in group],
            out=X[:, 1:],
        )
        np.cumsum(X, axis=1, out=X)
        pos = (X[None, :, :] < levels[:, paths, None]).sum(axis=2)
        hit[:, paths] = pos < len(grid)
        np.minimum(pos, len(grid) - 1, out=pos)
        rows = np.arange(len(X))
        b[:, paths], xb[:, paths] = grid[pos], X[rows, pos]
        a[:, paths], xa[:, paths] = grid[pos - 1], X[rows, pos - 1]
    np.copyto(a, b, where=~hit)
    stream = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    # Flat views of the (level, path) state, level-major.
    fa, fb, fxa, fxb = (v.ravel() for v in (a, b, xa, xb))
    owner = np.tile(stream, len(levels))
    m, xm = np.empty_like(a), np.zeros_like(xa)
    fm, fxm = m.ravel(), xm.ravel()
    shared = np.zeros(a.shape, dtype=bool)
    while True:
        active = b - a > 1
        if not active.any():
            break
        np.add(a, b, out=m)
        m >>= 1
        np.logical_and(active[1:], a[1:] == a[:-1], out=shared[1:])
        shared[1:] &= b[1:] == b[:-1]
        draw = np.flatnonzero(active & ~shared)
        who = owner[draw]
        if len(rngs) > 1:
            draw = draw[np.argsort(who, kind="stable")]
        fxm[draw] = _bridge(draw, who, rngs, shape_step, fa, fm, fb, fxa, fxb)
        for i in range(1, len(levels)):
            copy = np.flatnonzero(shared[i])
            xm[i, copy] = xm[i - 1, copy]
        left = active & (xm >= levels)
        active &= ~left
        for end, x_end, side in ((fb, fxb, left), (fa, fxa, active)):
            moved = np.flatnonzero(side)
            end[moved] = fm[moved]
            x_end[moved] = fxm[moved]
    return np.where(hit, b, 0)


def _bridge(draw, who, rngs, shape_step, a, m, b, xa, xb):
    """Gamma-bridge values at the midpoints m[draw] of the brackets [a, b].

    ``draw`` is grouped by the stream ``who`` of each point, and stream s
    draws its points' beta variates from ``rngs[s]`` in one call, in the
    order of ``draw``.
    """
    mid = m[draw]
    p = shape_step * (mid - a[draw])
    q = shape_step * (b[draw] - mid)
    del mid
    ends = np.cumsum(np.bincount(who, minlength=len(rngs))).tolist()
    for s, (i, j) in enumerate(zip([0, *ends], ends)):
        if j > i:
            p[i:j] = rngs[s].beta(p[i:j], q[i:j])
    x_lo = np.take(xa, draw)
    x = np.take(xb, draw, out=q)
    x -= x_lo
    x *= p
    x += x_lo
    return x


def _simulate_kernel(model, T, horizon, delta, Ms, sizes, rngs):
    """Vectorized first-cycle simulation of several streams in one pass.

    Stream s has ``sizes[s]`` paths, preventive threshold ``Ms[s]`` and
    generator ``rngs[s]``; its paths follow those of stream s - 1.  Each
    stream draws exactly what it would draw alone, in the same order: its
    skeleton increments, its bridge midpoints round by round, then its
    exponentials.  Returns per-path arrays: replacement inspection index
    (k_rep), corrective flag, censored flag, failure time D, crossing times
    of M, M_s, L, and the shock time Y (np.inf when beyond the horizon).
    """
    alpha = model.degradation.alpha
    beta = model.degradation.beta
    lam1 = model.shocks.lambda1
    lam2 = model.shocks.lambda2

    # Each stream's thresholds in ascending order, and the rank of each
    # threshold (M, M_s, L) in that order.
    thresholds = np.column_stack([
        np.asarray(Ms, dtype=float),
        np.full(len(sizes), model.shock_threshold),
        np.full(len(sizes), model.breakdown_threshold),
    ])
    order = np.argsort(thresholds, axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    index = np.take_along_axis(
        _first_crossings(
            _skeleton(horizon, T, delta),
            np.repeat(np.take_along_axis(thresholds, order, axis=1).T, sizes, axis=1),
            alpha * delta, 1.0 / beta, rngs, sizes,
        ),
        np.repeat(rank.T, sizes, axis=1),
        axis=0,
    )
    sigma_M, sigma_Ms, sigma_L = np.where(index > 0, index * delta, np.inf)
    del index

    # Exact inverse-transform draw of the shock time given the (grid) time v
    # at which the path enters the high-intensity regime: the cumulative
    # hazard is lam1*t on [0, v] and lam1*v + lam2*(t - v) beyond.
    E = np.concatenate([rng.exponential(1.0, size) for rng, size in zip(rngs, sizes)])
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


def _table(index, rows, cols, weights=None):
    """Counts (or sums of weights) of flat bin indices, as a rows x cols table."""
    return np.bincount(index, weights, minlength=rows * cols).reshape(rows, cols)


def _block_accumulate(model, T, life, delta, Ms, sizes, seed_seqs, times):
    """Simulate several streams in one pass and reduce each to table sums.

    Every returned array has one row per stream.  Each sum is one
    ``np.bincount`` over (stream, bin), which adds a stream's paths in path
    order, so a stream's row does not depend on the other streams.
    """
    rngs = [np.random.default_rng(seq) for seq in seed_seqs]
    kmax = int(math.floor(life.horizon / T + _EPS))
    k_rep, corrective, censored, D, *_ = _simulate_kernel(
        model, T, life.horizon, delta, Ms, sizes, rngs
    )
    S = len(sizes)
    stream = np.repeat(np.arange(S), sizes)
    # Per inspection k: replacements by kind and the downtime kT - D of
    # corrective ones (k_rep <= kmax exactly when the cycle is not censored).
    k = k_rep[~censored]
    corr = corrective[~censored]
    w = np.where(corr, k * T - D[~censored], 0.0)
    size = kmax + 1
    cell = stream[~censored] * size + k
    sums = {
        "p_p": _table(cell[~corr], S, size).astype(float),
        "p_c": _table(cell[corr], S, size).astype(float),
        "jw": _table(cell, S, size, w),
        "jw2": _table(cell, S, size, w * w),
        "alive": np.zeros((S, len(times))),
        "resid": np.zeros((S, len(times))),
        "resid2": np.zeros((S, len(times))),
        "censored": np.bincount(stream[censored], minlength=S).astype(float),
    }
    # Per lattice time t, over the cycles not replaced by its last inspection
    # kf: alive at t, and the downtime accrued since max(D, kf T).  The times
    # sharing one kf are reduced together.
    kf_of = np.minimum(np.floor(times / T + _EPS).astype(np.int64), kmax)
    for kf in range(kmax + 1):
        cols = np.flatnonzero(kf_of == kf)
        t = times[cols]
        nc = len(cols)
        open_ = np.flatnonzero(k_rep > kf)
        D_open = D[open_]
        bins = (stream[open_] * nc)[:, None] + np.arange(nc)
        down = np.subtract(t, np.maximum(D_open, kf * T)[:, None])
        np.maximum(down, 0.0, out=down)
        sums["alive"][:, cols] = _table(bins[D_open[:, None] > t], S, nc)
        sums["resid"][:, cols] = _table(bins.ravel(), S, nc, down.ravel())
        np.square(down, out=down)
        sums["resid2"][:, cols] = _table(bins.ravel(), S, nc, down.ravel())
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

    @cached_property
    def _keys(self) -> np.ndarray:
        return np.round(self.times * 1e9).astype(np.int64)

    def indices_of(self, ts: np.ndarray) -> np.ndarray:
        """Lattice index of each finite time in ts, -1 where it is off the lattice.

        A time matches a lattice key within one unit: a lattice time is
        rounded to its key, so t + s or t - T may round one key away.
        """
        keys = np.round(np.asarray(ts, dtype=float) * 1e9).astype(np.int64)
        hi = np.clip(np.searchsorted(self._keys, keys), 1, len(self._keys) - 1)
        near = np.where(keys - self._keys[hi - 1] < self._keys[hi] - keys, hi - 1, hi)
        return np.where(np.abs(self._keys[near] - keys) <= 1, near, -1)

    def index_of(self, t: float) -> int:
        if not math.isfinite(t):
            raise GridCoverageError(f"time {t} is not finite")
        i = int(self.indices_of(t))
        if i < 0:
            raise GridCoverageError(
                f"time {t} is not on the evaluation grid (T={self.T})"
            )
        return i

    @cached_property
    def chains(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and level of each lattice time in its chain t, t - T, t - 2T, ...

        The level is floor(t/T + eps).  A row holds the times whose residues
        t - level*T agree to within 2e-9, the rounding of two lattice keys
        of 1e-9 each.  Every recursion steps down a row one level at a time,
        so each row must hold exactly the levels 0..top: GridCoverageError
        otherwise.
        """
        level = np.floor(self.times / self.T + _EPS).astype(np.int64)
        residue = self.times - level * self.T
        order = np.argsort(residue, kind="stable")
        row = np.empty_like(level)
        row[order] = np.cumsum(np.diff(residue[order], prepend=residue[order[0]]) > 2e-9)
        slots = np.full((row.max() + 1, level.max() + 1), -1)
        slots[row, level] = np.arange(len(level))
        if (slots[row, level] != np.arange(len(level))).any() or (
            (slots[:, :-1] < 0) & (slots[:, 1:] >= 0)
        ).any():
            raise GridCoverageError(
                f"the evaluation lattice is not closed under t -> t - T (T={self.T})"
            )
        return row, level

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


def _passes(sizes, cap: int) -> list[list[int]]:
    """Stream indices grouped, in order, into passes of at most cap paths.

    Empty streams are left out; a stream larger than the cap runs alone.
    """
    passes: list[list[int]] = []
    total = 0
    for s, size in enumerate(sizes):
        if size == 0:
            continue
        if not passes or total + size > cap:
            passes.append([])
            total = 0
        passes[-1].append(s)
        total += size
    return passes


def estimate_row(
    model: SystemModel,
    T: float,
    Ms,
    life: LifeCycle,
    cfg: SimulationConfig,
    seed_sequences,
    threads: int = 1,
) -> Iterator[EstimateTables]:
    """Tables of the policies (T, M) for every M in Ms, simulated together.

    Policy j splits cfg.n_samples into ``worker_streams`` blocks whose
    substreams are spawned from ``seed_sequences[j]``.  The blocks of all
    policies are simulated in passes of up to _PASS_PATHS paths; every block
    draws and sums exactly what it would alone, so each table set equals
    ``estimate_tables`` of its policy with the same seed sequence, whatever
    the other policies, their order or the thread count.  The policies are
    checked and the substreams spawned at the call; the table sets are
    yielded in the order of Ms, each once its blocks are simulated.
    """
    policies = [
        MaintenancePolicy(inspection_period=T, preventive_threshold=M) for M in Ms
    ]
    for policy in policies:
        _check_simulable(model, policy)
    if len(seed_sequences) != len(policies):
        raise ConfigurationError("estimate_row needs one seed sequence per threshold")
    if not policies:
        return iter(())
    delta = cfg.step_for(policies[0])
    seqs = [child for seq in seed_sequences for child in seq.spawn(cfg.worker_streams)]
    return _row_tables(model, policies, life, cfg, delta, seqs, threads)


def _row_tables(model, policies, life, cfg, delta, seqs, threads):
    """The generator behind estimate_row: simulate the passes, yield table sets."""
    T = policies[0].inspection_period
    times = eval_times(policies[0], life)
    B = cfg.worker_streams
    block = _block_split(cfg.n_samples, B)
    last_block = int(np.flatnonzero(block)[-1])
    sizes = np.tile(block, len(policies))
    thresholds = np.repeat([p.preventive_threshold for p in policies], B)

    def work(streams):
        return streams, _block_accumulate(
            model, T, life, delta, thresholds[streams], sizes[streams],
            [seqs[s] for s in streams], times,
        )

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        passes = _passes(sizes, _PASS_PATHS)
        results = map(work, passes) if pool is None else pool.map(work, passes)
        blocks: dict[int, dict[str, np.ndarray]] = {}
        done = 0
        for streams, sums in results:
            for i, s in enumerate(streams):
                j, b = divmod(s, B)
                if j not in blocks:  # empty blocks keep their zero rows
                    blocks[j] = {
                        name: np.zeros((B, *value.shape[1:]))
                        for name, value in sums.items()
                    }
                for name, array in blocks[j].items():
                    array[b] = sums[name][i]
            # Policies are simulated in order: every one whose last block
            # is simulated is complete.
            while done < len(policies) and done * B + last_block <= streams[-1]:
                policy, arrays = policies[done], blocks.pop(done)
                tables = EstimateTables(
                    T=T,
                    M=policy.preventive_threshold,
                    horizon=life.horizon,
                    delta=delta,
                    n=cfg.n_samples,
                    master_seed=cfg.master_seed,
                    worker_streams=B,
                    digest=tables_digest(model, policy, life, cfg, delta),
                    times=times,
                    block_sizes=block,
                    **{"b" + name: array for name, array in arrays.items()},
                )
                tables.validate()
                yield tables
                done += 1
    finally:
        if pool is not None:
            pool.shutdown()


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
    count only affects wall-clock time.  It is the one-policy case of
    :func:`estimate_row`.
    """
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(cfg.master_seed)
    (tables,) = estimate_row(
        model, policy.inspection_period, [policy.preventive_threshold], life, cfg,
        [seed_sequence], threads,
    )
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
    T = policy.inspection_period
    k_rep, corrective, censored, D, sM, sMs, sL, Y = _simulate_kernel(
        model, T, life.horizon, delta, [policy.preventive_threshold], [1], [rng_stream]
    )
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
            model, T, tf, delta, [policy.preventive_threshold], [na], [rng]
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
    *_, sigma_L, Y = _simulate_kernel(
        model, horizon, horizon, delta, [model.breakdown_threshold], [n], [rng]
    )
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
