"""Monte Carlo simulation of maintained trajectories.

Threshold crossings are recorded at the first point of a uniform grid of step
delta whose state is at or above the threshold, the same first-grid-point law
as a path advanced step by step on that grid, but without drawing the whole
path.  Each path is drawn only at a skeleton of grid points, the inspection
epochs and the last grid point, by one gamma increment per skeleton interval.
The skeleton alone gives the inspection k_p that first finds the path at or
above the preventive threshold M, so M is never bisected.  The first grid
point at or above M_s and at or above L is found by bisecting the skeleton
interval that brackets it with the gamma bridge: given X(a) and X(b), the
midpoint m satisfies

    X(m) = X(a) + (X(b) - X(a)) * Beta(alpha*delta*(m - a), alpha*delta*(b - m)).

Only the crossings a cycle's outcome reads are bisected: those whose bracket
opens before end = min(k_p T, horizon).  A skipped crossing of L lies past
end, and so does any failure it causes; past a skipped crossing of M_s the
shock time is drawn as if M_s were never reached, which changes it only
where it already lies past end.  Every failure time up to end is therefore
the path's own, and no table (nor a strict Monte Carlo cycle) reads a later
one.  M_s and L are bisected together in ascending order, and a midpoint
drawn for one is reused by the other when both brackets are the same
interval, so the two crossings belong to one path and keep their joint law.
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

from .errors import ConfigurationError, GridCoverageError
from .model import (
    CostStructure,
    LifeCycle,
    MaintenancePolicy,
    SystemModel,
)

__all__ = [
    "SimulationConfig",
    "EstimateTables",
    "Lattice",
    "estimate_tables",
    "estimate_row",
    "chain_statistics",
    "tables_digest",
    "eval_times",
]

_EPS = 1e-9
# Paths simulated together in one sampler pass.  A pass holds about 400
# bytes a path (bisection state, bridge draws and reduction temporaries), so
# the cap bounds its memory; a larger block runs alone in its own pass.
_PASS_PATHS = 2048
# Skeleton points (paths times skeleton indices) drawn at once, whatever the
# pass size: a long horizon has many inspection epochs, and its skeleton
# would otherwise outweigh the rest of a pass.
_SKELETON_POINTS = 16_384


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
        if self.master_seed < 0:
            raise ConfigurationError(
                f"master_seed must be nonnegative, not {self.master_seed}"
            )

    def step_for(self, policy: MaintenancePolicy) -> float:
        delta = self.path_step
        if delta is None:
            delta = policy.inspection_period / 100.0
        if delta > policy.inspection_period / 10.0 + _EPS:
            raise ConfigurationError(
                "path_step must not exceed one tenth of the inspection period"
            )
        return delta


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
    """Reject a preventive threshold above L before any path is drawn."""
    if policy.preventive_threshold > model.breakdown_threshold:
        raise ConfigurationError("preventive threshold must not exceed L")


def _skeleton(horizon: float, T: float, delta: float) -> np.ndarray:
    """Grid indices at which paths are drawn: 0, the inspection epochs, K."""
    K = int(math.ceil(horizon / delta - _EPS))
    kmax = int(math.floor(horizon / T + _EPS))
    epochs = {int(math.floor(k * T / delta + _EPS)) for k in range(1, kmax + 1)}
    return np.array(sorted({0, K, *(min(j, K) for j in epochs)}), dtype=np.int64)


def _brackets(grid, levels, shape_step, scale, rngs, sizes):
    """Draw the streams' paths at the skeleton and bracket every level on each.

    Stream s has ``sizes[s]`` paths, drawn from ``rngs[s]`` at the skeleton
    grid indices ``grid`` by one gamma increment per interval; its paths
    follow those of stream s - 1.  ``levels`` is (r, n).  Returns ``pos``,
    the index in ``grid`` of the first skeleton point at or above each level
    (len(grid) where the path stays below it), and the path's values ``xa``
    and ``xb`` at grid[pos - 1] and grid[pos], the ends of that bracket.
    """
    # The skeleton is drawn and reduced to the brackets at most cap paths at
    # a time.  A stream's rows may span chunks: its generator fills them in
    # row order, so the chunks of a stream draw the variates it would draw
    # at once.
    pos = np.empty(levels.shape, dtype=np.int64)
    xa, xb = np.empty(levels.shape), np.empty(levels.shape)
    shapes = shape_step * np.diff(grid)
    cap = max(1, _SKELETON_POINTS // len(grid))
    first = 0
    for parts in _row_chunks(sizes, cap):
        paths = slice(first, first + sum(k for _, k in parts))
        first = paths.stop
        X = np.zeros((paths.stop - paths.start, len(grid)))
        np.concatenate(
            [rngs[s].gamma(shapes, scale, (k, len(grid) - 1)) for s, k in parts],
            out=X[:, 1:],
        )
        np.cumsum(X, axis=1, out=X)
        p = (X[None, :, :] < levels[:, paths, None]).sum(axis=2)
        pos[:, paths] = p
        np.minimum(p, len(grid) - 1, out=p)
        rows = np.arange(len(X))
        xb[:, paths], xa[:, paths] = X[rows, p], X[rows, p - 1]
    return pos, xa, xb


def _row_chunks(sizes, cap: int) -> Iterator[list[tuple[int, int]]]:
    """The streams' paths, in order, in chunks of at most cap paths.

    Each chunk is a list of (stream, rows) parts; a stream larger than the
    room left in a chunk continues in the next one.
    """
    parts: list[tuple[int, int]] = []
    room = cap
    for s, size in enumerate(sizes):
        size = int(size)
        while size > 0:
            rows = min(size, room)
            parts.append((s, rows))
            size -= rows
            room -= rows
            if room == 0:
                yield parts
                parts, room = [], cap
    if parts:
        yield parts


def _bisect(grid, pos, xa, xb, levels, shape_step, rngs, sizes):
    """First grid index at or above each bracketed level, by bridge bisection.

    ``pos``, ``xa`` and ``xb`` are the brackets that :func:`_brackets` found
    for the (r, n) ``levels``, each path's levels ascending; a level whose
    ``pos`` is len(grid) is left out, and a path's levels left out must be
    its highest.  Each bracket is bisected with gamma-bridge midpoints, every
    stream drawing its own from ``rngs[s]``; a level whose bracket is the
    previous level's takes that level's midpoint, so a point is never drawn
    twice.  Only the previous level needs checking: brackets are ordered like
    their levels, so two equal brackets enclose every level between them.
    ``xa`` and ``xb`` are updated in place.  Returns the (r, n) first grid
    indices, 0 for the levels left out.
    """
    hit = pos < len(grid)
    b = grid[np.minimum(pos, len(grid) - 1)]
    a = np.where(hit, grid[pos - 1], b)
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
    (k_rep), corrective flag, censored flag, failure time D, crossing time of
    L and shock time Y (np.inf when beyond the horizon).  Let k_p be the
    inspection that finds M and end = min(k_p T, horizon): D, sigma_L and Y
    are the path's own wherever they are at most end, and beyond end they
    are only known to exceed it (sigma_L then reads np.inf).
    """
    alpha = model.degradation.alpha
    beta = model.degradation.beta
    lam1 = model.shocks.lambda1
    lam2 = model.shocks.lambda2
    grid = _skeleton(horizon, T, delta)
    kmax = int(math.floor(horizon / T + _EPS))

    # Each path's M, then M_s and L in ascending order.
    low, high = sorted((model.shock_threshold, model.breakdown_threshold))
    n = int(np.sum(sizes))
    levels = np.vstack([
        np.repeat(np.asarray(Ms, dtype=float), sizes), np.full(n, low), np.full(n, high)
    ])
    pos, xa, xb = _brackets(grid, levels, alpha * delta, 1.0 / beta, rngs, sizes)
    # Skeleton point k is inspection k for k <= kmax, so M's bracket ends at
    # the inspection k_p that finds it, or past the last one: M is never
    # bisected.  M_s and L are bisected only where their bracket opens
    # before end = min(k_p T, horizon); an unresolved M_s gives v = horizon
    # below, which changes Y only past end.
    k_p = pos[0]
    pos[1:][pos[1:] > k_p] = len(grid)
    index = _bisect(grid, pos[1:], xa[1:], xb[1:], levels[1:], alpha * delta, rngs, sizes)
    sigma = np.where(index > 0, index * delta, np.inf)
    if model.shock_threshold <= model.breakdown_threshold:
        sigma_Ms, sigma_L = sigma
    else:
        sigma_L, sigma_Ms = sigma

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
    # A failure in (0, T] is found at the first inspection, however early.
    k_c = np.maximum(np.ceil(D / T - 1e-12), 1.0)
    k_c[~np.isfinite(k_c)] = kmax + 1_000_000
    k_p = np.where(k_p < len(grid), k_p, kmax + 1_000_000)
    corrective = k_c <= k_p
    k_rep = np.where(corrective, k_c, k_p)
    k_rep = np.minimum(k_rep, kmax + 1).astype(np.int64)
    censored = np.where(corrective, k_c, k_p) > kmax
    return k_rep, corrective, censored, D, sigma_L, Y


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


@dataclass(frozen=True, eq=False)
class Lattice:
    """The evaluation times of one inspection period T and their chains.

    Every table set of one T has this lattice, so the renewal recursions of
    several table sets can share its lookups and its chain map.
    """

    times: np.ndarray
    T: float

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


@dataclass(eq=False)
class EstimateTables:
    """Monte Carlo estimates feeding the Markov renewal recursions.

    Arrays prefixed ``b`` hold one row per worker block; pooled estimates are
    sample-size-weighted means across blocks.  Downtime moments are stored
    cost-free (time units); the recursion base cases are recovered by
    scaling with the downtime cost rate.  ``times`` is the evaluation
    lattice, and :attr:`lattice` its lookups and chain map.
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
    def lattice(self) -> Lattice:
        return Lattice(self.times, self.T)

    def index_of(self, t: float) -> int:
        return self.lattice.index_of(t)

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
        "format": 1,  # the version of the payload, so digests stay comparable
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


def _chain_block(model, policy, costs, life, delta, n_block, seed_seq):
    """Vectorized chained realizations for one block.

    A realization starts a new cycle at each replacement, an inspection, so
    its clock is jT after j inspections.  The realizations that share a
    clock start their cycles in one kernel call, over the remaining horizon
    t_f - jT, lowest clock first: at most k_max + 1 calls.  The first holds
    every realization at clock 0, so the first cycles are the table paths of
    the same seed sequence.  A cycle is read only up to its replacement or
    the horizon, where the kernel's D is exact.
    """
    rng = np.random.default_rng(seed_seq)
    T = policy.inspection_period
    tf = life.horizon
    inspections = np.zeros(n_block, dtype=np.int64)
    active = np.ones(n_block, dtype=bool)
    counts = np.zeros(n_block)
    total = np.zeros(n_block)
    while active.any():
        j = inspections[active].min()
        idx = np.flatnonzero(active & (inspections == j))
        remaining = tf - j * T
        k_rep, corrective, censored, D, *_ = _simulate_kernel(
            model, T, remaining, delta, [policy.preventive_threshold], [len(idx)], [rng]
        )
        # Within the remaining horizon a cycle is replaced exactly when it is
        # not censored; a censored one is inspected k_limit times.
        replaced = ~censored
        k_limit = int(math.floor(remaining / T + _EPS))
        downtime = np.where(
            corrective & replaced, np.maximum(0.0, k_rep * T - D), 0.0
        )
        terminal_down = np.where(
            censored & (D < remaining),
            np.maximum(0.0, remaining - np.maximum(D, k_limit * T)),
            0.0,
        )
        total[idx] += np.where(
            replaced,
            np.where(corrective, costs.corrective, costs.preventive)
            + costs.inspection * (k_rep - 1)
            + costs.downtime_rate * downtime,
            costs.inspection * k_limit + costs.downtime_rate * terminal_down,
        )
        counts[idx] += replaced
        active[idx[censored]] = False
        still = idx[replaced]
        inspections[still] += k_rep[replaced]
        active[still] = inspections[still] * T < tf - _EPS
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
