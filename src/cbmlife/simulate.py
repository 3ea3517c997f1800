"""Monte Carlo simulation of maintained trajectories.

Threshold crossings are recorded at the first point of a uniform grid of step
delta whose state is at or above the threshold, the same first-grid-point law
as a path advanced step by step on that grid, but without drawing the whole
path.  Each path is drawn only at a skeleton of grid points, the inspection
epochs and the last grid point, one epoch at a time: skeleton step j extends
every path still below the preventive threshold M by one gamma increment, in
one call over those paths, and records the levels the step crosses.  Each
path's levels are compared with its old and new value; in a paired pass,
whose paths all share one column of levels, the column is sorted once and
one ``np.searchsorted`` a step finds each path's crossed levels, with the
same draws.  A path therefore stops at the inspection k_p that first finds
it at or above M, where its first cycle ends, and M is never bisected.  The
first grid point at or above M_s and at or above L is found by bisecting the
skeleton interval that brackets it with the gamma bridge: given X(a) and
X(b), the midpoint m satisfies

    X(m) = X(a) + (X(b) - X(a)) * Beta(alpha*delta*(m - a), alpha*delta*(b - m)).

Only the crossings a cycle's outcome reads are bracketed and bisected: those
whose bracket opens before end = min(k_p T, horizon).  A skipped crossing of
L lies past end, and so does any failure it causes; past a skipped crossing
of M_s the shock time is drawn as if M_s were never reached, which changes
it only where it already lies past end.  Every failure time up to end is
therefore the path's own, and no table (nor a strict Monte Carlo cycle)
reads a later one.  M_s and L are bisected together in ascending order, and
a midpoint drawn for one is reused by the other when both brackets are the
same interval, so the two crossings belong to one path and keep their joint
law.
Time grows with the inspections up to each path's k_p, and a pass holds
O(paths) state however many inspections the horizon has; only the
log2(T/delta) bisection levels grow with 1/delta.  Crossings stay on the
delta-grid, so they keep its +delta/2 bias.  Shock times are drawn exactly
from the two-regime hazard conditional on the simulated crossing of the
shock threshold, and inspection outcomes (preventive, corrective, censored)
follow from the first-cycle definition of the replacement policy.

The central product is :class:`EstimateTables`: per-inspection replacement
probabilities, joint downtime moments, and the non-renewal (alive, residual
downtime) functions on the evaluation lattice, one row per threshold M of
one inspection period.  Every recursion in :mod:`cbmlife.renewal` consumes
these tables.  A pass's paths are reduced to them by one ``np.bincount``
per table, with no loop over inspections: a cycle is open (not yet
replaced) on a prefix of the lattice, alive on the part of it before its
failure time and down on the rest, so the alive counts are a reversed
cumulative sum of the prefix lengths, and the residual downtime sums run
over the (path, time) pairs past the failure only.  A path read at several
thresholds, the largest first, keeps k_rep = min(k_c, k_p(M)) on runs of
reads, so each run adds once, in prefix form (an entry at read j stands for
reads 0..j): the failure prefix, the reads with k_c <= k_p(M), adds the
path's full outcome, and each later run, preventive or censored by the
horizon, only its counts, so float sums receive nonnegative terms alone and
the counts stay exact; one reversed cumulative sum along the reads gives
each threshold its sums when the row's passes have run.  Each threshold's paths
are split into ``worker_streams`` blocks, contiguous ranges of its paths
whose sums are the batch means of the standard errors; the pooled counts do
not depend on the split.  A table set is its lattice, its thresholds and
these block sums alone: every pooled estimate is computed from the block
sums when it is read, and nothing in it names the draws behind it.

:func:`estimate_row` returns the table set of every threshold M of one
inspection period, drawn from one generator built from one seed sequence,
for every member of a bundle: models that share alpha, M_s and L.  On the
same delta-grid X_{alpha,beta}(t) = X_{alpha,beta_d}(t) * beta_d / beta, so
one set of paths, drawn at alpha and at beta_d, the smallest beta of the
members, serves them all: member j reads its crossings of M, M_s and L at
those levels times beta_j / beta_d, R + 2 level rows per distinct scale for
R thresholds a path, and its shock time from the path's one exponential
with its own rates.  A bundle of one scale (its members differ only in
lambda) draws exactly what one model draws.  An unpaired row (the default)
reads each path at one threshold (R = 1): it lays its paths out
threshold-major in ascending M, so each threshold has paths of its own and
the thresholds' rows are independent.  A paired row draws n paths and reads
each at every threshold of the row (R = len(Ms)), the largest first, so its
thresholds share their paths: a path's replacement inspection
min(k_c, k_p(M)) grows with M, and the cells' differences lose the noise
of independent estimates.  Either way the row cuts its paths into the
fewest passes of even sizes of at most ``3 * _PASS_PATHS // (K * (R + 2))``
paths for K distinct scales, ``_PASS_PATHS // K`` at R = 1, and at least
one, so a pass boundary may fall inside a threshold and inside a block;
each outcome adds into the (threshold, block) row its index in the row
names, or, paired, into its (read, block) row in prefix form.  A pass is one
draw over all its paths (:func:`_draw_pass`), which leaves a pass state of
a few numbers a path, then one read and reduction per group of at most
``_PASS_PATHS`` member outcomes, which adds each table into the row's sums
as soon as it is counted; this removes the fixed cost of a sampler call per
threshold, block and member.  The table set is checked once, on its block
sums, when every pass has run: a count adds 1.0 a path, so each block's
replaced and censored paths add up to its size exactly.  The members of
a bundle share their noise; a member's rows depend on the row's set of
thresholds and the bundle's set of scales, though not on their order.
:func:`estimate_tables` is the one-model, one-threshold row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    "eval_times",
    "row_seed",
]

_EPS = 1e-9
# Paths simulated together in one sampler pass.  A pass holds about 250
# bytes a path (bisection state, bridge draws and reduction temporaries), so
# the cap bounds its memory, at about 2 MB.  A bundle of K distinct scales
# whose paths are read at R thresholds each (R = 1 unpaired) draws R + 2
# levels a path per scale, so a row's paths are cut into the fewest even
# passes of at most 3 * _PASS_PATHS // (K * (R + 2)) (:func:`_chunks`),
# _PASS_PATHS // K at R = 1, and at least one, and its members' outcomes, R
# a path, are
# reduced in groups of at most _PASS_PATHS, one group at a time.
_PASS_PATHS = 8192
# The most inspection periods t_f/T may hold.  A period adds 10 or 11 lattice
# points to every table and a skeleton step to every pass, so a longer
# horizon (T = 0.001 at t_f = 50: 500,001 points) is refused up front.
_MAX_PERIODS = 10_000
# The block sums of a table set, each with axes (threshold, block, cell),
# and the axis of their cells: the kmax + 1 inspections, the lattice times,
# or none (the censored count).  :func:`_reduce` adds into them by name.
_BLOCK_SUMS = {
    "bp_p": "inspection", "bp_c": "inspection", "bjw": "inspection",
    "bjw2": "inspection", "balive": "time", "bresid": "time", "bresid2": "time",
    "bcensored": None,
}


@dataclass(frozen=True)
class SimulationConfig:
    """Controls for the Monte Carlo engine.

    ``path_step`` of None selects the default step T/100 of the policy under
    study.  ``worker_streams`` is the number of batch-means batches: each
    threshold's paths are split into that many contiguous blocks, whose sums
    give the standard errors.  It does not change which paths are drawn, so
    the pooled counts do not depend on it, and the pooled sums only by the
    rounding of their order.
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


def _inspections(T: float, horizon: float) -> int:
    """The inspections of period T up to the horizon: floor(horizon/T + eps)."""
    return int(math.floor(horizon / T + _EPS))


def _check_periods(T: float, horizon: float) -> None:
    if horizon / T > _MAX_PERIODS:
        raise ConfigurationError(f"t_f/T exceeds {_MAX_PERIODS} inspection periods")


def eval_times(policy: MaintenancePolicy, life: LifeCycle) -> np.ndarray:
    """Evaluation lattice: {t_f - j*T/10} down to 0, union inspection epochs.

    Both families are closed under subtracting multiples of T, so every
    recursive lookup t - kT lands back on the lattice.  More than
    _MAX_PERIODS periods raise ConfigurationError before anything is built.
    """
    T = policy.inspection_period
    tf = life.horizon
    _check_periods(T, tf)
    dg = T / 10.0
    # Every tf - j*dg above -_EPS, and some below that clamp to the point 0;
    # times are keyed by rounding to the nanosecond.
    down = np.maximum(tf - np.arange(int((tf + _EPS) / dg) + 2) * dg, 0.0)
    epochs = np.arange(_inspections(T, tf) + 1) * T
    keys = np.round(np.concatenate([down, epochs]) * 1e9).astype(np.int64)
    keys.sort()  # np.unique would import numpy.ma, 1.6 MB of resident memory
    return keys[np.diff(keys, prepend=-1) != 0] / 1e9


def _check_simulable(model: SystemModel, policy: MaintenancePolicy, life) -> None:
    """Reject a preventive threshold above L or too long a horizon early."""
    if policy.preventive_threshold > model.breakdown_threshold:
        raise ConfigurationError("preventive threshold must not exceed L")
    _check_periods(policy.inspection_period, life.horizon)


def _skeleton(horizon: float, T: float, delta: float) -> np.ndarray:
    """Grid indices at which paths are drawn: 0, the inspection epochs, K."""
    K = int(math.ceil(horizon / delta - _EPS))
    kmax = _inspections(T, horizon)
    epochs = {int(math.floor(k * T / delta + _EPS)) for k in range(1, kmax + 1)}
    return np.array(sorted({0, K, *(min(j, K) for j in epochs)}), dtype=np.int64)


def _brackets(grid, levels, shape_step, scale, rng, paths=None):
    """Draw the paths at the skeleton, each until it reaches its first level.

    ``levels`` is (r, n), the r levels of each of n paths, or (r,), the
    levels that all ``paths`` paths of a paired pass share.  Skeleton step j
    extends the paths still below their level in row 0 by one gamma
    increment each, drawn from ``rng`` in one call, and records the
    brackets of the levels that the step crosses (prev < level <= new, the
    paths being nondecreasing).  Per-path levels are compared row by row;
    shared levels are sorted once, and one ``np.searchsorted`` a step finds
    each path's crossed levels, those in (prev, new], so only the crossings
    are written.  Either way the draws are the same.  Returns ``pos``, the
    index in ``grid`` of the first skeleton point at or above each level
    (len(grid) where the path stays below it up to the last point, or up to
    its row-0 crossing), and the path's values ``xa`` and ``xb`` at
    grid[pos - 1] and grid[pos], the ends of that bracket, each (r, n).
    """
    shared = levels.ndim == 1
    n = paths if shared else levels.shape[1]
    pos = np.full((len(levels), n), len(grid))
    xa, xb = np.zeros(pos.shape), np.zeros(pos.shape)
    live, x, below = np.arange(n), np.zeros(n), levels
    if shared:
        order = np.argsort(levels, kind="stable")
        ascending = levels[order]
        # Each path's count of levels at or below its value: those it has
        # crossed, or at or below 0, which no path crosses.
        crossed = np.full(n, np.searchsorted(ascending, 0.0, side="right"))
    for j, shape in enumerate(shape_step * np.diff(grid), start=1):
        new = x + rng.gamma(shape, scale, len(live))
        if shared:
            # The step crosses ascending[crossed:reached], the levels in (x, new].
            reached = np.searchsorted(ascending, new, side="right")
            count = reached - crossed
            col = np.repeat(np.arange(len(live)), count)
            start = np.cumsum(count) - count
            row = order[np.arange(len(col)) + np.repeat(crossed - start, count)]
            keep = new < levels[0]
        else:
            row, col = np.nonzero((x < below) & (below <= new))
            keep = new < below[0]
        paths_hit = live[col]
        pos[row, paths_hit] = j
        xa[row, paths_hit], xb[row, paths_hit] = x[col], new[col]
        if not keep.any():
            break
        live, x = live[keep], new[keep]
        if shared:
            crossed = reached[keep]
        else:
            below = below[:, keep]
    return pos, xa, xb


def _bisect(grid, pos, xa, xb, levels, shape_step, rng):
    """First grid index at or above each bracketed level, by bridge bisection.

    ``pos``, ``xa`` and ``xb`` are the (r, n) brackets that :func:`_brackets`
    found for ``levels``, (r, n) or a column (r, 1) that every path shares,
    each path's levels ascending; a level whose
    ``pos`` is len(grid) is left out, and a path's levels left out must be
    its highest.  Each bracket is bisected with gamma-bridge midpoints drawn
    from ``rng``; a level whose bracket is the previous level's takes that
    level's midpoint, so a point is never drawn twice.  Only the previous
    level needs checking: brackets are ordered like their levels, so two
    equal brackets enclose every level between them.  ``xa`` and ``xb`` are
    updated in place.  Returns the (r, n) first grid indices, 0 for the
    levels left out.
    """
    hit = pos < len(grid)
    b = grid[np.minimum(pos, len(grid) - 1)]
    a = np.where(hit, grid[pos - 1], b)
    # Flat views of the (level, path) state, level-major.
    fa, fb, fxa, fxb = (v.ravel() for v in (a, b, xa, xb))
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
        fxm[draw] = _bridge(draw, rng, shape_step, fa, fm, fb, fxa, fxb)
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


def _bridge(draw, rng, shape_step, a, m, b, xa, xb):
    """Gamma-bridge values at the midpoints m[draw] of the brackets [a, b].

    The beta variates come from ``rng`` in one call, in the order of ``draw``.
    """
    p, q = m[draw], b[draw]  # at most three arrays of the draw's size at once
    q -= p
    p -= a[draw]
    p = shape_step * p
    q = shape_step * q
    p = rng.beta(p, q)
    x_lo = np.take(xa, draw)
    x = np.take(xb, draw, out=q)
    x -= x_lo
    x *= p
    x += x_lo
    return x


def _bundle_scales(models):
    """The rate the paths of a bundle are drawn at, its scales, each member's.

    The paths are drawn at beta_d, the smallest rate of the members; member
    j reads them at the scale beta_j / beta_d, since on the same delta-grid
    X_{alpha,beta_j}(t) = X_{alpha,beta_d}(t) * beta_d / beta_j.  Returns
    beta_d, the distinct scales ascending (the first is 1.0), and the index
    of each member's scale among them.
    """
    rates = [model.degradation.beta for model in models]
    beta_d = min(rates)
    scales = sorted({rate / beta_d for rate in rates})
    return beta_d, scales, [scales.index(rate / beta_d) for rate in rates]


def _draw_pass(models, T, horizon, delta, Ms, rng):
    """Draw one pass of paths for a bundle: each member's scale, and the pass state.

    ``Ms`` is (R, paths): column i holds the R preventive thresholds path i
    is read at, its largest in row 0.  An unpaired row gives each path one
    threshold (R = 1); a paired row gives every path all its thresholds, so
    a pass of R > 1 has one column of levels, which :func:`_brackets`
    searches once a step for all its paths.
    The members share alpha, M_s and L; the paths are drawn at alpha and
    beta_d (:func:`_bundle_scales`) from ``rng``: the skeleton increments,
    the bridge midpoints round by round, then one exponential per path.  At
    scale s a member crosses a level z where the drawn path crosses z * s,
    so the levels are the R thresholds, M_s and L at each distinct scale,
    R + 2 rows per scale: one scale (a bundle whose members differ only in
    lambda) draws what a single model draws.  Each path is drawn until it
    reaches its largest M at the largest scale.  Returns the index of each
    member's scale and the pass state in the order :func:`_outcomes` reads
    it: the inspection k_p that finds each threshold at each scale, of shape
    (scale, threshold, path) with the scales ascending, and kmax + 1,000,000
    where the path never reaches it; the crossing times of M_s at each
    scale, then of L at each scale, np.inf where unresolved; and one
    exponential a path.  The draw's own state is freed on return.
    """
    first = models[0]
    alpha = first.degradation.alpha
    beta_d, scales, which = _bundle_scales(models)
    grid = _skeleton(horizon, T, delta)
    s, K, (R, n) = np.array(scales), len(scales), np.shape(Ms)
    # Every threshold at every scale, the largest scale first, so row 0 is
    # the largest: _brackets stops each path at its row-0 level.  Then M_s
    # and L at every scale, ascending, as _bisect takes them.
    named = np.concatenate([first.shock_threshold * s, first.breakdown_threshold * s])
    order = np.argsort(named, kind="stable")
    Ms = np.asarray(Ms, dtype=float)
    if R > 1:  # paired: every path has the same column of levels
        levels = np.concatenate([*(Ms[:, 0] * f for f in s[::-1]), named[order]])
    else:
        levels = np.vstack([*(Ms * f for f in s[::-1]),
                            *(np.full(n, z) for z in named[order])])
    pos, xa, xb = _brackets(grid, levels, alpha * delta, 1.0 / beta_d, rng, n)
    # Skeleton point k is inspection k for k <= kmax, so M's bracket ends at
    # the inspection k_p that finds it, or past the last one: M is never
    # bisected.  A path is drawn only up to k_p of its largest M at the
    # largest scale, so M_s and L are bracketed, and bisected, only where
    # their bracket opens before then; an unresolved M_s gives v = horizon
    # in _outcomes, which changes Y only past the member's own end =
    # min(k_p T, horizon).
    KR = K * R
    index = _bisect(grid, pos[KR:], xa[KR:], xb[KR:], named[order][:, None],
                    alpha * delta, rng)
    k_p = pos[:KR].reshape(K, R, n)[::-1]
    k_p = np.where(k_p < len(grid), k_p, _inspections(T, horizon) + 1_000_000)
    sigma = np.where(index > 0, index * delta, np.inf)[np.argsort(order)]
    return which, (k_p, sigma, rng.exponential(1.0, n))


def _outcomes(models, which, state, T, horizon):
    """First-cycle outcomes of the members ``models`` on one pass of paths.

    ``state`` is the pass state of :func:`_draw_pass`, and member m reads
    its scale ``which[m]``.  Returns one outcome per (member, threshold,
    path): replacement inspection index (k_rep), corrective flag and
    censored flag of shape (members, R, paths), then failure time D,
    crossing time of L and shock time Y (np.inf when beyond the horizon) of
    shape (members, 1, paths), which no threshold changes.  Let end =
    min(k_p T, horizon) at the path's largest threshold: D, sigma_L and Y
    are the path's own wherever they are at most end, and beyond end they
    are only known to exceed it (sigma_L then reads np.inf, or a later
    crossing that another scale's k_p reached).  Path by path k_rep =
    min(k_c, k_p(M)), and k_p grows with M, so on shared paths k_rep grows
    with M.
    """
    k_p, sigma, E = state
    rows = np.asarray(which)
    sigma_Ms, sigma_L = sigma[rows][:, None], sigma[len(k_p) + rows][:, None]
    k_p = k_p[rows]
    kmax = _inspections(T, horizon)
    lam1 = np.array([[[model.shocks.lambda1]] for model in models])
    lam2 = np.array([[[model.shocks.lambda2]] for model in models])
    # Exact inverse-transform draw of the shock time given the (grid) time v
    # at which the path enters the high-intensity regime: the cumulative
    # hazard is lam1*t on [0, v] and lam1*v + lam2*(t - v) beyond.
    v = np.minimum(sigma_Ms, horizon)
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.where(lam1 > 0.0, E / np.maximum(lam1, 1e-300), np.inf)
        above = np.where(
            lam2 > 0.0, v + (E - lam1 * v) / np.maximum(lam2, 1e-300), np.inf
        )
    Y = np.where(E <= lam1 * v, below, above)
    Y[Y > horizon] = np.inf

    D = np.minimum(sigma_L, Y)
    # A failure in (0, T] is found at the first inspection, however early.
    k_c = np.maximum(np.ceil(D / T - 1e-12), 1.0)
    k_c[~np.isfinite(k_c)] = kmax + 1_000_000
    corrective = k_c <= k_p
    k_rep = np.where(corrective, k_c, k_p)
    k_rep = np.minimum(k_rep, kmax + 1).astype(np.int64)
    censored = np.where(corrective, k_c, k_p) > kmax
    return k_rep, corrective, censored, D, sigma_L, Y


def _simulate_kernel(model, T, horizon, delta, Ms, rng):
    """Vectorized first-cycle simulation of one pass of paths of one model.

    The one-member bundle, each path at its one threshold ``Ms[i]``: the
    per-path arrays of :func:`_outcomes`.
    """
    which, state = _draw_pass([model], T, horizon, delta, np.asarray(Ms)[None], rng)
    return tuple(v[0, 0] for v in _outcomes([model], which, state, T, horizon))


def _block_accumulate(models, T, life, delta, Ms, bins, rng, times, sums):
    """Simulate one pass of paths, path i read into rows bins[:, i], and add sums.

    ``sums`` are the arrays of :func:`_zero_sums`, one run of len(Ms) rows
    per member of the bundle ``models``, in member order, and row r of a
    run has threshold Ms[r].  ``bins`` is (R, paths): path i is read at the
    thresholds Ms[bins[:, i]], its largest in row 0 (:func:`_draw_pass`),
    and its reads add into rows bins[:, i] of each member's run in the
    prefix form of :func:`_reduce`, which at R = 1 is the outcome itself.
    A paired pass (R > 1) reads every path at every threshold, so row
    bins[j, i] is read j's row of the block of path i, and the caller turns
    the prefix form into each read's sums.  The paths are drawn from ``rng``
    once for every member.  The outcomes take about 10 bytes a member,
    threshold and path and 24 a member and path, so the members are read
    and reduced in groups of at most _PASS_PATHS outcomes (at least one
    member), each group's outcomes freed before the next group's are
    computed.
    """
    which, state = _draw_pass(models, T, life.horizon, delta, Ms[bins], rng)
    kmax = _inspections(T, life.horizon)
    group = max(1, _PASS_PATHS // bins.size)
    for lo in range(0, len(models), group):
        k_rep, corrective, censored, D, *_ = _outcomes(
            models[lo : lo + group], which[lo : lo + group], state, T, life.horizon
        )
        del _  # the crossing and shock times, which no table reads
        owner = np.arange(lo, lo + len(k_rep))[:, None, None] * len(Ms) + bins
        _reduce(k_rep, corrective, censored, D, owner, T, kmax, times, sums)
        del k_rep, corrective, censored, D, owner  # before the next group's


def _reduce(k_rep, corrective, censored, D, owner, T, kmax, times, sums):
    """Add the table sums of one group of outcomes into ``sums``, by run.

    The outcomes are of shape (member, read, path), D (member, 1, path),
    and read j of a path adds into row owner[:, j] of every array of
    ``sums`` (:func:`_zero_sums`), in prefix form: an entry in the row of
    read j stands for reads 0..j, so a reversed cumulative sum along the
    reads gives each read its sums; with one read a path it is the read's
    sums.  A path's reads run from its largest M down, so k_p(M) does not
    increase along them and k_rep = min(k_c, k_p(M)) is constant on runs.
    The first run, the failure prefix of the reads with k_c <= k_p(M) (it
    may be empty), is corrective (or censored past kmax) and adds its full
    outcome once, at its last read.  Each later run is preventive at
    k_p(M), or censored with no failure by the horizon: its cycle is alive
    wherever it is open, so it adds only counts, at its last read, and takes
    them off at the read before its first.  Counts are sums of +-1.0, so
    they are exact, and the downtime sums receive only the failure prefix's
    terms.  Each table is one ``np.bincount`` over (row, table cell), which
    adds a row's entries in path order, over the span of rows from the
    group's lowest to its highest, and is added in place into that slice of
    ``sums`` before the next is computed; a row of the span the group does
    not reach adds zeros.
    """
    lo, hi = owner.min(), owner.max() + 1
    owner, S = owner - lo, hi - lo

    def add(name, index, weights=None):
        target = sums[name]
        table = np.bincount(index, weights, minlength=S * target[0].size)
        target[lo:hi] += table.reshape(S, *target.shape[1:])

    # Read j ends a run where read j + 1 has another k_rep, or j = R - 1.
    # The failure prefix adds its outcome at its end, a corrective read.  A
    # later run adds its counts at its end and takes them off at the read
    # before it opens: a run's end, P flat places before the opening read.
    # Only later runs open after read 0, as k_rep is constant on the failure
    # prefix.  The prefix and the next run share a k_rep only at kmax + 1,
    # where both are censored with no failure by the horizon and so equal
    # in every table: the run then counts the prefix's reads as its own.
    _, R, P = k_rep.shape
    end = np.ones_like(corrective)
    np.not_equal(k_rep[:, 1:], k_rep[:, :-1], out=end[:, :-1])
    full = np.flatnonzero(end & corrective)
    ends = np.flatnonzero(end & ~corrective)
    end[:, -1] = False
    before = np.flatnonzero(end)
    del end
    owner, k_rep = owner.ravel(), k_rep.ravel()
    run_owner = owner[np.concatenate([ends, before])]
    run_k = k_rep[np.concatenate([ends, before + P])]
    sign = np.repeat([1.0, -1.0], [len(ends), len(before)])
    del ends, before
    owner, k, censored = owner[full], k_rep[full], censored.ravel()[full]
    D = D.ravel()[full // (R * P) * P + full % P]
    del full
    # Per inspection k: replacements by kind and the downtime kT - D of
    # corrective ones (k_rep <= kmax exactly when the cycle is not censored).
    done = ~censored
    cell = owner[done] * (kmax + 1) + k[done]
    w = k[done] * T - D[done]
    add("bp_c", cell)
    add("bjw", cell, w)
    add("bjw2", cell, w * w)
    done = run_k <= kmax
    add("bp_p", run_owner[done] * (kmax + 1) + run_k[done], sign[done])
    add("bcensored", np.concatenate([owner[censored], run_owner[~done]]),
        np.concatenate([np.ones(censored.sum()), sign[~done]]))
    del done, cell, w
    # Per lattice time t, over the cycles not replaced by its last inspection
    # kf(t): alive at t, and the downtime accrued since D.  kf grows with t,
    # so a cycle is open (kf < k_rep) on a prefix of the lattice, alive on
    # the part of it before D and down on the rest.  A cycle down at t failed
    # after kf T, or the inspection ceil(D / T) <= kf would have replaced it.
    C = len(times)
    kf_of = np.minimum(np.floor(times / T + _EPS).astype(np.int64), kmax)
    n_open = np.searchsorted(kf_of, k)
    n_alive = np.minimum(n_open, np.searchsorted(times, D))
    # Column c counts the prefixes longer than c: a reversed cumulative sum
    # of the prefix lengths' counts, from length C down to length 1.
    index = np.concatenate([owner * (C + 1) + n_alive,
                            run_owner * (C + 1) + np.searchsorted(kf_of, run_k)])
    lengths = np.bincount(index, np.concatenate([np.ones(len(k)), sign]),
                          minlength=S * (C + 1)).reshape(S, C + 1)
    sums["balive"][lo:hi] += np.cumsum(lengths[:, :0:-1], axis=1)[:, ::-1]
    del index, lengths, run_owner, run_k, sign
    # The (path, column) pairs of the open prefix from D on, path by path,
    # so each row adds its terms in path order (a term at t = D is 0.0).
    width = n_open - n_alive
    path = np.repeat(np.arange(len(D)), width)
    col = np.arange(len(path)) + np.repeat(n_alive - (np.cumsum(width) - width), width)
    down = times[col] - D[path]
    lattice_cell = owner[path] * C + col
    del path, col
    add("bresid", lattice_cell, down)
    add("bresid2", lattice_cell, down * down)


def _zero_sums(rows, kmax, times) -> dict[str, np.ndarray]:
    """Zeroed block sums of :data:`_BLOCK_SUMS`, ``rows`` by their cells."""
    cells = {"inspection": (kmax + 1,), "time": (len(times),), None: ()}
    return {name: np.zeros((rows, *cells[axis])) for name, axis in _BLOCK_SUMS.items()}


@dataclass(frozen=True, eq=False)
class Lattice:
    """The evaluation times of one inspection period T and their chains.

    Every threshold of one T has this lattice, so the renewal recursions of
    a table set's rows share its lookups and its chain map.
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


def _pooled(blocks: str) -> property:
    return property(
        lambda self: getattr(self, blocks).sum(axis=1) / self._paths[:, None]
    )


@dataclass(eq=False)
class EstimateTables:
    """Monte Carlo estimates feeding the Markov renewal recursions.

    Row r holds the policy (T, Ms[r]); the table set of a bundle holds each
    member's rows in turn (:func:`estimate_row`).  Arrays prefixed ``b``
    hold block sums with axes (row, block, ...), and ``block_sizes`` (row,
    block) the paths behind each; a pooled estimate is a row's block sums
    over its paths, of shape (R, kmax + 1) per inspection and (R, N) per
    lattice time, and ``censored_fraction`` is (R,), each computed from the
    block sums when it is read.  Downtime moments are stored cost-free (time
    units); the recursion base cases are recovered by scaling with the
    downtime cost rate.  :attr:`lattice` holds the evaluation times and
    their chain map, which every row shares.
    """

    lattice: Lattice
    Ms: np.ndarray
    block_sizes: np.ndarray
    bp_p: np.ndarray
    bp_c: np.ndarray
    bjw: np.ndarray
    bjw2: np.ndarray
    balive: np.ndarray
    bresid: np.ndarray
    bresid2: np.ndarray
    bcensored: np.ndarray

    # -- pooled estimates: a row's block sums over its paths ---------------
    p_preventive = _pooled("bp_p")
    p_corrective = _pooled("bp_c")
    joint_downtime = _pooled("bjw")
    joint_downtime_sq = _pooled("bjw2")
    alive_no_replacement = _pooled("balive")
    residual_downtime = _pooled("bresid")
    residual_downtime_sq = _pooled("bresid2")

    @property
    def censored_fraction(self) -> np.ndarray:
        return self.bcensored.sum(axis=1) / self._paths

    @property
    def _paths(self) -> np.ndarray:
        return self.block_sizes.sum(axis=1)

    # -- structure ---------------------------------------------------------
    @property
    def kmax(self) -> int:
        return self.bp_p.shape[-1] - 1

    def take(self, i: int) -> "EstimateTables":
        """Threshold i alone: the table set of its one row."""
        return self._rows(self.Ms[[i]], [i])

    def batches(self) -> "EstimateTables":
        """Each (threshold, nonempty block) pair as a row, threshold-major.

        A row's estimates are its block's sums over its block's paths: the
        batch means of the standard errors.
        """
        r, b = np.nonzero(self.block_sizes)
        return self._rows(self.Ms[r], (r, b, None))

    def _rows(self, Ms, index) -> "EstimateTables":
        names = ("block_sizes", *_BLOCK_SUMS)
        return replace(self, Ms=Ms, **{n: getattr(self, n)[index] for n in names})

    def validate(self) -> None:
        """Raise ConfigurationError unless every block's sums are valid.

        A count adds 1.0 a path, so it is exact.  Each path of a block is
        replaced at one inspection or censored, so in every (row, block) the
        replacement counts and the censored count add up to the block's
        size, and every path is alive at time 0, column 0 of alive.  A
        row's summed downtime moments must not fall below -1e-15 a path.
        """
        sizes = self.block_sizes
        paths = self.bp_p.sum(axis=-1) + self.bp_c.sum(axis=-1) + self.bcensored
        if (paths > sizes).any():
            raise ConfigurationError("replacement probabilities exceed one")
        for arr in (self.bp_p, self.bp_c, self.balive):
            if (arr < 0.0).any() or (arr > sizes[..., None]).any():
                raise ConfigurationError("probability entry outside [0, 1]")
        if (paths != sizes).any():
            raise ConfigurationError("a path is neither replaced nor censored")
        for arr in (self.bjw, self.bjw2, self.bresid, self.bresid2):
            if (arr.sum(axis=1) < -1e-15 * self._paths[:, None]).any():
                raise ConfigurationError("negative downtime moment")
        if (self.balive[..., 0] != sizes).any():
            raise ConfigurationError("alive_no_replacement(0) must be 1")

    def equals(self, other: "EstimateTables") -> bool:
        if not isinstance(other, EstimateTables) or self.lattice.T != other.lattice.T:
            return False
        arrays = ("Ms", "block_sizes", *_BLOCK_SUMS)
        return np.array_equal(self.lattice.times, other.lattice.times) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in arrays
        )


def seed_key(value: float) -> int:
    """The key of ``value`` in a row's seed sequence: its value in millionths."""
    return int(round(value * 1e6))


def row_seed(master_seed: int, value: float, *extra: int) -> np.random.SeedSequence:
    """The seed sequence keyed by :func:`seed_key` of ``value``, then by ``extra``.

    ``value`` is an inspection period, or the swept value of a ``curves``
    run.  The grid, the sensitivity sweeps and the ``curves`` command seed
    their rows here, and ``curves`` its strict Monte Carlo chains too.
    """
    return np.random.SeedSequence(
        entropy=master_seed, spawn_key=(seed_key(value), *extra)
    )


def _block_split(n: int, streams: int) -> np.ndarray:
    base, extra = divmod(n, streams)
    return np.array([base + (1 if i < extra else 0) for i in range(streams)])


def _chunks(n: int, cap: int) -> list[tuple[int, int]]:
    """n paths cut into the fewest consecutive ranges of at most cap.

    The ranges are of even sizes, so none is a small remainder that pays a
    whole pass's fixed cost.  They are the passes of a row's paths and the
    kernel calls of a clock's realizations in :func:`chain_statistics`.
    """
    count = -(-n // cap)
    bounds = [i * n // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _members(models) -> tuple[SystemModel, ...]:
    """The members of a bundle; one model is the one-member bundle.

    The members must share alpha, M_s and L: their paths differ only in
    the scale of the levels they read and in the shock rates.
    """
    members = (models,) if isinstance(models, SystemModel) else tuple(models)
    if not members:
        raise ValueError("a bundle needs at least one model")
    shared = {
        (m.degradation.alpha, m.shock_threshold, m.breakdown_threshold)
        for m in members
    }
    if len(shared) > 1:
        raise ValueError("the members of a bundle must share alpha, M_s and L")
    return members


def estimate_row(
    models,
    T: float,
    Ms,
    life: LifeCycle,
    cfg: SimulationConfig,
    seed_sequence: np.random.SeedSequence,
    paired: bool = False,
) -> EstimateTables:
    """The table set of the policies (T, M), M in Ms, of a bundle, from one generator.

    ``models`` is one SystemModel, the one-member bundle, or a sequence of
    members that share alpha, M_s and L.  Row r is member r // len(Ms) at
    threshold Ms[r % len(Ms)]: the rows are (member, threshold),
    member-major, in the orders given.  The generator,
    ``np.random.default_rng(seed_sequence)``, draws the row's paths once
    for all members (:func:`_draw_pass`), in the passes
    :func:`_chunks` cuts them into, of at most cap = 3 * _PASS_PATHS // (K
    * (R + 2)) paths and at least one, where K is the number of distinct
    scales beta_j / beta_d of the members and R the thresholds a path is
    read at.  Worker
    block b of a threshold is the b-th range of its paths in the split of
    :func:`_block_split`; a threshold or block split between passes adds up
    its parts in pass order.

    Unpaired (the default), the row draws len(Ms) * n paths, n =
    cfg.n_samples, each read at one threshold (R = 1, cap = _PASS_PATHS //
    K): path i of the row is path i % n of threshold i // n in ascending M,
    so each threshold has paths of its own and the thresholds' cells are
    independent.  Paired, the row draws n paths and reads every path at
    every threshold (R = len(Ms)): the cells share their paths, so a
    path's replacement inspection k_rep = min(k_c, k_p(M)) grows with M and
    the cells' differences carry little noise.  Its sums are kept in read
    order, the largest M first, and in the prefix form of :func:`_reduce`,
    which adds each path's runs of equal outcome once; when every pass has
    run, one reversed cumulative sum along the reads gives each read its
    sums, and the reads are put back in the thresholds' order.  Its counts
    are those of the outcome-by-outcome sums exactly, and its float sums
    the same nonnegative terms added in another order.  A paired row of one
    threshold is the unpaired row.  A member's rows depend on the row's set
    of thresholds and on the set of scales of the bundle, though not on
    their order; the members of one scale (a bundle whose members differ
    only in lambda) draw exactly the paths of a one-member bundle, so their
    rows are its rows.  :func:`estimate_tables` is the one-model,
    one-threshold row.  The policies are checked at the call, and
    ``seed_sequence`` is left unchanged.  The table set holds the lattice,
    the thresholds and the block sums, and no record of the members, the
    config or the seed sequence, so two table sets are compared by their
    contents (:meth:`EstimateTables.equals`).
    """
    members = _members(models)
    policies = [
        MaintenancePolicy(inspection_period=T, preventive_threshold=M) for M in Ms
    ]
    if not policies:
        raise ValueError("a row needs at least one threshold")
    for policy in policies:
        _check_simulable(members[0], policy, life)
    delta = cfg.step_for(policies[0])
    times = eval_times(policies[0], life)
    Ms = np.array([policy.preventive_threshold for policy in policies])
    n, B = cfg.n_samples, cfg.worker_streams
    block = _block_split(n, B)
    order = np.argsort(Ms, kind="stable")
    # A paired path is read at every threshold, the largest first.
    reads, paths = (len(Ms), n) if paired else (1, len(Ms) * n)
    K = len(_bundle_scales(members)[1])
    cap = max(1, 3 * _PASS_PATHS // (K * (reads + 2)))
    rng = np.random.default_rng(seed_sequence)
    kmax = _inspections(T, life.horizon)
    # Rows (member, threshold, block): path i of the row is path i % n of
    # threshold order[i // n] and adds into the block of i % n; empty blocks
    # stay zero.  Paired, the rows are (member, read, block), read j at
    # threshold order[::-1][j], in prefix form until every pass has run.
    sums = _zero_sums(len(members) * len(Ms) * B, kmax, times)
    thresholds = Ms[order[::-1]] if paired else Ms
    for lo, hi in _chunks(paths, cap):
        threshold, path = np.divmod(np.arange(lo, hi), n)
        which = np.arange(len(Ms))[:, None] if paired else order[threshold][None]
        bins = which * B + np.searchsorted(block.cumsum(), path, side="right")
        del threshold, path, which  # a pass's size each, freed before it is drawn
        _block_accumulate(members, T, life, delta, thresholds.repeat(B), bins, rng,
                          times, sums)
    if paired:  # each read's sums, then the thresholds in the order given
        row = np.argsort(order[::-1])
        for name, value in sums.items():
            by_read = value.reshape(len(members), len(Ms), -1)
            by_read = np.cumsum(by_read[:, ::-1], axis=1)[:, ::-1]
            sums[name] = by_read[:, row].reshape(value.shape)
    R = len(members) * len(Ms)
    tables = EstimateTables(
        lattice=Lattice(times, T),
        Ms=np.tile(Ms, len(members)),
        block_sizes=np.tile(block, (R, 1)),
        **{name: value.reshape(R, B, *value.shape[1:]) for name, value in sums.items()},
    )
    tables.validate()
    return tables


def estimate_tables(
    model: SystemModel,
    policy: MaintenancePolicy,
    life: LifeCycle,
    cfg: SimulationConfig,
    seed_sequence: np.random.SeedSequence | None = None,
) -> EstimateTables:
    """Estimate all recursion inputs from cfg.n_samples first cycles.

    The output is a pure function of (model, policy, life, cfg) and the seed
    sequence, by default that of cfg.master_seed.  It is the one-policy case
    of :func:`estimate_row`.
    """
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(cfg.master_seed)
    return estimate_row(
        model, policy.inspection_period, [policy.preventive_threshold], life, cfg,
        seed_sequence,
    )


def chain_statistics(
    model: SystemModel,
    policy: MaintenancePolicy,
    costs: CostStructure,
    life: LifeCycle,
    cfg: SimulationConfig,
    seed_sequence: np.random.SeedSequence | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chained (strict Monte Carlo) realizations for all samples.

    Returns the per-realization count of completed renewal cycles and the
    per-realization total cost over the life cycle.  A realization starts a
    new cycle at each replacement, an inspection, so its clock is jT after j
    inspections.  The realizations that share a clock start their cycles
    together, lowest clock first, over the remaining horizon t_f - jT, in
    kernel calls of at most _PASS_PATHS realizations, all drawn from one
    generator, ``np.random.default_rng(seed_sequence)``.  The first clock
    holds every realization, chunked as :func:`estimate_tables` chunks its
    paths, so the first cycles are the paths of estimate_tables with the
    same seed sequence.  A cycle is read only up to its replacement or the
    horizon, where the kernel's D is exact.
    """
    _check_simulable(model, policy, life)
    delta = cfg.step_for(policy)
    if seed_sequence is None:
        seed_sequence = np.random.SeedSequence(cfg.master_seed)
    rng = np.random.default_rng(seed_sequence)
    T = policy.inspection_period
    tf = life.horizon
    n = cfg.n_samples
    inspections = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    counts = np.zeros(n)
    total = np.zeros(n)
    while active.any():
        j = inspections[active].min()
        group = np.flatnonzero(active & (inspections == j))
        remaining = tf - j * T
        # Within the remaining horizon a cycle is replaced exactly when it is
        # not censored; a censored one is inspected k_limit times.
        k_limit = _inspections(T, remaining)
        for lo, hi in _chunks(len(group), _PASS_PATHS):
            idx = group[lo:hi]
            Ms = np.full(len(idx), policy.preventive_threshold)
            k_rep, corrective, censored, D, *_ = _simulate_kernel(
                model, T, remaining, delta, Ms, rng
            )
            replaced = ~censored
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
