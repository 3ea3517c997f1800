"""Reference implementations of the simulate layer, kept for the tests.

``dense_kernel`` is the sampler that the gamma-bridge kernel of
:mod:`cbmlife.simulate` replaced: the whole degradation path on the
delta-grid.  It draws every grid increment, so the first grid point at or
above each threshold is read directly from the path; the law tests compare
the bridge kernel's outputs against it.  Its signature is that of
``cbmlife.simulate._simulate_kernel``; it returns the kernel's first four
outputs (k_rep, corrective, censored, D), then the crossing times of M, M_s
and L and the shock time, each the path's own at every time.  ``loop_accumulate``
is the table reduction that ``_reduce`` replaced.
"""

import math

import numpy as np

_EPS = 1e-9


def dense_kernel(model, policy, horizon, delta, n, rng):
    alpha = model.degradation.alpha
    beta = model.degradation.beta
    lam1 = model.shocks.lambda1
    lam2 = model.shocks.lambda2
    T = policy.inspection_period
    M = policy.preventive_threshold
    K = int(math.ceil(horizon / delta - _EPS))

    X = rng.gamma(alpha * delta, 1.0 / beta, (n, K)).cumsum(axis=1)

    def first_cross(z):
        hit = X >= z
        idx = np.argmax(hit, axis=1)
        out = (idx + 1) * delta
        out[~hit[np.arange(n), idx]] = np.inf
        return out

    sigma_M = first_cross(M)
    sigma_Ms = first_cross(model.shock_threshold)
    sigma_L = first_cross(model.breakdown_threshold)
    del X

    E = rng.exponential(1.0, n)
    v = np.minimum(sigma_Ms, horizon)
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.where(lam1 > 0.0, E / max(lam1, 1e-300), np.inf)
        above = np.where(lam2 > 0.0, v + (E - lam1 * v) / max(lam2, 1e-300), np.inf)
    Y = np.where(E <= lam1 * v, below, above)
    Y[Y > horizon] = np.inf

    D = np.minimum(sigma_L, Y)
    kmax = int(math.floor(horizon / T + _EPS))
    k_c = np.ceil(D / T - 1e-12)
    k_p = np.ceil(sigma_M / T - 1e-12)
    k_c[~np.isfinite(k_c)] = kmax + 1_000_000
    k_p[~np.isfinite(k_p)] = kmax + 1_000_000
    corrective = k_c <= k_p
    k_rep = np.where(corrective, k_c, k_p)
    k_rep = np.minimum(k_rep, kmax + 1).astype(np.int64)
    censored = np.where(corrective, k_c, k_p) > kmax
    return k_rep, corrective, censored, D, sigma_M, sigma_Ms, sigma_L, Y


def loop_accumulate(k_rep, corrective, censored, D, T, kmax, times):
    """Table sums by one masked pass per inspection and per lattice time.

    The reduction that ``cbmlife.simulate._reduce`` replaced with one
    ``np.bincount`` per table.
    """
    sums = {
        "p_p": np.zeros(kmax + 1),
        "p_c": np.zeros(kmax + 1),
        "jw": np.zeros(kmax + 1),
        "jw2": np.zeros(kmax + 1),
        "alive": np.zeros(len(times)),
        "resid": np.zeros(len(times)),
        "resid2": np.zeros(len(times)),
        "censored": float(censored.sum()),
    }
    for k in range(1, kmax + 1):
        at_k = (k_rep == k) & ~censored
        corr_k = at_k & corrective
        sums["p_c"][k] = float(corr_k.sum())
        sums["p_p"][k] = float((at_k & ~corrective).sum())
        w = np.where(corr_k, k * T - D, 0.0)
        sums["jw"][k] = float(w.sum())
        sums["jw2"][k] = float((w * w).sum())
    for i, t in enumerate(times):
        kf = min(int(math.floor(t / T + _EPS)), kmax)
        no_rep = k_rep > kf
        sums["alive"][i] = float((no_rep & (D > t)).sum())
        w = np.where(no_rep, np.maximum(0.0, t - np.maximum(D, kf * T)), 0.0)
        sums["resid"][i] = float(w.sum())
        sums["resid2"][i] = float((w * w).sum())
    return sums
