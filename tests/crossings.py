"""All three crossing times of every path, for the crossing-law tests.

``_simulate_kernel`` draws each path only up to the inspection that finds M,
brackets and bisects M_s and L only up to there, and never bisects M, since
its outputs read no later crossing.  The tests of the crossing law read every
crossing on every path, so ``all_crossings`` calls the kernel's own bracket
and bisection routines with no level left out: the highest level goes first
to ``_brackets``, which draws each path until it reaches that level.
"""

import numpy as np

from cbmlife.simulate import _bisect, _brackets, _skeleton


def all_crossings(model, T, horizon, delta, M, n, rng):
    """(sigma_M, sigma_Ms, sigma_L) of n paths drawn from rng.

    Each is the first delta-grid time at or above its level, np.inf where
    the path stays below it up to the last grid point.
    """
    named = np.array([M, model.shock_threshold, model.breakdown_threshold])
    order = np.argsort(named, kind="stable")
    levels = np.repeat(named[order][:, None], n, axis=1)
    grid = _skeleton(horizon, T, delta)
    shape_step = model.degradation.alpha * delta
    # _brackets stops each path at its row-0 level, so it takes the levels
    # highest first; _bisect takes them ascending.
    pos, xa, xb = (
        v[::-1]
        for v in _brackets(
            grid, levels[::-1], shape_step, 1.0 / model.degradation.beta, rng
        )
    )
    index = _bisect(grid, pos, xa, xb, levels, shape_step, rng)
    sigma = np.where(index > 0, index * delta, np.inf)
    return tuple(sigma[np.argsort(order)])
