"""Quadrature oracle for the documented model (no Monte Carlo).

The acceptance gate checks the simulation engine against the values computed
here.  The model is the one README and ``cbmlife.model`` document:

* degradation X(t) ~ Gamma(shape alpha*t, rate beta), F_s(a) = P[X(s) < a]
  and f_s its density;
* shocks at rate lambda1 while X < M_s and lambda2 once X >= M_s;
* failure at D = min(sigma_L, Y), sigma_z the first passage of X to z and Y
  the shock time;
* inspections every T, preventive replacement at the first inspection with
  X(kT) >= M, corrective replacement at the first inspection after D (a tie
  is corrective), inspections charged C_I except the replacing one, downtime
  charged C_d per time unit.

The building block is, with c = lambda2 - lambda1,

    H(s; z, a) = E[1{X(s) < a} exp(-lambda1*s - c*(s - sigma_z)^+)]
               = e^{-lambda1 s} [e^{-c s} F_s(a)
                 + int_0^s c e^{-c(s-v)} int_0^{min(z,a)} f_v(y) F_{s-v}(a-y) dy dv],

the probability that a fresh unit is below level a at time s and has seen no
shock when its shock regime switches on reaching z.  The first-cycle tables
follow by conditioning on X((k-1)T) (the Markov property): below M_s the
entering state has sub-density e^{-lambda1 s} f_s(x) and the interval
survival is H(r; M_s - x, L - x); above M_s the regime has switched, so the
interval survival is e^{-lambda2 r} F_r(L - x).  Every integral against f_s
is Gauss-Legendre in u = F_s(x) (nodes placed with ``gammaincinv``), which
absorbs the density's singularity at the origin.

``PYTHONPATH=src python tests/oracle.py [processes]`` evaluates the benchmark
over the default 10 x 30 policy grid (463 s with two processes on a 2-core
x86-64 machine) and prints the minima committed below.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial

import numpy as np
from scipy import integrate, special

NODES = 24
_EPS = 1e-9

# (T, M, cost rate) of the benchmark's oracle minima over the default policy
# grid, as printed by ``main``: the asymptotic and the transient surface, and
# the transient surface's T = 10 row.
ASYMPTOTIC_MIN = (15.0, 11.0, 14.29233)
TRANSIENT_MIN = (30.0, 14.0, 11.016518)
TRANSIENT_T10_MIN = (10.0, 16.0, 13.949671)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


class Oracle:
    """Quadrature evaluation of one parameter set of the documented model."""

    def __init__(self, model, nodes: int = NODES):
        self.alpha = model.degradation.alpha
        self.beta = model.degradation.beta
        self.lam1 = model.shocks.lambda1
        self.lam2 = model.shocks.lambda2
        self.c = self.lam2 - self.lam1
        self.L = model.breakdown_threshold
        self.Ms = model.shock_threshold
        self.u, self.w = _gauss_legendre(nodes)

    # -- primitives --------------------------------------------------------
    def F(self, s, a):
        """P[X(s) < a] for s > 0 (zero for a <= 0)."""
        return special.gammainc(self.alpha * s, self.beta * np.maximum(a, 0.0))

    def _integrate(self, s, lo, hi, g):
        """int_lo^hi f_s(x) g(x) dx, Gauss-Legendre in u = F_s(x).

        ``s``, ``lo`` and ``hi`` broadcast to a common shape; the nodes are
        appended as a last axis, and ``g`` must keep it as its last axis.
        """
        s = np.asarray(s, dtype=float)
        F_lo, F_hi = self.F(s, lo), self.F(s, hi)
        u = F_lo[..., None] + (F_hi - F_lo)[..., None] * self.u
        x = special.gammaincinv(self.alpha * s[..., None], u) / self.beta
        return (F_hi - F_lo) * (g(x) @ self.w)

    def H(self, s, z, a):
        """H(s; z, a) of the module docstring, broadcast over s, z, a (s > 0)."""
        s, z, a = np.broadcast_arrays(*(np.asarray(q, dtype=float) for q in (s, z, a)))
        v = s[..., None] * self.u
        rest = (s[..., None] - v)[..., None]
        below = self._integrate(
            v, 0.0, np.minimum(z, a)[..., None],
            lambda y: self.F(rest, a[..., None, None] - y),
        )
        switched = s * ((self.c * np.exp(-self.c * (s[..., None] - v)) * below) @ self.w)
        return np.exp(-self.lam1 * s) * (np.exp(-self.c * s) * self.F(s, a) + switched)

    def running(self, t: float, M: float) -> float:
        """S(t) = P[X(t) < M, Y > t]: the first cycle is not replaced by t."""
        if t == 0.0:
            return 1.0
        if M <= self.Ms:
            return float(math.exp(-self.lam1 * t) * self.F(t, M))
        return float(self.H(t, self.Ms, M))

    def surviving(self, s: float, M: float, r: np.ndarray) -> np.ndarray:
        """P[X(s) < M, D > s + r]: not replaced by inspection s, no failure by s + r."""
        r = np.asarray(r, dtype=float)
        if s == 0.0:
            return self.H(r, self.Ms, self.L)
        s_ = np.asarray(s, dtype=float)
        shock_free = math.exp(-self.lam1 * s)
        total = shock_free * self._integrate(
            s_, 0.0, min(M, self.Ms),
            lambda x: self.H(r[:, None], self.Ms - x, self.L - x),
        )
        if M <= self.Ms:
            return total

        def within(x):
            rr = r.reshape((-1,) + (1,) * x.ndim)
            return np.exp(-self.lam2 * rr) * self.F(rr, self.L - x)

        # Entering states in [M_s, M): the shock factor up to s splits as in
        # H into an e^{-cs} term and an integral over v < s with X(v) < M_s.
        total = total + shock_free * math.exp(-self.c * s) * self._integrate(
            s_, self.Ms, M, within
        )
        v = s * self.u
        crossed = self._integrate(
            v, 0.0, self.Ms,
            lambda y: self._integrate(
                (s - v)[:, None], self.Ms - y, M - y,
                lambda x: within(y[..., None] + x),
            ),
        )
        return total + shock_free * s * (
            (self.c * np.exp(-self.c * (s - v)) * crossed) @ self.w
        )

    def alive(self, T: float, M: float, times) -> np.ndarray:
        """alive(t) = P[no replacement by inspection kf T, D > t] at each time t.

        kf = floor(t/T) is the last inspection at or before t: at an
        inspection epoch alive(t) is S(t) = running(t, M), and between two
        it is surviving(kf T, M, t - kf T).
        """
        times = np.asarray(times, dtype=float)
        kf = np.floor(times / T + _EPS).astype(int)
        r = times - kf * T
        out = np.empty(len(times))
        for k in np.unique(kf):
            epoch, rest = (kf == k) & (np.abs(r) <= _EPS), (kf == k) & (r > _EPS)
            out[epoch] = self.running(k * T, M)
            if rest.any():
                out[rest] = self.surviving(k * T, M, r[rest])
        return out

    # -- failure laws --------------------------------------------------------
    def mean_degradation_failure_time(self) -> float:
        """E[sigma_L] = int_0^inf P[X(t) < L] dt."""
        value, _ = integrate.quad(
            lambda t: special.gammainc(self.alpha * t, self.beta * self.L),
            0.0, np.inf, limit=200,
        )
        return value

    def mean_shock_time(self) -> float:
        """E[Y] = int_0^inf H(t; M_s, inf) dt.

        Integrating the regime term over t first leaves
        1/lambda2 + (c/lambda2) int_0^inf e^{-lambda1 v} F_v(M_s) dv.
        """
        value, _ = integrate.quad(
            lambda v: math.exp(-self.lam1 * v)
            * special.gammainc(self.alpha * v, self.beta * self.Ms),
            0.0, np.inf, limit=200,
        )
        return 1.0 / self.lam2 + self.c / self.lam2 * value

    # -- policies ------------------------------------------------------------
    def renewal_count(self, T: float, M: float, horizon: float) -> float:
        """E[N(t_f)] from the discrete renewal equation m_j = sum_k q_k (1 + m_{j-k})."""
        n = int(math.floor(horizon / T + _EPS))
        S = [self.running(k * T, M) for k in range(n + 1)]
        q = [0.0] + [S[k - 1] - S[k] for k in range(1, n + 1)]
        m = [0.0] * (n + 1)
        for j in range(1, n + 1):
            m[j] = sum(q[k] * (1.0 + m[j - k]) for k in range(1, j + 1))
        return m[n]

    def cycle_tables(self, T: float, M: float, horizon: float) -> dict:
        """First-cycle tables on k = 1..n (n = floor(t_f/T); index 0 unused).

        ``p_p``/``p_c``: replacement probabilities at kT; ``jw``: E[(kT - D);
        corrective at kT]; ``resid``: E[downtime after the last inspection
        jT on (jT, jT + r0]; no replacement by jT], r0 = t_f - nT.
        """
        n = int(math.floor(horizon / T + _EPS))
        r0 = horizon - n * T
        r0 = 0.0 if r0 < _EPS else r0
        S = np.array([self.running(k * T, M) for k in range(n + 1)])
        p_p, p_c, jw, resid = (np.zeros(n + 1) for _ in range(4))
        nodes = len(self.u)
        tail = r0 * self.u if r0 > 0.0 else np.empty(0)
        r = np.concatenate(([T], T * self.u, tail))
        for k in range(1, n + 1 + (r0 > 0.0)):
            Q = self.surviving((k - 1) * T, M, r)
            if k <= n:
                p_c[k] = S[k - 1] - Q[0]
                p_p[k] = Q[0] - S[k]
                jw[k] = T * (S[k - 1] - Q[1 : 1 + nodes] @ self.w)
            if r0 > 0.0:
                resid[k - 1] = r0 * (S[k - 1] - Q[1 + nodes :] @ self.w)
        return {"n": n, "p_p": p_p, "p_c": p_c, "jw": jw, "resid": resid}

    def cost_rates(self, costs, T: float, M: float, horizon: float) -> tuple[float, float]:
        """(asymptotic cost rate truncated at k = n, transient rate E[C(t_f)]/t_f)."""
        tab = self.cycle_tables(T, M, horizon)
        n, p_p, p_c, jw = tab["n"], tab["p_p"], tab["p_c"], tab["jw"]
        Cc, Cp, CI, Cd = (costs.corrective, costs.preventive,
                          costs.inspection, costs.downtime_rate)
        k = np.arange(n + 1)
        q = p_p + p_c
        reward = Cp * p_p + Cc * p_c + CI * (k - 1) * q + Cd * jw
        reward[0] = 0.0
        asymptotic = reward.sum() / (T * (k * q).sum())
        # E[C] on the lattice t_j = r0 + jT: renewal at kT <= t_j restarts
        # the clock, otherwise the j inspections and the residual downtime
        # of the running cycle are charged.
        C = np.zeros(n + 1)
        for j in range(n + 1):
            ks = k[1 : j + 1]
            C[j] = (
                reward[ks].sum()
                + (q[ks] * C[j - ks]).sum()
                + j * CI * (1.0 - q[ks].sum())
                + Cd * tab["resid"][j]
            )
        return float(asymptotic), float(C[n] / horizon)


@lru_cache(maxsize=None)
def cell_cost_rates(model, costs, horizon: float, T: float, M: float):
    """Cached (asymptotic, transient) oracle cost rates of the policy (T, M)."""
    return Oracle(model).cost_rates(costs, float(T), float(M), horizon)


def _benchmark():
    """The benchmark parameter set of the acceptance gate."""
    from cbmlife.model import CostStructure, GammaDegradation, ShockIntensity, SystemModel

    model = SystemModel(
        degradation=GammaDegradation(alpha=0.1, beta=0.1),
        shocks=ShockIntensity(lambda1=0.01, lambda2=0.1),
        breakdown_threshold=30.0,
        shock_threshold=20.0,
    )
    costs = CostStructure(corrective=300.0, preventive=150.0,
                          inspection=45.0, downtime_rate=25.0)
    return model, costs, 50.0


def _minimum(T_values, M_values, surface: np.ndarray) -> tuple[float, float, float]:
    i, j = np.unravel_index(int(surface.argmin()), surface.shape)
    return (T_values[i], M_values[j], round(float(surface[i, j]), 6))


def main(argv: list[str]) -> None:
    processes = int(argv[0]) if argv else 1
    model, costs, horizon = _benchmark()
    oracle = Oracle(model)
    print(f"E[sigma_L] = {oracle.mean_degradation_failure_time():.4f}")
    print(f"E[Y] = {oracle.mean_shock_time():.4f}")
    for T in (5.0, 10.0, 30.0, 45.0):
        print(f"E[N({horizon:g})] at T={T:g}, M=14: "
              f"{oracle.renewal_count(T, 14.0, horizon):.4f}")
    T_values = [float(T) for T in np.linspace(5.0, 50.0, 10)]
    M_values = [float(M) for M in np.linspace(1.0, 30.0, 30)]
    cells = [(T, M) for T in T_values for M in M_values]
    start = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=processes, mp_context=spawn) as pool:
        values = list(pool.map(
            partial(cell_cost_rates, model, costs, horizon), *zip(*cells)))
    print(f"grid of {len(cells)} cells in {time.perf_counter() - start:.0f}s "
          f"with {processes} process(es)")
    shape = (len(T_values), len(M_values))
    surfaces = {
        name: np.array([v[index] for v in values]).reshape(shape)
        for index, name in enumerate(("asymptotic", "transient"))
    }
    for name, surface in surfaces.items():
        rows = surface.min(axis=1)
        print(f"{name} row minima: " + ", ".join(
            f"T={T:g}: {v:.4f} (M={M_values[int(surface[i].argmin())]:g})"
            for i, (T, v) in enumerate(zip(T_values, rows))))
    print("transient T=10 row: " + ", ".join(
        f"M={M:g}: {v:.4f}" for M, v in zip(M_values, surfaces["transient"][1])))
    print(f"ASYMPTOTIC_MIN = {_minimum(T_values, M_values, surfaces['asymptotic'])}")
    print(f"TRANSIENT_MIN = {_minimum(T_values, M_values, surfaces['transient'])}")
    row10 = surfaces["transient"][1:2]
    print(f"TRANSIENT_T10_MIN = {_minimum(T_values[1:2], M_values, row10)}")


if __name__ == "__main__":
    main(sys.argv[1:])
