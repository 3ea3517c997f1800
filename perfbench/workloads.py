"""The benchmark's workloads: a generated config and the CLI commands of one round.

Every workload uses the default model and costs of ``configs/default.cfg``;
the benchmark's ``--seed`` becomes the config's master seed, and nothing else
depends on it.  A round runs the workload's commands once, in order, through
``cbmlife.cli.main``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20_260_824


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: float
    T: float
    M: float
    n_samples: int
    commands: tuple[tuple[str, ...], ...]

    def config_text(self, seed: int) -> str:
        return CONFIG_TEMPLATE.format(
            horizon=f"{self.horizon:g}", T=f"{self.T:g}", M=f"{self.M:g}",
            n=self.n_samples, seed=seed,
        )

    def argv(self, command: tuple[str, ...], config: str, out_dir: str) -> list[str]:
        return [*command, "--config", config, "--out-dir", out_dir, "--quiet"]


CONFIG_TEMPLATE = """\
[meta]
schema = 1

[model]
alpha = 0.1
beta = 0.1
lambda1 = 0.01
lambda2 = 0.1
breakdown_threshold = 30
shock_threshold = 20

[costs]
corrective = 300
preventive = 150
inspection = 45
downtime_rate = 25

[life]
horizon = {horizon}

[policy]
inspection_period = {T}
preventive_threshold = {M}

[grid]
T = 5:50:10
M = 1:30:30

[simulation]
n_samples = {n}
path_step =
seed = {seed}
worker_streams = 4
workers = 1
"""

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline task: the optimal policy under both objectives
        # over the default 10 x 30 (T, M) grid.  The only caller of optimize.
        Workload(
            name="grid", horizon=50.0, T=10.0, M=14.0, n_samples=800,
            commands=(
                ("optimize", "--objective", "asymptotic"),
                ("optimize", "--objective", "transient"),
            ),
        ),
        # 550 small table sets (50 models x 11 values of M): per-call
        # overhead of the simulate layer.  The only caller of sensitivity.
        Workload(
            name="sensitivity", horizon=50.0, T=10.0, M=14.0, n_samples=200,
            commands=(("sensitivity", "--target", "gamma", "--fixed", "T=10",
                       "--grid-M", "6:26:11"),),
        ),
        # A 401-point lattice with k_max = 40: the renewal recursions dominate.
        Workload(
            name="long_horizon", horizon=200.0, T=5.0, M=14.0, n_samples=1000,
            commands=(("curves", "--delta", "0.5", "--ir-lo", "0", "--ir-hi", "200"),),
        ),
        # The reference policy at the default n = 50,000 with strict Monte
        # Carlo: the only caller of chain_statistics, and the only workload
        # with large path arrays.
        Workload(
            name="reference", horizon=50.0, T=10.0, M=14.0, n_samples=50_000,
            commands=(("curves", "--strict-mc", "--grid-M", "14:14:1"),),
        ),
    )
}
