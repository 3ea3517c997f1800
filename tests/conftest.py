from collections import Counter

import numpy as np
import pytest

from cbmlife.model import (
    CostStructure,
    GammaDegradation,
    LifeCycle,
    MaintenancePolicy,
    ShockIntensity,
    SystemModel,
)
from cbmlife.simulate import SimulationConfig, chain_statistics, estimate_tables

SEED = 20_260_824


def _counted(name):
    base = getattr(np.random.Generator, name)

    def sample(self, *args, **kwargs):
        out = base(self, *args, **kwargs)
        self.counts[name] += int(np.size(out))
        self.calls[name] += 1
        self.largest[name] = max(self.largest[name], int(np.size(out)))
        return out

    return sample


class CountingGenerator(np.random.Generator):
    """``default_rng(seed)``'s generator, counting the variates it draws.

    It draws from the same PCG64 bit generator, so its draws are
    ``default_rng(seed)``'s; ``counts[name]`` is the number of variates its
    ``name`` sampler has returned, ``calls[name]`` the number of calls, and
    ``largest[name]`` the most variates one call returned.
    """

    beta = _counted("beta")
    exponential = _counted("exponential")
    gamma = _counted("gamma")

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.counts = Counter()
        self.calls = Counter()
        self.largest = Counter()


@pytest.fixture
def counting_rng():
    """Build a CountingGenerator from a seed."""
    return CountingGenerator


@pytest.fixture(scope="session")
def ref_model():
    return SystemModel(
        degradation=GammaDegradation(alpha=0.1, beta=0.1),
        shocks=ShockIntensity(lambda1=0.01, lambda2=0.1),
        breakdown_threshold=30.0,
        shock_threshold=20.0,
    )


@pytest.fixture(scope="session")
def ref_costs():
    return CostStructure(
        corrective=300.0, preventive=150.0, inspection=45.0, downtime_rate=25.0
    )


@pytest.fixture(scope="session")
def ref_life():
    return LifeCycle(horizon=50.0)


@pytest.fixture(scope="session")
def ref_policy():
    return MaintenancePolicy(inspection_period=10.0, preventive_threshold=14.0)


@pytest.fixture(scope="session")
def cfg_full():
    return SimulationConfig(n_samples=50_000, master_seed=SEED, worker_streams=4)


@pytest.fixture(scope="session")
def cfg_small():
    return SimulationConfig(n_samples=5_000, master_seed=SEED, worker_streams=4)


@pytest.fixture(scope="session")
def tables_full(ref_model, ref_policy, ref_life, cfg_full):
    """Reference-policy tables at the production sample size."""
    return estimate_tables(ref_model, ref_policy, ref_life, cfg_full)


@pytest.fixture(scope="session")
def tables_small(ref_model, ref_policy, ref_life, cfg_small):
    return estimate_tables(ref_model, ref_policy, ref_life, cfg_small)


@pytest.fixture(scope="session")
def strict_full(ref_model, ref_policy, ref_costs, ref_life, cfg_full):
    """Chained (strict Monte Carlo) counts and costs at the reference policy."""
    return chain_statistics(ref_model, ref_policy, ref_costs, ref_life, cfg_full)
