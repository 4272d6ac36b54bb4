"""Every config dataclass checks its values when it is built."""

import re

import pytest

from taskcascade.budget import AllocationScheme, BudgetAllocation
from taskcascade.cascade import ExperimentConfig
from taskcascade.distances import DistanceParams
from taskcascade.errors import ConfigError
from taskcascade.tasks import SyntheticConfig
from taskcascade.theory import ChainConfig, NoisySpec, PathSpec


@pytest.mark.parametrize("build, message", [
    (lambda: DistanceParams(rff_dim=0), "rff_dim must be positive"),
    (lambda: AllocationScheme(alpha=0.0), "alpha, beta and epsilon must be positive"),
    (lambda: PathSpec(rhos=[1.0], budgets=[1], deltas=[0.5]),
     "contraction rates must lie in [0, 1)"),
    (lambda: NoisySpec(PathSpec([0.5], [1], [0.5]), sigmas=[-1.0], a_frob=[1.0]),
     "sigmas and a_frob must be nonnegative"),
    (lambda: BudgetAllocation({0: 2, 1: 1}, 4), "per-task budgets sum to 3, expected 4"),
    (lambda: SyntheticConfig(num_tasks=0), "num_tasks must be >= 1, got 0"),
    (lambda: ExperimentConfig(method="mst", metric_name="gradient", budget=0,
                              data_path="x"), "budget must be positive"),
    (lambda: ChainConfig(length=2, dim=5, n=3),
     "need n >= dim for a positive-definite design"),
], ids=["DistanceParams", "AllocationScheme", "PathSpec", "NoisySpec",
        "BudgetAllocation", "SyntheticConfig", "ExperimentConfig", "ChainConfig"])
def test_config_rejects_a_bad_value_when_built(build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()
