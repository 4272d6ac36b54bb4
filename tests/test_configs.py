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
     "sigmas and a_frob must be finite and nonnegative"),
    (lambda: BudgetAllocation({0: 2, 1: 1}, 4), "per-task budgets sum to 3, expected 4"),
    (lambda: SyntheticConfig(num_tasks=0), "num_tasks must be >= 1, got 0"),
    (lambda: ExperimentConfig(method="mst", metric_name="gradient", budget=0,
                              data_path="x"), "budget must be positive"),
    (lambda: ChainConfig(length=2, dim=5, n=3),
     "need n >= dim for a positive-definite design"),
    (lambda: DistanceParams(hist_bins=0), "hist_bins must be positive"),
    (lambda: DistanceParams(hist_smoothing=0.0), "hist_smoothing must be positive"),
    (lambda: BudgetAllocation({0: -1, 1: 2}, 1), "budgets must be nonnegative"),
    (lambda: SyntheticConfig(num_tasks=2, n_test=-1), "n_test must be >= 0, got -1"),
    (lambda: PathSpec(rhos=[0.5], budgets=[-1], deltas=[0.5]),
     "budgets must be nonnegative"),
    (lambda: PathSpec(rhos=[0.5], budgets=[1], deltas=[-1.0]),
     "edge lengths must be finite and nonnegative"),
    (lambda: PathSpec(rhos=[0.5], budgets=[1], deltas=[0.5], init_error=float("inf")),
     "init_error must be finite and nonnegative"),
    (lambda: ChainConfig(length=2, dim=0), "dim must be positive"),
    (lambda: ChainConfig(length=2, root_budget=-1), "budgets must be nonnegative"),
    (lambda: ChainConfig(length=2, spacing=-1.0),
     "spacing and noise_sigma must be nonnegative"),
    (lambda: ChainConfig(length=2, noise_draws=0), "noise_draws must be positive"),
    (lambda: NoisySpec(PathSpec([0.5], [1], [0.5]), sigmas=[float("nan")], a_frob=[1.0]),
     "sigmas and a_frob must be finite and nonnegative"),
    (lambda: NoisySpec(PathSpec([0.5], [1], [0.5]), sigmas=[0.0], a_frob=[float("inf")]),
     "sigmas and a_frob must be finite and nonnegative"),
    (lambda: ExperimentConfig(method="individual", budget=2**53 + 1, data_path="x"),
     f"budget must be at most 2**53, got {2**53 + 1}"),
    (lambda: ExperimentConfig(method="star", budget=10,
                              synthetic=SyntheticConfig(num_tasks=2, seed=99)),
     "synthetic.seed must be 0; each replicate derives it"),
    (lambda: ExperimentConfig(method="mst", metric_name="mmd", budget=10, data_path="x",
                              distance_params=DistanceParams(seed=99)),
     "distance_params.seed must be 0; each replicate derives it"),
], ids=["DistanceParams", "AllocationScheme", "PathSpec", "NoisySpec",
        "BudgetAllocation", "SyntheticConfig", "ExperimentConfig", "ChainConfig",
        "DistanceParams-hist_bins", "DistanceParams-hist_smoothing",
        "BudgetAllocation-negative", "SyntheticConfig-n_test", "PathSpec-budgets",
        "PathSpec-deltas", "PathSpec-init_error", "ChainConfig-dim", "ChainConfig-budgets",
        "ChainConfig-spacing", "ChainConfig-noise_draws", "NoisySpec-sigmas",
        "NoisySpec-a_frob", "ExperimentConfig-budget", "ExperimentConfig-synthetic.seed",
        "ExperimentConfig-distance_params.seed"])
def test_config_rejects_a_bad_value_when_built(build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()
