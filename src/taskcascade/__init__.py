"""Budget-constrained many-task training over task trees.

Model parameters propagate along a rooted tree over tasks: each task is
initialized from its parent's refined parameters and refined for its share
of a global gradient-step budget. The package provides the task data model
and synthetic generator, ten pairwise task distances, tree construction
(minimum spanning, star, uniform random), budget allocation with exact
integerization, the cascade runner with baselines, and numerical
verification of the error-propagation bounds.
"""

__version__ = "0.1.0"

import importlib

# Public names by defining submodule. A submodule is imported the first time
# one of its names is looked up (PEP 562), so ``import taskcascade`` loads
# nothing else and each CLI command compiles and runs only the layers it
# uses; ``from taskcascade import X`` works as before.
_EXPORTS = {
    "budget": ("AllocationScheme", "BudgetAllocation", "allocate", "uniform_default"),
    "cascade": (
        "CascadeResult",
        "ExperimentConfig",
        "run_cascade",
        "run_experiment",
        "run_individual",
        "run_method",
    ),
    "distances": (
        "DistanceMatrix",
        "DistanceParams",
        "METRIC_NAMES",
        "compute_distance_matrix",
        "task_distance",
    ),
    "errors": (
        "ConfigError",
        "DataFormatError",
        "DegenerateDesignError",
        "DivergenceError",
        "GraphError",
        "InfeasibleBudgetError",
        "NonFiniteGramError",
        "ShapeMismatchError",
        "TaskCascadeError",
    ),
    "graph": (
        "RootedTree",
        "build_tree",
        "decode_pruefer",
        "depths",
        "medoid",
        "mst",
        "random_spanning_tree",
        "root_tree",
        "star_tree",
        "topological_order",
    ),
    "linmodel": (
        "Design",
        "build_designs",
        "contraction_rate",
        "lambda_max",
        "refine",
        "ridge_solution",
        "rmse",
    ),
    "tasks": (
        "GroundTruth",
        "SyntheticConfig",
        "TaskCollection",
        "TaskDataset",
        "generate_synthetic",
        "load_collection",
        "save_collection",
    ),
    "theory": (
        "ChainConfig",
        "NoisySpec",
        "PathSpec",
        "cascade_vs_direct",
        "noisy_path_bound",
        "path_bound",
        "verify_bounds",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
