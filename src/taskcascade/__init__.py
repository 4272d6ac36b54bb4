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

from .budget import AllocationScheme, BudgetAllocation, allocate, uniform_default
from .cascade import (
    CascadeResult,
    ExperimentConfig,
    run_cascade,
    run_experiment,
    run_individual,
    run_method,
)
from .distances import (
    DistanceMatrix,
    DistanceParams,
    METRIC_NAMES,
    compute_distance_matrix,
    task_distance,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateDesignError,
    DivergenceError,
    GraphError,
    InfeasibleBudgetError,
    ShapeMismatchError,
    TaskCascadeError,
)
from .graph import (
    RootedTree,
    build_tree,
    decode_pruefer,
    depths,
    medoid,
    mst,
    random_spanning_tree,
    root_tree,
    star_tree,
    topological_order,
)
from .linmodel import (
    contraction_rate,
    default_step_size,
    lambda_max,
    refine,
    ridge_solution,
    rmse,
)
from .tasks import (
    GroundTruth,
    SyntheticConfig,
    TaskCollection,
    TaskDataset,
    generate_synthetic,
    load_collection,
    save_collection,
)
from .theory import (
    ChainConfig,
    NoisySpec,
    PathSpec,
    cascade_vs_direct,
    noisy_path_bound,
    path_bound,
    verify_bounds,
)
