"""Cascade execution, baselines, and multi-seed experiment aggregation.

A cascade walks a rooted tree in topological order, initializing every task
from its parent's refined parameters and refining it for its allocated
budget with a per-task step size of 1/lambda_max. Every task's training
design is decomposed once per collection, in one stack with the others, and
its step size and refinement both read that decomposition. Every method
runs on one executor, the one place that turns a design into its step
size: ``individual`` is the forest in which every task is a root refined
from the initial parameters, and ``star`` and ``random_tree`` cascade over
trivial or uninformed trees rooted at the medoid of the distance matrix.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .budget import AllocationScheme, BudgetAllocation, allocate, split_uniform
from .distances import DistanceParams, METRIC_NAMES, compute_distance_matrix
from .errors import ConfigError, DegenerateDesignError, ShapeMismatchError, TaskCascadeError
from .graph import RootedTree, build_tree, depths, save_tree, topological_order
from .linmodel import lambda_max, refine, rmse
from .seeding import derive_seed, substream
from .tasks import SyntheticConfig, TaskCollection, generate_synthetic, load_collection

METHODS = ("individual", "star", "random_tree", "mst")
DEFAULT_MEDOID_METRIC = "gradient"


@dataclass
class CascadeResult:
    """Refined parameters and evaluation metrics of one run."""

    params: dict[int, np.ndarray]
    test_rmse: dict[int, float]
    tree: RootedTree | None  # None marks the no-transfer baseline
    budgets: BudgetAllocation
    task_ids: list[str] = field(default_factory=list)
    steps_executed: int = 0

    def mean_test_rmse(self) -> float:
        # in task order, whatever order the executor evaluated the tasks in
        return float(np.mean([self.test_rmse[i] for i in range(len(self.test_rmse))]))


@dataclass
class ExperimentConfig:
    """Protocol knobs of a multi-seed experiment."""

    method: str
    budget: int
    metric_name: str | None = None
    scheme: AllocationScheme = field(default_factory=AllocationScheme)
    num_seeds: int = 1
    synthetic: SyntheticConfig | None = None
    data_path: str | None = None
    seed: int = 0
    distance_params: DistanceParams = field(default_factory=DistanceParams)
    gaussian_init: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; valid: {METHODS}")
        if self.method == "mst" and self.metric_name is None:
            raise ConfigError("method 'mst' requires metric_name")
        if self.metric_name is not None and self.metric_name not in METRIC_NAMES:
            raise ConfigError(
                f"unknown metric {self.metric_name!r}; valid: {sorted(METRIC_NAMES)}"
            )
        if self.budget < 1:
            raise ConfigError("budget must be positive")
        if self.num_seeds < 1:
            raise ConfigError("num_seeds must be positive")
        if (self.synthetic is None) == (self.data_path is None):
            raise ConfigError("exactly one of synthetic or data_path must be set")


def _check_budgets(collection: TaskCollection, budgets: BudgetAllocation) -> None:
    if set(budgets.per_task) != set(range(len(collection))):
        raise ConfigError("budget allocation does not cover the collection")


# An overflow in refinement or evaluation shows as parameters or a test RMSE
# that are not finite, and both are checked, so numpy need not warn of it.
@np.errstate(over="ignore", invalid="ignore")
def _refine_forest(
    collection: TaskCollection,
    budgets: BudgetAllocation,
    tree: RootedTree | None,
    theta_init: np.ndarray | None,
) -> CascadeResult:
    """Refine and evaluate every task in one pass over the cascade order.

    The order is the tree's topological order, each child starting from its
    parent's refined parameters, or task order without a tree (``None``). A
    root starts from ``theta_init`` (zeros by default). Each task in turn
    steps by 1/lambda_max of its design, is refined and is evaluated, so an
    error names the first failing task in that order.
    """
    _check_budgets(collection, budgets)
    designs = collection.designs
    if theta_init is None:
        theta_init = np.zeros(collection.dim)
    parent = tree.parent if tree is not None else {}
    order = topological_order(tree) if tree is not None else range(len(collection))

    params: dict[int, np.ndarray] = {}
    test_rmse: dict[int, float] = {}
    steps = 0
    for v in order:
        task = collection[v]
        if task.n_test == 0:
            raise ShapeMismatchError(f"task {task.id!r} has no test split to evaluate")
        start_theta = params[parent[v]] if v in parent else theta_init
        b = budgets.per_task[v]
        try:
            eta = 1.0 / lambda_max(designs[v])
            params[v] = refine(start_theta, designs[v], task.y_train, b, eta)
            test_rmse[v] = rmse(params[v], task.X_test, task.y_test)
            if not math.isfinite(test_rmse[v]):
                raise DegenerateDesignError(
                    f"test RMSE is {test_rmse[v]!r}, not finite; "
                    "the task's test entries are too large"
                )
        except TaskCascadeError as exc:
            raise type(exc)(f"task {task.id!r}: {exc}") from exc
        steps += b
    return CascadeResult(
        params=params,
        test_rmse=test_rmse,
        tree=tree,
        budgets=budgets,
        task_ids=collection.ids,
        steps_executed=steps,
    )


def run_cascade(
    collection: TaskCollection,
    tree: RootedTree,
    budgets: BudgetAllocation,
    theta_init: np.ndarray | None = None,
) -> CascadeResult:
    """Execute one cascade over ``tree`` with the given budgets.

    The root's dummy parent is ``theta_init`` (zeros by default). Each task
    steps by 1/lambda_max of its training design.
    """
    return _refine_forest(collection, budgets, tree, theta_init)


def run_individual(
    collection: TaskCollection,
    budgets: BudgetAllocation,
    theta_init: np.ndarray | None = None,
) -> CascadeResult:
    """No-transfer baseline: the forest in which every task is a root.

    Every task is refined from ``theta_init`` (zeros by default) on its own budget.
    """
    return _refine_forest(collection, budgets, None, theta_init)


def _tree(
    config: ExperimentConfig, collection: TaskCollection, seed: int | None
) -> RootedTree | None:
    """The tree a cascade method refines over in the replicate with ``seed``.

    Only ``mmd`` distances and ``random_tree`` trees draw on the seed, so only
    they derive from it, and given ``seed=None`` they give None. Any other
    tree is the same in every replicate and derives no seed (a pooled run's
    parent then never loads numpy.random). ``individual`` has no tree.
    """
    metric = config.metric_name or DEFAULT_MEDOID_METRIC
    kind = "random" if config.method == "random_tree" else config.method
    if kind == "individual" or (seed is None and (kind == "random" or metric == "mmd")):
        return None
    params = config.distance_params
    if metric == "mmd":
        params = replace(params, seed=derive_seed(seed, "dist"))
    matrix = compute_distance_matrix(collection, metric, params)
    if kind == "random":
        return build_tree(matrix, kind, seed)
    return build_tree(matrix, kind)


def run_method(
    config: ExperimentConfig,
    collection: TaskCollection,
    seed: int | None = None,
    *,
    tree: RootedTree | None = None,
) -> CascadeResult:
    """Dispatch one run of the configured method on a concrete collection.

    Distances (hence trees and the medoid root) are computed from training
    splits only. A cascade method given ``tree`` refines over it instead of
    building its own.
    """
    seed = config.seed if seed is None else seed
    T = len(collection)
    theta_init = None
    if config.gaussian_init:
        theta_init = substream(seed, "init").standard_normal(collection.dim)

    if config.method == "individual":
        budgets = BudgetAllocation(
            dict(enumerate(split_uniform(T, config.budget))), config.budget
        )
        return run_individual(collection, budgets, theta_init)
    if tree is None:
        tree = _tree(config, collection, seed)
    budgets = allocate(tree, config.budget, config.scheme)
    return run_cascade(collection, tree, budgets, theta_init)


# What every replicate of a data_path run shares: the loaded collection, with
# its designs, and the tree when no replicate seed enters it (see _tree). Both
# None for a synthetic run, whose replicates each generate their own collection.
_Shared = tuple[TaskCollection | None, RootedTree | None]


def _run_replicate(args: tuple[ExperimentConfig, int, _Shared]) -> CascadeResult:
    """Replicate ``r`` on the loaded collection, or on its own synthetic one."""
    config, r, (collection, tree) = args
    rep_seed = derive_seed(config.seed, "replicate", r)
    if collection is None:
        collection, _ = generate_synthetic(replace(config.synthetic, seed=rep_seed))
    return run_method(config, collection, seed=rep_seed, tree=tree)


# A pool worker's copy of what the replicates share, set once by the pool
# initializer: a forked worker inherits it in memory, where putting it in
# every work item would pickle the whole collection once per replicate.
_worker_shared: _Shared = (None, None)


def _init_worker(*shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _run_pooled_replicate(args: tuple[ExperimentConfig, int]) -> CascadeResult:
    config, r = args
    return _run_replicate((config, r, _worker_shared))


@dataclass
class ExperimentReport:
    """Per-seed and aggregate results of a multi-seed experiment."""

    config: ExperimentConfig
    results: list[CascadeResult]
    per_seed_mean_rmse: list[float]
    mean_rmse: float
    std_rmse: float


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the method over ``num_seeds`` replicates and aggregate test RMSE.

    Replicates are independent: each derives its own seed, regenerates the
    synthetic data, and runs the method. A data path is loaded once and
    shared as-is, with its designs and, where no replicate seed enters it,
    its tree; each replicate reads its step sizes from the shared designs.
    With ``jobs > 1`` replicates run in a process pool; the output is
    identical for any jobs value.
    """
    shared: _Shared = (None, None)
    if config.data_path is not None:
        # Every replicate refines the one loaded collection, so what does
        # not depend on the replicate seed is computed once here.
        loaded = load_collection(config.data_path)
        loaded.designs  # built and kept before any pool worker starts
        shared = (loaded, _tree(config, loaded, None))
    if jobs == 1 or config.num_seeds == 1:
        results = [_run_replicate((config, r, shared)) for r in range(config.num_seeds)]
    else:
        # Imported here, so only a pooled run pays for importing multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=shared
        ) as pool:
            work = [(config, r) for r in range(config.num_seeds)]
            results = list(pool.map(_run_pooled_replicate, work))
    per_seed = [res.mean_test_rmse() for res in results]
    mean = float(np.mean(per_seed))
    std = float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else 0.0
    return ExperimentReport(
        config=config,
        results=results,
        per_seed_mean_rmse=per_seed,
        mean_rmse=mean,
        std_rmse=std,
    )


def write_run_report(report: ExperimentReport, out_dir) -> dict:
    """Write report.json, per_task.csv, and tree.csv into ``out_dir``.

    Everything written here is deterministic for a fixed config and seed;
    wall-clock timing belongs to the run manifest, not the report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    per_task_csv = out / "per_task.csv"
    with per_task_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "task_id", "test_rmse", "budget", "depth"])
        for r, res in enumerate(report.results):
            node_depth = depths(res.tree) if res.tree is not None else {}
            for i, task_id in enumerate(res.task_ids):
                writer.writerow(
                    [
                        r,
                        task_id,
                        repr(res.test_rmse[i]),
                        res.budgets.per_task[i],
                        node_depth.get(i, 0),
                    ]
                )

    tree_csv = None
    first = report.results[0]
    if first.tree is not None:
        tree_csv = "tree.csv"
        save_tree(first.tree, out / tree_csv, ids=first.task_ids)

    doc = {
        "config": asdict(report.config),
        "num_seeds": report.config.num_seeds,
        "per_seed_mean_rmse": report.per_seed_mean_rmse,
        "mean_rmse": report.mean_rmse,
        "std_rmse": report.std_rmse,
        "per_task_csv": per_task_csv.name,
        "tree_csv": tree_csv,
        "total_steps": sum(res.steps_executed for res in report.results),
    }
    with (out / "report.json").open("w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc
