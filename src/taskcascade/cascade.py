"""Cascade execution, baselines, and multi-seed experiment aggregation.

A cascade walks a rooted tree in its breadth-first order, initializing every
task from its parent's refined parameters and refining it for its allocated
budget with a per-task step size of 1/lambda_max. Every task's training
design is decomposed once per collection, in one stack with the others, and
its step size and refinement both read that decomposition. Every method
runs on one executor, ``run_cascade``, the one place that turns a design
into its step size: ``individual`` is the forest (``tree=None``) in which
every task is a root refined from the initial parameters, and ``star`` and
``random_tree`` cascade over trivial or uninformed trees rooted at the
medoid of the distance matrix. ``_tree`` alone decides which runs share a tree.
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
from .graph import RootedTree, build_tree, depths, save_tree
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
        if self.budget > 2**53:  # the root's share, seed_fraction * budget, is a float
            raise ConfigError(f"budget must be at most 2**53, got {self.budget}")
        if self.num_seeds < 1:
            raise ConfigError("num_seeds must be positive")
        if (self.synthetic is None) == (self.data_path is None):
            raise ConfigError("exactly one of synthetic or data_path must be set")
        for key in ("synthetic", "distance_params"):  # a None synthetic has no seed
            if getattr(getattr(self, key), "seed", 0) != 0:
                raise ConfigError(f"{key}.seed must be 0; each replicate derives it")


# An overflow in refinement or evaluation shows as parameters or a test RMSE
# that are not finite, and both are checked, so numpy need not warn of it.
@np.errstate(over="ignore", invalid="ignore")
def run_cascade(
    collection: TaskCollection,
    tree: RootedTree | None,
    budgets: BudgetAllocation,
    theta_init: np.ndarray | None = None,
) -> CascadeResult:
    """Refine and evaluate every task in one pass over the cascade order.

    The order is ``tree.order``, each child starting from its parent's
    refined parameters; ``tree=None`` is the forest, every task a root in
    task order. A root starts from ``theta_init`` (zeros by default). Each
    task in turn steps by 1/lambda_max of its design, is refined and is
    evaluated, so an error names the first failing task in that order.
    """
    if set(budgets.per_task) != set(range(len(collection))):
        raise ConfigError("budget allocation does not cover the collection")
    designs = collection.designs
    if theta_init is None:
        theta_init = np.zeros(collection.dim)
    parent = tree.parent if tree is not None else {}
    order = tree.order if tree is not None else range(len(collection))

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


def run_individual(
    collection: TaskCollection,
    budgets: BudgetAllocation,
    theta_init: np.ndarray | None = None,
) -> CascadeResult:
    """No-transfer baseline: ``run_cascade`` over the forest (``tree=None``)."""
    return run_cascade(collection, None, budgets, theta_init)


def _tree(config: ExperimentConfig, collection: TaskCollection,
          seed: int | tuple) -> RootedTree:
    """The tree a cascade method refines over in the replicate with ``seed``,
    kept in ``collection.trees`` under all it depends on (its kind, metric,
    distance parameters with ``mmd``'s derived seed, and a random tree's
    ``seed``), beside the one distance matrix its metric and parameters give."""
    metric = config.metric_name or DEFAULT_MEDOID_METRIC
    kind = "random" if config.method == "random_tree" else config.method
    params = config.distance_params
    if metric == "mmd":
        params = replace(params, seed=derive_seed(seed, "dist"))
    dist_key = (metric, repr(params))
    key = (kind, *dist_key, seed if kind == "random" else None)
    if key not in collection.trees:
        if dist_key not in collection.trees:
            collection.trees[dist_key] = compute_distance_matrix(collection, metric, params)
        collection.trees[key] = build_tree(collection.trees[dist_key], kind, seed)
    return collection.trees[key]


def run_method(
    config: ExperimentConfig, collection: TaskCollection, seed: int | tuple | None = None
) -> CascadeResult:
    """Dispatch one run of the configured method on a concrete collection.

    Distances (hence trees and the medoid root) are computed from training
    splits only; a cascade method refines over the tree ``_tree`` gives.
    ``seed`` may be a ``(seed, *labels)`` tuple, derived only if the run draws.
    """
    seed = config.seed if seed is None else seed
    theta_init = None
    if config.gaussian_init:
        theta_init = substream(seed, "init").standard_normal(collection.dim)

    if config.method == "individual":
        tree, budgets = None, split_uniform(len(collection), config.budget)
    else:
        tree = _tree(config, collection, seed)
        budgets = allocate(tree, config.budget, config.scheme)
    return run_cascade(collection, tree, budgets, theta_init)


# The last serial synthetic run's collections, with their designs and trees, by
# the repr of each replicate's SyntheticConfig, derived seed and all (unlike ==,
# a repr tells -0.0 from 0.0). A serial sweep on one data set reuses them.
_kept: dict[str, TaskCollection] = {}


def _run_replicate(args: tuple[ExperimentConfig, int, TaskCollection | None],
                   kept=None) -> CascadeResult:
    """Replicate ``r`` on the loaded collection, or on its own synthetic one,
    taken from ``kept`` and added to it when given. Its seed is the tuple
    ``(config.seed, "replicate", r)``, derived here for synthetic data only."""
    config, r, collection = args
    rep_seed = (config.seed, "replicate", r)
    if collection is None:
        data = replace(config.synthetic, seed=derive_seed(*rep_seed))
        kept = {} if kept is None else kept  # a pooled replicate keeps nothing
        if repr(data) not in kept:
            kept[repr(data)] = generate_synthetic(data)[0]
        collection = kept[repr(data)]
    return run_method(config, collection, seed=rep_seed)


# A pool worker's copy of the loaded collection (None for synthetic data), set
# once by the pool initializer: a forked worker inherits it in memory, where
# every work item would pickle the whole collection once per replicate.
_worker_collection: TaskCollection | None = None


def _init_worker(collection: TaskCollection | None) -> None:
    global _worker_collection
    _worker_collection = collection


def _run_pooled_replicate(args: tuple[ExperimentConfig, int]) -> CascadeResult:
    config, r = args
    return _run_replicate((config, r, _worker_collection))


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

    Replicates are independent: each derives its own seed, and from it its
    synthetic data, and runs the method. A serial run keeps its synthetic
    collections, designs and trees for the next serial run on the same data
    (``_kept``). A data path is loaded once and shared as-is, with its
    designs and trees. With ``jobs > 1`` and more than one replicate,
    replicates run in a process pool of ``min(jobs, num_seeds)`` workers,
    which keep nothing; the output is identical for any jobs value.
    """
    # a fork pool starts all its workers at once, so none beyond the replicates
    workers = min(jobs, config.num_seeds)
    # Drop what this run will not keep before it builds anything; a pool keeps none.
    own = {repr(replace(config.synthetic, seed=derive_seed(config.seed, "replicate", r)))
           for r in range(config.num_seeds) if workers == 1 and config.data_path is None}
    for key in _kept.keys() - own:
        del _kept[key]
    loaded = None
    if config.data_path is not None:
        loaded = load_collection(config.data_path)
        loaded.designs  # built and kept before any pool worker starts
    if workers == 1:
        results = [_run_replicate((config, r, loaded), _kept)
                   for r in range(config.num_seeds)]
    else:
        # Imported here, so only a pooled run pays for importing multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(loaded,)
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
