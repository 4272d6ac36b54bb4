"""Any input either runs to finite output or is rejected naming its task or pair.

Small collections in which one task, or every task, has an adversarial design
and targets go through every metric, every tree kind and both executor paths
in-process, with warnings as errors. A run may end in a package error that is
a ``ValueError`` (the CLI's exit 2) whose message names a task or a pair of
tasks; a bare numpy exception, a warning or a ``DivergenceError`` (exit 1)
fails the test.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade.budget import AllocationScheme, allocate, split_uniform
from taskcascade.cascade import run_cascade, run_individual
from taskcascade.distances import METRIC_NAMES, compute_distance_matrix
from taskcascade.errors import TaskCascadeError
from taskcascade.graph import TREE_KINDS, build_tree
from taskcascade.tasks import TaskCollection, TaskDataset

T = 3
IDS = [f"t{i}" for i in range(T)]
SCALES = (0.0, 5e-324, 1e-300, 1e-160, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e160, 1e300,
          1e308)
KINDS = ("gaussian", "constant_columns", "repeated_rows", "small_integers")


def _design(rng, kind, n, d):
    if kind == "small_integers":
        return rng.integers(-2, 3, (n, d)).astype(float), rng.integers(0, 3, n) * 1.0
    X, y = rng.standard_normal((n, d)), rng.standard_normal(n)
    if kind == "constant_columns":
        X[:, : max(d // 2, 1)] = 1.0
    elif kind == "repeated_rows":
        X[:], y[:] = X[0], y[0]
    return X, y


@st.composite
def adversarial_tasks(draw):
    """T tasks of one dimension; the adversarial ones have a drawn kind and
    their features and targets each scaled by a drawn factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    d = draw(st.sampled_from([1, 3]))
    bad = draw(st.sampled_from(["one", "all"]))
    tasks = []
    for i, task_id in enumerate(IDS):
        if bad == "all" or i == 1:
            kind = draw(st.sampled_from(KINDS))
            n = draw(st.sampled_from([1, 2, 8]))  # n = 1, n < d when d = 3, n > d
            x_scale, y_scale = draw(st.sampled_from(SCALES)), draw(st.sampled_from(SCALES))
        else:
            kind, n, x_scale, y_scale = "gaussian", 8, 1.0, 1.0
        X, y = _design(rng, kind, n, d)
        Xt, yt = _design(rng, kind, 4, d)
        # A product such as 1e308 * 2.0 overflows to inf, which the task's
        # own finite check names.
        with np.errstate(over="ignore", invalid="ignore"):
            tasks.append((task_id, X * x_scale, y * y_scale, Xt * x_scale, yt * y_scale))
    return d, tasks


def _checked(run):
    """``run()``, or None when it raises an exit-2 error naming a task or pair."""
    try:
        return run()
    except TaskCascadeError as exc:
        assert isinstance(exc, ValueError), f"{type(exc).__name__}: {exc}"
        assert re.search(r"'t\d'", str(exc)), f"{type(exc).__name__}: {exc}"
        return None


def _finite(result):
    assert all(np.isfinite(theta).all() for theta in result.params.values())
    assert all(np.isfinite(v) for v in result.test_rmse.values())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=adversarial_tasks())
def test_any_input_runs_finite_or_is_rejected_naming_its_task(drawn):
    d, splits = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        collection = _checked(
            lambda: TaskCollection([TaskDataset(*split) for split in splits], d)
        )
        if collection is None:
            return
        budgets = split_uniform(T, 6 * T)
        result = _checked(lambda: run_individual(collection, budgets))
        if result is not None:
            _finite(result)
        for metric in METRIC_NAMES:
            matrix = _checked(lambda: compute_distance_matrix(collection, metric))
            if matrix is None:
                continue
            for kind in TREE_KINDS:
                tree = build_tree(matrix, kind, 0)
                tree_budgets = allocate(tree, 6 * T, AllocationScheme())
                result = _checked(lambda: run_cascade(collection, tree, tree_budgets))
                if result is not None:
                    _finite(result)


def test_a_design_whose_top_eigenvector_misses_the_start_vector_refines():
    # Found by the search above with more examples than it runs: task t1 of
    # small integers, n = 2 < d = 3. Its X^T X has eigenvalues 0, 3 and 8.
    # Power iteration's all-ones start is orthogonal to the eigenvector of 8,
    # so its estimate is 3, and a step of 1/3 would diverge; lambda_max
    # gives 8.
    rng = np.random.default_rng(0)
    X = np.array([[0.0, 2.0, -2.0], [1.0, 1.0, 1.0]])
    tasks = [TaskDataset(task_id, rng.standard_normal((8, 3)), rng.standard_normal(8),
                         rng.standard_normal((4, 3)), rng.standard_normal(4))
             for task_id in IDS]
    tasks[1] = TaskDataset("t1", X, np.ones(2), X, np.ones(2))
    budgets = split_uniform(T, 6 * T)
    _finite(run_individual(TaskCollection(tasks, 3), budgets))
