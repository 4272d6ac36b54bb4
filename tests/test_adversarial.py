"""Any input either runs to finite output or is rejected naming its task or pair.

Small collections in which one task, or every task, has an adversarial design
and targets go through every metric, every tree kind and both executor paths
in-process, with warnings as errors. A run may end in a package error that is
a ``ValueError`` (the CLI's exit 2) whose message names a task or a pair of
tasks; a bare numpy exception, a warning or a ``DivergenceError`` (exit 1)
fails the test.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade.budget import (
    SCHEME_KINDS,
    AllocationScheme,
    BudgetAllocation,
    allocate,
    split_uniform,
)
from taskcascade.cascade import run_cascade, run_individual
from taskcascade.distances import METRIC_NAMES, compute_distance_matrix
from taskcascade.errors import TaskCascadeError
from taskcascade.graph import TREE_KINDS, RootedTree, build_tree
from taskcascade.linmodel import contraction_rate, lambda_max
from taskcascade.tasks import TaskCollection, TaskDataset
from taskcascade.theory import PathSpec, path_bound

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


# The paper's per-edge bound. Gradient descent on least squares moves the
# gap to any least-squares solution theta_hat_v by M^b, M = I - eta X^T X,
# so e_v = ||theta_v - theta_hat_v|| <= rho_v^b_v (e_u + delta_uv), with
# e_u the parent's error and delta_uv = ||theta_hat_u - theta_hat_v|| (the
# triangle inequality); a root starts from theta_init, its e_u + delta the
# gap ||theta_init - theta_hat_v||. theta_hat comes from np.linalg.lstsq.
#
# Slack, for rounding only. Relative to the bound: rho is 1 - eta lam
# rounded, within an ulp or two of the rates refine applies, and rho**b
# multiplies that by at most b <= MAX_STEPS, so b * 4 ulps; the norms and
# the sum and product add d + 4 more. Absolute, in ulps of three scales:
# - refine forms V (z0 + p (c / lam - z0)) with z0 = V^T theta_u, which
#   rounds at the scale of the start theta_u and of theta_hat_v;
# - c = V^T X^T y is a sum of terms up to ||X||_F ||y||, so direction i of
#   refine's target c / lam, and of lstsq's solution, is off by ulps of
#   ||X||_F ||y|| / lam_i. Refinement moves direction i by the share
#   1 - r_i^b <= min(1, b eta lam_i) of the way, with eta = 1 / lam_max, so
#   that error reaches theta_v as ulps of ||X||_F ||y|| min(1 / lam_i, b / lam_max).
#   Only eigenvalues above d * eps * lam_max count: refine holds the others
#   still, so they add as much to the bound as to the error.
MAX_STEPS = 256
EPS = np.finfo(np.float64).eps


def _slack(bound, b, task, start, theta_hat):
    d = task.dim
    lam = np.linalg.eigvalsh(task.X_train.T @ task.X_train)
    lam = lam[lam > d * EPS * lam[-1]]
    sums = np.linalg.norm(task.X_train) * np.linalg.norm(task.y_train)
    reach = sums * min(1 / lam[0], b / lam[-1])
    scale = np.linalg.norm(start) + np.linalg.norm(theta_hat) + reach
    return (4 * b + d + 4) * EPS * bound + 64 * EPS * scale


@st.composite
def bounded_cascades(draw):
    """A collection of 2 to 6 tasks of dimension 1 or 3 whose Gaussian designs
    are full rank (n = 8) or wide (n < d), each at a drawn scale; a tree of a
    drawn kind, or the forest, over a drawn metric; budgets from a drawn
    scheme or drawn per task, zeros allowed; and a drawn theta_init."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, T = draw(st.sampled_from([1, 3])), draw(st.integers(2, 6))
    tasks = []
    for i in range(T):
        n = draw(st.sampled_from([1, 2, 8] if d == 3 else [1, 8]))
        X, y = _design(rng, "gaussian", n, d)
        Xt, yt = _design(rng, "gaussian", 4, d)
        scale = 10.0 ** draw(st.integers(-3, 3))
        tasks.append(TaskDataset(f"t{i}", X * scale, y, Xt * scale, yt))
    collection = TaskCollection(tasks, d)
    kind = draw(st.sampled_from([*TREE_KINDS, None]))
    tree = None
    if kind is not None:
        matrix = compute_distance_matrix(collection, draw(st.sampled_from(["gradient", "model"])))
        tree = build_tree(matrix, kind, draw(st.integers(0, 100)))
    scheme = draw(st.sampled_from([*SCHEME_KINDS, "drawn"]))
    if scheme == "drawn":
        steps = draw(st.lists(st.integers(0, MAX_STEPS), min_size=T, max_size=T))
        budgets = BudgetAllocation(dict(enumerate(steps)), sum(steps))
    elif tree is None:
        budgets = split_uniform(T, draw(st.integers(T, T * MAX_STEPS)))
    else:
        seed_fraction = draw(st.sampled_from([0.0, 0.1, 0.5]))
        budgets = allocate(tree, draw(st.integers(T, MAX_STEPS)),
                           AllocationScheme(scheme, seed_fraction=seed_fraction))
    theta_init = rng.standard_normal(d) * draw(st.sampled_from([0.0, 1.0, 100.0]))
    return collection, tree, budgets, theta_init


def _check_bound(collection, tree, budgets, theta_init):
    """Every task's error within its per-edge bound, and, along every path
    whose rates are below 1, theory.path_bound equal to the recursion."""
    result = run_cascade(collection, tree, budgets, theta_init)
    designs, norm = collection.designs, np.linalg.norm
    hat = [np.linalg.lstsq(t.X_train, t.y_train, rcond=None)[0] for t in collection]
    parent = tree.parent if tree is not None else {}
    # each task's path: its (rhos, budgets, deltas, init_error), the
    # recursion's bound and the sum of the slacks of its edges
    path = {}
    for v in (tree.order if tree is not None else range(len(collection))):
        rho = contraction_rate(designs[v], 1.0 / lambda_max(designs[v]))
        b, u = budgets.per_task[v], parent.get(v)
        if u is None:  # a root's e_u + delta is ||theta_init - theta_hat_v||
            start, gap, delta = theta_init, norm(theta_init - hat[v]), 0.0
            rhos, steps, deltas, init, recursion, slack = [], [], [], gap, gap, 0.0
        else:
            start, delta = result.params[u], norm(hat[u] - hat[v])
            gap = norm(start - hat[u])
            (rhos, steps, deltas, init), recursion, slack = path[u]
        e_v, bound = norm(result.params[v] - hat[v]), rho**b * (gap + delta)
        edge_slack = _slack(bound, b, collection[v], start, hat[v])
        assert e_v <= bound + edge_slack, (v, e_v, bound)
        # each edge's rounding passes on, contracted, to the tasks below it
        recursion, slack = rho**b * (recursion + delta), slack + edge_slack
        assert e_v <= recursion + slack
        path[v] = ([*rhos, rho], [*steps, b], [*deltas, delta], init), recursion, slack
        if rho < 1.0 and all(r < 1.0 for r in rhos):
            spec = PathSpec(*path[v][0][:3], init_error=init)
            # the same terms, summed in another order: an ulp per term and edge,
            # and subnormal products that keep no relative precision
            assert math.isclose(path_bound(spec), recursion,
                                rel_tol=4 * (len(spec) + 1) * EPS, abs_tol=1e-300)


@settings(max_examples=100, deadline=None)
@given(drawn=bounded_cascades())
def test_every_cascade_is_within_the_papers_bound(drawn):
    _check_bound(*drawn)


def test_a_task_without_steps_keeps_its_wide_parents_error_within_the_bound():
    # t1's design is wide (rank 1 in 3 dimensions, rho = 1) and t2 gets no
    # steps, so it keeps t1's parameters and its bound is e_1 + delta_12
    rng = np.random.default_rng(7)
    tasks = [TaskDataset(f"t{i}", *_design(rng, "gaussian", n, 3),
                         *_design(rng, "gaussian", 4, 3)) for i, n in enumerate([8, 1, 8])]
    tree = RootedTree(0, {1: 0, 2: 1}, {1: 1.0, 2: 1.0})
    budgets = BudgetAllocation({0: 5, 1: 7, 2: 0}, 12)
    _check_bound(TaskCollection(tasks, 3), tree, budgets, rng.standard_normal(3))
