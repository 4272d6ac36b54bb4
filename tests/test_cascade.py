import dataclasses
import os

import numpy as np
import pytest

from taskcascade.budget import BudgetAllocation, uniform_default
from taskcascade import cascade, linmodel
from taskcascade.cascade import (
    METHODS,
    ExperimentConfig,
    run_cascade,
    run_experiment,
    run_individual,
    run_method,
)
from taskcascade.errors import ConfigError, DegenerateDesignError
from taskcascade.graph import depths, root_tree, star_tree, topological_order
from taskcascade.linmodel import contraction_rate, lambda_max, refine
from taskcascade.seeding import derive_seed
from taskcascade.tasks import SyntheticConfig, TaskCollection, TaskDataset, save_collection
from taskcascade.theory import PathSpec, path_bound

from conftest import make_collection


def noiseless_task(rng, theta, n=32, n_test=16, task_id="t"):
    d = len(theta)
    X = rng.standard_normal((n, d))
    Xt = rng.standard_normal((n_test, d))
    return TaskDataset(task_id, X, X @ theta, Xt, Xt @ theta)


def chain_tree(T):
    return root_tree([(i, i + 1) for i in range(T - 1)], 0)


class TestRunCascade:
    def test_single_noiseless_task_converges(self, rng):
        theta = rng.standard_normal(4)
        collection = TaskCollection([noiseless_task(rng, theta, task_id="task0")], 4)
        tree = star_tree(1, 0)
        result = run_cascade(collection, tree, BudgetAllocation({0: 300}, 300))
        assert result.test_rmse[0] < 1e-6

    def test_zero_budget_child_inherits_exactly(self, rng):
        theta = rng.standard_normal(3)
        t0 = noiseless_task(rng, theta, task_id="task0")
        t1 = TaskDataset("task1", t0.X_train, t0.y_train, t0.X_test, t0.y_test)
        collection = TaskCollection([t0, t1], 3)
        result = run_cascade(collection, chain_tree(2),
                             BudgetAllocation({0: 25, 1: 0}, 25))
        assert np.array_equal(result.params[0], result.params[1])

    def test_three_task_chain_within_theory_bound(self):
        rng = np.random.default_rng(41)
        base = rng.standard_normal(5)
        direction = rng.standard_normal(5)
        direction /= np.linalg.norm(direction)
        thetas = [base + i * 0.8 * direction for i in range(3)]
        tasks = [noiseless_task(rng, th, task_id=f"task{i}")
                 for i, th in enumerate(thetas)]
        collection = TaskCollection(tasks, 5)
        budgets = BudgetAllocation({0: 12, 1: 7, 2: 9}, 28)
        result = run_cascade(collection, chain_tree(3), budgets)

        rhos = [contraction_rate(t.X_train, 1.0 / lambda_max(t.X_train))
                for t in tasks]
        spec = PathSpec(
            rhos=rhos[1:],
            budgets=[7, 9],
            deltas=[float(np.linalg.norm(thetas[i] - thetas[i - 1])) for i in (1, 2)],
            init_error=float(np.linalg.norm(result.params[0] - thetas[0])),
        )
        leaf_error = np.linalg.norm(result.params[2] - thetas[2])
        assert leaf_error <= path_bound(spec) + 1e-6

    def test_total_steps_audited(self, rng):
        collection = make_collection(rng, T=5, n=20, d=3)
        tree = star_tree(5, 1)
        budgets = uniform_default(tree, 73)
        result = run_cascade(collection, tree, budgets)
        assert result.steps_executed == 73

    def test_test_data_never_influences_training(self, rng):
        collection = make_collection(rng, T=4, n=20, d=3)
        swapped = TaskCollection(
            [
                TaskDataset(t.id, t.X_train, t.y_train,
                            rng.standard_normal((9, 3)), rng.standard_normal(9))
                for t in collection
            ],
            3,
        )
        tree = star_tree(4, 0)
        budgets = uniform_default(tree, 40)
        a = run_cascade(collection, tree, budgets)
        b = run_cascade(swapped, tree, budgets)
        for v in range(4):
            assert np.array_equal(a.params[v], b.params[v])


class TestRunIndividual:
    def test_uniform_budget_split(self, rng):
        collection = make_collection(rng, T=4, n=16, d=3)
        budgets = BudgetAllocation({i: 5 for i in range(4)}, 20)
        result = run_individual(collection, budgets)
        assert result.tree is None
        assert result.steps_executed == 20

    def test_noiseless_convergence(self, rng):
        thetas = [rng.standard_normal(3) for _ in range(3)]
        tasks = [noiseless_task(rng, th, n=40, task_id=f"task{i}")
                 for i, th in enumerate(thetas)]
        collection = TaskCollection(tasks, 3)
        budgets = BudgetAllocation({i: 200 for i in range(3)}, 600)
        result = run_individual(collection, budgets)
        assert all(v < 1e-6 for v in result.test_rmse.values())

    def test_matches_manual_gradient_descent(self, rng):
        collection = make_collection(rng, T=5, n=18, d=4)
        budgets = BudgetAllocation({i: 11 for i in range(5)}, 55)
        result = run_individual(collection, budgets)
        for i, task in enumerate(collection):
            eta = 1.0 / lambda_max(task.X_train)
            theta = np.zeros(4)
            for _ in range(11):
                theta = theta - eta * (task.X_train.T @ (task.X_train @ theta - task.y_train))
            # the closed-form refine agrees with the step loop to round-off
            assert np.linalg.norm(result.params[i] - theta) <= 1e-12 * np.linalg.norm(theta)


class TestRunMethod:
    def test_star_is_depth_one(self, rng):
        collection = make_collection(rng, T=5, n=16, d=3)
        # data_path is a placeholder: run_method takes the collection directly
        config = ExperimentConfig(method="star", budget=50, data_path="x")
        result = run_method(config, collection)
        assert max(depths(result.tree).values()) <= 1

    def test_mst_identical_tasks_leaf_matches_root(self, rng):
        base = noiseless_task(rng, rng.standard_normal(3), n=60, task_id="task0")
        tasks = [TaskDataset(f"task{i}", base.X_train, base.y_train,
                             base.X_test, base.y_test) for i in range(4)]
        collection = TaskCollection(tasks, 3)
        config = ExperimentConfig(method="mst", metric_name="gradient", budget=400,
                                  data_path="x")
        result = run_method(config, collection)
        root = result.tree.root
        leaves = [v for v in range(4) if v not in set(result.tree.parent.values())]
        for leaf in leaves:
            assert abs(result.test_rmse[leaf] - result.test_rmse[root]) < 1e-6

    def test_random_tree_deterministic_given_seed(self, rng):
        collection = make_collection(rng, T=6, n=16, d=3)
        config = ExperimentConfig(method="random_tree", budget=60, data_path="x",
                                  seed=99)
        a = run_method(config, collection)
        b = run_method(config, collection)
        assert a.tree.parent == b.tree.parent
        assert a.test_rmse == b.test_rmse

    def test_mst_requires_metric(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="mst", budget=10, data_path="x")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="magic", budget=10, data_path="x")

    def test_gaussian_init_changes_underfit_params_deterministically(self, rng):
        collection = make_collection(rng, T=3, n=16, d=3)
        zeros = ExperimentConfig(method="star", budget=3, data_path="x", seed=4)
        gauss = dataclasses.replace(zeros, gaussian_init=True)
        a = run_method(zeros, collection)
        b = run_method(gauss, collection)
        c = run_method(gauss, collection)
        assert not np.array_equal(a.params[0], b.params[0])
        for v in range(3):
            assert np.array_equal(b.params[v], c.params[v])


class TestDefaultStepSizes:
    """The executor steps every task by 1/lambda_max of its own design."""

    def test_one_over_lambda_max_per_task(self, rng, monkeypatch):
        collection = make_collection(rng, T=4)
        seen = []
        monkeypatch.setattr(cascade, "lambda_max",
                            lambda design: seen.append(design.X) or lambda_max(design))
        # the star's topological order starts at task 2; step sizes go in task order
        tree = star_tree(4, 2)
        run_cascade(collection, tree, uniform_default(tree, 20))
        assert len(seen) == 4
        assert all(X is task.X_train for X, task in zip(seen, collection))

    @pytest.mark.parametrize("method", METHODS)
    def test_given_defaults_change_nothing(self, rng, method):
        # each method's params equal a hand walk of refine at 1/lambda_max
        collection = make_collection(rng, T=5)
        config = ExperimentConfig(method=method, metric_name="gradient", budget=30,
                                  data_path="unused", seed=4)
        result = run_method(config, collection)
        tree = result.tree
        order = range(5) if tree is None else topological_order(tree)
        parent = {} if tree is None else tree.parent
        walked = {}
        for v in order:
            task = collection[v]
            start = walked[parent[v]] if v in parent else np.zeros(collection.dim)
            walked[v] = refine(start, task.X_train, task.y_train,
                               result.budgets.per_task[v], 1.0 / lambda_max(task.X_train))
        assert all(np.array_equal(result.params[v], walked[v]) for v in range(5))

    def test_zero_design_names_the_task(self, rng):
        collection = make_collection(rng, T=3)
        for v in (1, 2):
            task = collection[v]
            collection.tasks[v] = TaskDataset(task.id, np.zeros_like(task.X_train),
                                              task.y_train, task.X_test, task.y_test)
        # the tree visits task 2 first, but the first zero design in task order is named
        tree = star_tree(3, 2)
        with pytest.raises(DegenerateDesignError, match="task 'task1': X\\^T X is the zero"):
            run_cascade(collection, tree, uniform_default(tree, 30))

    @pytest.mark.parametrize("X_train, problem", [
        (np.full((4, 2), 1e200), "X\\^T X is not finite"),  # the Gram matrix overflows
        (np.array([[1.0, -1.0]]), "power iteration's estimate of lambda_max is 0.0"),
        # X^T X is subnormal, and the step size 1/lambda_max would overflow
        (np.full((4, 2), 1e-160), "power iteration's estimate of lambda_max is .*e-3"),
    ])
    def test_degenerate_design_names_the_task(self, rng, X_train, problem):
        collection = make_collection(rng, T=3, d=2)
        task = collection[1]
        collection.tasks[1] = TaskDataset("bad", X_train, np.ones(len(X_train)),
                                          task.X_test, task.y_test)
        tree = star_tree(3, 0)
        with pytest.raises(DegenerateDesignError, match=f"task 'bad': {problem}"):
            run_cascade(collection, tree, uniform_default(tree, 30))
        config = ExperimentConfig(method="individual", budget=30, data_path="unused")
        with pytest.raises(DegenerateDesignError, match=f"task 'bad': {problem}"):
            run_method(config, collection)

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_step_size_does_not_depend_on_the_scale_of_the_design(self, seed):
        # Scaling a task's X and y by 1e-150 leaves its gradient descent at
        # 1/lambda_max unchanged. A power iteration stopped by an absolute
        # tolerance below lambda_max = 1 took its first iterate for the
        # estimate, and at these seeds that step size diverged.
        def collection(scale):
            rng = np.random.default_rng(seed)
            tasks = []
            for i in range(3):
                X, y = rng.standard_normal((8, 3)), rng.standard_normal(8)
                if i == 1:
                    X, y = X * scale, y * scale
                tasks.append(TaskDataset(f"t{i}", X, y, rng.standard_normal((4, 3)),
                                         rng.standard_normal(4)))
            return TaskCollection(tasks, 3)

        budgets = BudgetAllocation({0: 10, 1: 10, 2: 10}, 30)
        want = run_individual(collection(1.0), budgets).params[1]
        got = run_individual(collection(1e-150), budgets).params[1]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("method, metric", [("individual", None), ("mst", "gradient")])
    def test_solution_that_overflows_names_the_task(self, rng, method, metric):
        # eta * lambda_max is about 1, so nothing diverges, but X^T y / lam of
        # task1, about 1e450, overflows: an input fault, not a divergence
        collection = make_collection(rng, T=3, n=8, d=3)
        task = collection[1]
        collection.tasks[1] = dataclasses.replace(
            task, X_train=task.X_train * 1e-150, y_train=task.y_train * 1e300)
        config = ExperimentConfig(method=method, metric_name=metric, budget=30,
                                  data_path="unused")
        with pytest.raises(DegenerateDesignError,
                           match="^task 'task1': the refined parameters are not finite"):
            run_method(config, collection)

    @pytest.mark.parametrize("method, metric", [("individual", None), ("mst", "feature")])
    @pytest.mark.parametrize("split, value, problem", [
        ("y_train", 1e308, r"X\^T y is not finite"),  # and so is refinement
        ("y_test", 1e300, r"test RMSE is inf, not finite"),
    ])
    def test_overflowing_targets_name_the_task(self, rng, method, metric, split, value,
                                               problem):
        # run under the suite's error::RuntimeWarning filter: nothing is warned
        collection = make_collection(rng, T=3, n=8, d=3)
        task = collection[1]
        collection.tasks[1] = dataclasses.replace(
            task, **{split: np.full(len(getattr(task, split)), value)})
        config = ExperimentConfig(method=method, metric_name=metric, budget=30,
                                  data_path="unused")
        with pytest.raises(DegenerateDesignError, match=f"^task 'task1': {problem}"):
            run_method(config, collection)


class TestRunExperiment:
    def synthetic(self, **overrides):
        base = dict(num_tasks=5, dim=4, n_train=24, n_test=12, num_clusters=1,
                    tau_between=0.0, tau_within=0.5, noise_sigma=0.1, seed=0)
        base.update(overrides)
        return SyntheticConfig(**base)

    def test_single_seed_mean_equals_run_mean(self):
        config = ExperimentConfig(method="star", budget=50, num_seeds=1,
                                  synthetic=self.synthetic(), seed=5)
        report = run_experiment(config)
        assert report.mean_rmse == report.results[0].mean_test_rmse()
        assert report.std_rmse == 0.0

    def test_degenerate_regime_all_methods_near_zero(self):
        synth = self.synthetic(tau_within=0.0, noise_sigma=0.0)
        for method, metric in [("individual", None), ("star", None),
                               ("random_tree", None), ("mst", "target")]:
            config = ExperimentConfig(method=method, metric_name=metric, budget=600,
                                      num_seeds=2, synthetic=synth, seed=3)
            report = run_experiment(config)
            assert report.mean_rmse < 1e-4, method

    def test_replicates_differ_but_rerun_is_identical(self):
        config = ExperimentConfig(method="mst", metric_name="gradient", budget=60,
                                  num_seeds=3, synthetic=self.synthetic(), seed=11)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.per_seed_mean_rmse == b.per_seed_mean_rmse
        assert len(set(a.per_seed_mean_rmse)) == 3

    def test_parallel_jobs_identical_output(self):
        config = ExperimentConfig(method="star", budget=50, num_seeds=4,
                                  synthetic=self.synthetic(), seed=13)
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=3)
        assert serial.per_seed_mean_rmse == parallel.per_seed_mean_rmse

    def test_loaded_collection_step_sizes_are_read_per_replicate(self, rng, tmp_path,
                                                                 monkeypatch):
        save_collection(make_collection(rng, T=5), tmp_path / "col")
        calls = []
        monkeypatch.setattr(cascade, "lambda_max",
                            lambda X: calls.append(1) or lambda_max(X))
        for method, metric in [("individual", None), ("mst", "gradient")]:
            calls.clear()
            config = ExperimentConfig(method=method, metric_name=metric, budget=40,
                                      num_seeds=3, data_path=str(tmp_path / "col"),
                                      seed=2)
            run_experiment(config, jobs=1)
            # one per task and replicate, read from the designs built once per run
            assert len(calls) == 5 * 3, method

    @staticmethod
    def count_design_builds(monkeypatch, log):
        """Log the process id of every build_designs call to the file ``log``.

        A file, so that the calls of forked pool workers show up too.
        """
        original = linmodel.build_designs

        def counted(Xs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(Xs)}\n")
            return original(Xs)

        monkeypatch.setattr(linmodel, "build_designs", counted)
        return lambda: log.read_text().splitlines() if log.exists() else []

    def test_a_synthetic_replicate_builds_its_designs_once(self, tmp_path, monkeypatch):
        builds = self.count_design_builds(monkeypatch, tmp_path / "builds")
        lambdas = []
        monkeypatch.setattr(cascade, "lambda_max",
                            lambda X: lambdas.append(1) or lambda_max(X))
        for method, metric in [("individual", None), ("mst", "gradient")]:
            (tmp_path / "builds").unlink(missing_ok=True)
            lambdas.clear()
            config = ExperimentConfig(method=method, metric_name=metric, budget=40,
                                      num_seeds=3, synthetic=self.synthetic(), seed=2)
            run_experiment(config, jobs=1)
            # one stack of all 5 tasks per replicate, one lambda_max per task
            assert builds() == [f"{os.getpid()} 5"] * 3, method
            assert len(lambdas) == 15, method

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_loaded_collection_designs_are_built_once_per_run(self, rng, tmp_path,
                                                              monkeypatch, jobs):
        save_collection(make_collection(rng, T=5), tmp_path / "col")
        builds = self.count_design_builds(monkeypatch, tmp_path / "builds")
        config = ExperimentConfig(method="mst", metric_name="gradient", budget=40,
                                  num_seeds=3, data_path=str(tmp_path / "col"), seed=2)
        report = run_experiment(config, jobs=jobs)
        assert len(report.results) == 3
        # built in this process before any replicate runs, never in a worker
        assert builds() == [f"{os.getpid()} 5"]

    def test_loaded_collection_pooled_equals_serial(self, rng, tmp_path):
        save_collection(make_collection(rng, T=5), tmp_path / "col")
        config = ExperimentConfig(method="mst", metric_name="gradient", budget=40,
                                  num_seeds=3, data_path=str(tmp_path / "col"), seed=2)
        serial = run_experiment(config, jobs=1)
        pooled = run_experiment(config, jobs=2)
        for a, b in zip(serial.results, pooled.results):
            assert a.test_rmse == b.test_rmse
            assert all(np.array_equal(a.params[v], b.params[v]) for v in a.params)

    @pytest.mark.parametrize("method, metric", [
        ("mst", "gradient"), ("star", "target"), ("mst", "mmd"), ("star", "mmd"),
        ("random_tree", "gradient"),
    ])
    def test_loaded_collection_replicates_equal_their_own_runs(self, rng, tmp_path,
                                                              method, metric):
        # a tree built once per run must be the tree each replicate builds
        collection = make_collection(rng, T=6)
        save_collection(collection, tmp_path / "col")
        config = ExperimentConfig(method=method, metric_name=metric, budget=60,
                                  num_seeds=3, data_path=str(tmp_path / "col"), seed=7)
        report = run_experiment(config, jobs=1)
        for r, got in enumerate(report.results):
            want = run_method(config, collection, seed=derive_seed(7, "replicate", r))
            assert (got.tree.root, got.tree.parent) == (want.tree.root, want.tree.parent)
            assert got.tree.edge_length == want.tree.edge_length
            assert got.test_rmse == want.test_rmse

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(method="star", budget=50))  # no data
        with pytest.raises(ConfigError):
            ExperimentConfig(method="star", budget=50, num_seeds=0,
                             synthetic=self.synthetic())
