import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade import distances
from taskcascade.distances import (
    DistanceMatrix,
    DistanceParams,
    METRIC_NAMES,
    compute_distance_matrix,
    load_distance_matrix,
    median_bandwidth,
    save_distance_matrix,
    task_distance,
)
from taskcascade.errors import (
    ConfigError,
    DataFormatError,
    DegenerateDesignError,
    NonFiniteGramError,
    ShapeMismatchError,
)
from taskcascade.tasks import TaskCollection, TaskDataset

from conftest import make_collection, make_task

PERMUTATION_INVARIANT = ("mmd", "gauss_meancov", "sym_kl", "js", "wasserstein",
                         "gradient", "model")


def pairwise_norms(summaries):
    """Reference: the per-pair loop, np.linalg.norm(a - b) for every i < j."""
    T = len(summaries)
    values = np.zeros((T, T))
    for i in range(T):
        for j in range(i + 1, T):
            d = float(np.linalg.norm(summaries[i] - summaries[j]))
            values[i, j] = values[j, i] = d
    return values


def task_from(X, y=None, task_id="t"):
    X = np.asarray(X, dtype=float)
    if y is None:
        y = np.zeros(X.shape[0])
    return TaskDataset(task_id, X, y, X[:1], np.asarray(y)[:1])


def exact_kernel_mmd(Xu, Xv):
    """Oracle: full n^2 RBF kernel sums at the same median bandwidth."""
    sigma = median_bandwidth(np.vstack([Xu, Xv]))

    def gram(A, B):
        sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
        return np.exp(-sq / (2.0 * sigma**2))

    mmd_sq = gram(Xu, Xu).mean() + gram(Xv, Xv).mean() - 2.0 * gram(Xu, Xv).mean()
    return math.sqrt(max(mmd_sq, 0.0))


def direct_hsic_cka(Xu, Xv):
    """Oracle: CKA via explicit n x n centered kernel matrices."""
    n = Xu.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    Zu = Xu - Xu.mean(axis=0)
    Zv = Xv - Xv.mean(axis=0)
    Ku, Kv = Zu @ Zu.T, Zv @ Zv.T

    def hsic(A, B):
        return np.trace(H @ A @ H @ (H @ B @ H))

    return hsic(Ku, Kv) / math.sqrt(hsic(Ku, Ku) * hsic(Kv, Kv))


def w1_oracle(u, v):
    """Oracle: integral of the CDF gap over the pooled support grid."""
    grid = np.sort(np.concatenate([u, v]))
    Fu = np.searchsorted(np.sort(u), grid, side="right") / len(u)
    Fv = np.searchsorted(np.sort(v), grid, side="right") / len(v)
    return float(np.sum(np.abs(Fu - Fv)[:-1] * np.diff(grid)))


class TestFeatureFamily:
    def test_identical_tasks_are_zero(self, rng):
        t = make_task(rng, n=16, d=3)
        u = TaskDataset("u", t.X_train, t.y_train, t.X_test, t.y_test)
        for metric in ("feature", "mmd", "gauss_meancov"):
            assert task_distance(u, t, metric) == 0.0
        assert task_distance(u, t, "cka") < 1e-12

    def test_gauss_meancov_point_masses(self):
        u = task_from(np.zeros((4, 2)))
        v = task_from(np.tile([3.0, 4.0], (4, 1)))
        assert task_distance(u, v, "gauss_meancov") == pytest.approx(5.0)

    def test_gauss_meancov_of_one_feature(self, rng):
        # np.cov of one column is 0-d, which the Frobenius norm rejected
        Xu, Xv = rng.standard_normal((6, 1)), rng.standard_normal((9, 1))
        want = (abs(Xu.mean() - Xv.mean())
                + abs(np.var(Xu, ddof=1) - np.var(Xv, ddof=1)))
        got = task_distance(task_from(Xu), task_from(Xv), "gauss_meancov")
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_gauss_meancov_of_several_features_keeps_its_bits(self, rng, d):
        Xu, Xv = rng.standard_normal((6, d)), rng.standard_normal((9, d))
        want = float(np.linalg.norm(Xu.mean(axis=0) - Xv.mean(axis=0)) + np.linalg.norm(
            np.cov(Xu, rowvar=False) - np.cov(Xv, rowvar=False), ord="fro"))
        assert task_distance(task_from(Xu), task_from(Xv), "gauss_meancov") == want

    def test_gauss_meancov_needs_two_samples(self):
        u = task_from(np.zeros((1, 2)))
        v = task_from(np.ones((4, 2)))
        with pytest.raises(DegenerateDesignError):
            task_distance(u, v, "gauss_meancov")

    def test_feature_distance_same_shape(self, rng):
        Xu = rng.standard_normal((6, 3))
        Xv = rng.standard_normal((6, 3))
        want = math.sqrt(np.mean((Xu - Xv) ** 2))
        assert task_distance(task_from(Xu), task_from(Xv), "feature") == \
            pytest.approx(want)

    def test_feature_distance_shape_mismatch_uses_moment_embedding(self, rng):
        Xu = rng.standard_normal((6, 3))
        Xv = rng.standard_normal((9, 3))
        eu = np.concatenate([Xu.mean(0), Xu.var(0)])
        ev = np.concatenate([Xv.mean(0), Xv.var(0)])
        want = math.sqrt(np.mean((eu - ev) ** 2))
        assert task_distance(task_from(Xu), task_from(Xv), "feature") == \
            pytest.approx(want)

    def test_mmd_close_to_exact_kernel_oracle(self):
        # verification-grade feature count: the RFF sampling error must stay
        # well below the 5% tolerance being checked
        params = DistanceParams(rff_dim=4096, seed=0)
        for seed in range(5):
            gen = np.random.default_rng(seed)
            Xu = gen.standard_normal((200, 5))
            Xv = gen.standard_normal((200, 5)) + 3.0 / np.sqrt(5)
            approx = task_distance(task_from(Xu), task_from(Xv), "mmd", params)
            exact = exact_kernel_mmd(Xu, Xv)
            assert abs(approx - exact) / exact < 0.05

    def test_mmd_default_dim_same_ballpark(self):
        gen = np.random.default_rng(3)
        Xu = gen.standard_normal((200, 5))
        Xv = gen.standard_normal((200, 5)) + 1.5
        approx = task_distance(task_from(Xu), task_from(Xv), "mmd",
                               DistanceParams(seed=1))
        exact = exact_kernel_mmd(Xu, Xv)
        assert abs(approx - exact) / exact < 0.15

    def test_cka_orthogonal_invariance(self, rng):
        Xu = rng.standard_normal((20, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Xv = Xu @ Q
        assert task_distance(task_from(Xu), task_from(Xv), "cka") < 1e-8

    def test_cka_scaling_invariance(self, rng):
        Xu = rng.standard_normal((20, 4))
        Xv = 3.7 * Xu
        assert task_distance(task_from(Xu), task_from(Xv), "cka") < 1e-8

    def test_cka_matches_direct_hsic(self, rng):
        Xu = rng.standard_normal((15, 3))
        Xv = rng.standard_normal((15, 3))
        got = task_distance(task_from(Xu), task_from(Xv), "cka")
        assert got == pytest.approx(1.0 - direct_hsic_cka(Xu, Xv), abs=1e-8)

    def test_cka_in_unit_interval(self, rng):
        for _ in range(20):
            Xu = rng.standard_normal((10, 3))
            Xv = rng.standard_normal((12, 3))  # exercises truncation
            d = task_distance(task_from(Xu), task_from(Xv), "cka")
            assert 0.0 <= d <= 1.0


class TestTargetFamily:
    def test_target_euclidean(self):
        u = task_from(np.eye(2), [0.0, 0.0])
        v = task_from(np.eye(2), [3.0, 4.0])
        assert task_distance(u, v, "target") == pytest.approx(5.0)

    def test_target_length_mismatch(self, rng):
        u = make_task(rng, n=5)
        v = make_task(rng, n=7)
        with pytest.raises(ShapeMismatchError):
            task_distance(u, v, "target")

    def test_identical_targets_zero(self, rng):
        t = make_task(rng, n=20)
        u = TaskDataset("u", t.X_train, t.y_train, t.X_test, t.y_test)
        for metric in ("target", "sym_kl", "js", "wasserstein"):
            assert task_distance(u, t, metric) == pytest.approx(0.0, abs=1e-12)

    def test_wasserstein_shifted_pair(self):
        u = task_from(np.eye(2), [0.0, 1.0])
        v = task_from(np.eye(2), [1.0, 2.0])
        assert task_distance(u, v, "wasserstein") == pytest.approx(1.0)

    def test_wasserstein_matches_cdf_oracle(self, rng):
        for _ in range(10):
            yu = rng.standard_normal(int(rng.integers(3, 40)))
            yv = rng.standard_normal(int(rng.integers(3, 40))) + rng.normal()
            got = task_distance(
                task_from(np.ones((len(yu), 1)), yu),
                task_from(np.ones((len(yv), 1)), yv),
                "wasserstein",
            )
            assert got == pytest.approx(w1_oracle(yu, yv), abs=1e-10)

    def test_js_disjoint_point_masses(self):
        params = DistanceParams(hist_smoothing=1e-8)
        u = task_from(np.ones((3, 1)), [0.0, 0.0, 0.0])
        v = task_from(np.ones((3, 1)), [1.0, 1.0, 1.0])
        got = task_distance(u, v, "js", params)
        assert got == pytest.approx(math.sqrt(math.log(2.0)), rel=0.02)

    def test_sym_kl_is_symmetric_in_arguments(self, rng):
        u = make_task(rng, n=30)
        v = make_task(rng, n=30)
        assert task_distance(u, v, "sym_kl") == pytest.approx(
            task_distance(v, u, "sym_kl")
        )


class TestOptimizationFamily:
    def test_gradient_orthonormal_unit_targets(self):
        u = task_from(np.eye(2), [1.0, 0.0])
        v = task_from(np.eye(2), [0.0, 1.0])
        assert task_distance(u, v, "gradient") == pytest.approx(
            math.sqrt(2.0)
        )

    def test_identical_tasks_zero(self, rng):
        t = make_task(rng, n=20)
        u = TaskDataset("u", t.X_train, t.y_train, t.X_test, t.y_test)
        for metric in ("gradient", "model"):
            assert task_distance(u, t, metric) == 0.0

    def test_model_distance_matches_normal_equation_oracle(self, rng):
        params = DistanceParams(ridge_lambda=0.0)
        for _ in range(5):
            u = make_task(rng, n=20, d=5)
            v = make_task(rng, n=20, d=5)
            tu = np.linalg.solve(u.X_train.T @ u.X_train, u.X_train.T @ u.y_train)
            tv = np.linalg.solve(v.X_train.T @ v.X_train, v.X_train.T @ v.y_train)
            got = task_distance(u, v, "model", params)
            assert got == pytest.approx(np.linalg.norm(tu - tv), abs=1e-8)

    def test_gradient_normalization_flag(self, rng):
        u = make_task(rng, n=12, d=3)
        v = make_task(rng, n=12, d=3)
        gu = u.X_train.T @ u.y_train
        gv = v.X_train.T @ v.y_train
        raw = task_distance(u, v, "gradient", DistanceParams(normalize_gradients=False))
        assert raw == pytest.approx(np.linalg.norm(gu - gv))
        unit = task_distance(u, v, "gradient", DistanceParams())
        want = np.linalg.norm(gu / np.linalg.norm(gu) - gv / np.linalg.norm(gv))
        assert unit == pytest.approx(want)

    def test_model_default_penalty_copies_no_training_split(self, rng):
        # 1e-3 * trace(X^T X) / d is summed from one task's X * X at a time
        collection = make_collection(rng, T=20, n=2000, d=4)
        tracemalloc.start()
        try:
            compute_distance_matrix(collection, "model")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < collection.splits.X_train.nbytes / 2

    def test_dimension_mismatch(self, rng):
        u = make_task(rng, d=3)
        v = make_task(rng, d=4)
        with pytest.raises(ShapeMismatchError):
            task_distance(u, v, "gradient")


class TestDistanceMatrix:
    def test_single_task_zero_matrix(self, rng):
        matrix = compute_distance_matrix(make_collection(rng, T=1), "gradient")
        assert matrix.values.shape == (1, 1)
        assert matrix.values[0, 0] == 0.0

    def test_identical_tasks_zero_matrix(self, rng):
        t = make_task(rng, n=16, d=3)
        tasks = [TaskDataset(f"task{i}", t.X_train, t.y_train, t.X_test, t.y_test)
                 for i in range(3)]
        collection = TaskCollection(tasks, 3)
        for metric in METRIC_NAMES:
            matrix = compute_distance_matrix(collection, metric)
            assert np.allclose(matrix.values, 0.0, atol=1e-12), metric

    def test_matrix_equals_pairwise_recomputation(self, rng):
        collection = make_collection(rng, T=10, n=16, d=3)
        for metric in METRIC_NAMES:
            params = DistanceParams(seed=5)
            matrix = compute_distance_matrix(collection, metric, params)
            for i in range(10):
                for j in range(i + 1, 10):
                    d = task_distance(collection[i], collection[j], metric, params)
                    assert matrix.values[i, j] == d, metric

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(2, 40),
        n=st.integers(1, 300),
        log_scale=st.floats(-8.0, 8.0),
    )
    def test_euclidean_rows_equal_per_pair_norms(self, seed, T, n, log_scale):
        rng = np.random.default_rng(seed)
        summaries = list(rng.standard_normal((T, n)) * 10.0**log_scale)
        summaries[-1] = summaries[0].copy()  # one exact zero distance
        stack = np.array(summaries)
        values = np.zeros((T, T))
        for i in range(T - 1):
            row = distances._euclidean(stack[i], stack[i + 1:], None)
            values[i, i + 1:] = values[i + 1:, i] = row
        assert np.array_equal(values, pairwise_norms(summaries))

    @pytest.mark.parametrize("metric", ["target", "gradient", "model"])
    def test_euclidean_metrics_equal_per_pair_norms(self, rng, metric):
        # rows are slices of one summary array; T = 48 makes them long
        collection = make_collection(rng, T=48, n=16, d=5)
        params = DistanceParams()
        summarize = distances._METRICS[metric][0]
        want = pairwise_norms(list(summarize(collection.ids, collection.splits, params)))
        got = compute_distance_matrix(collection, metric, params).values
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(st.integers(1, 40), min_size=1, max_size=30),
        d=st.integers(1, 25),
        log_scale=st.floats(-100.0, 100.0),
        normalize=st.booleans(),
    )
    def test_gradient_matrix_equals_per_task_summaries(self, seed, shapes, d, log_scale,
                                                       normalize):
        # rows of mixed n_train, so the collection has runs of several row
        # counts; each summary must get the bits of its own X.T @ y and norm
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        tasks = [TaskDataset(f"t{i}", rng.standard_normal((n, d)) * scale,
                             rng.standard_normal(n), np.empty((0, d)), np.empty(0))
                 for i, n in enumerate(shapes)]
        want = []
        for task in tasks:
            g = task.X_train.T @ task.y_train
            norm = np.linalg.norm(g)
            want.append(g / norm if normalize and norm > 0 else g)
        params = DistanceParams(normalize_gradients=normalize)
        got = compute_distance_matrix(TaskCollection(tasks, d), "gradient", params)
        assert np.array_equal(got.values, pairwise_norms(want))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(st.tuples(st.integers(1, 40), st.integers(0, 3)),
                        min_size=1, max_size=30),
        d=st.integers(1, 8),
        log_scale=st.floats(-100.0, 100.0),
    )
    def test_model_and_target_matrices_equal_per_task_summaries(self, seed, shapes, d,
                                                                log_scale):
        # mixed (n_train, n_test), so the collection has runs of several row
        # counts; target gets one n_train and keeps the mixed n_test
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale

        def tasks(n_train=None):
            return [TaskDataset(f"t{i}", rng.standard_normal((n_train or n, d)) * scale,
                                rng.standard_normal(n_train or n),
                                np.ones((n_test, d)), np.ones(n_test))
                    for i, (n, n_test) in enumerate(shapes)]

        def ridge(task):  # the per-task solve the stacked one replaced
            X, y = task.X_train, task.y_train
            lam = 1e-3 * float(np.sum(X * X)) / X.shape[1]
            L = np.linalg.cholesky(X.T @ X + lam * np.eye(X.shape[1]))
            theta = np.linalg.solve(L.T, np.linalg.solve(L, X.T @ y))
            spectrum = np.linalg.eigvalsh(X.T @ X) + lam
            return theta, spectrum[-1] / spectrum[0]

        targets = tasks(shapes[0][0])
        got = compute_distance_matrix(TaskCollection(targets, d), "target")
        assert np.array_equal(got.values, pairwise_norms([t.y_train for t in targets]))
        models = tasks()
        want, kappa = zip(*map(ridge, models))
        got = compute_distance_matrix(TaskCollection(models, d), "model").values
        # Two stable solves of a system of condition number kappa differ by
        # up to a few eps * kappa: each solution is held within 1e-13 of its
        # norm up to kappa = 10 and 1e-14 * kappa beyond (the default
        # penalty caps kappa at 1 + 1000 d), so a distance within the two.
        slack = [1e-13 * max(k / 10.0, 1.0) * np.linalg.norm(t) for t, k in zip(want, kappa)]
        slack = np.add.outer(slack, slack)
        assert (np.abs(got - pairwise_norms(want)) <= slack).all()

    @pytest.mark.parametrize("first, second", [
        ("gram", "x_t_y"), ("x_t_y", "gram"), ("solution", "gram"), ("gram", "solution"),
        ("gram_and_x_t_y", "solution"),
    ])
    def test_the_first_failing_task_of_the_model_metric_is_named(self, rng, first,
                                                                 second):
        # t1 and t2 fail in different runs, t1's first; within a task the
        # checks go Gram, X^T y, singular, solution
        kinds = {
            "gram": (np.full((6, 3), 1e200), np.ones(6),
                     NonFiniteGramError, "X\\^T X \\+ lam I is not finite"),
            "x_t_y": (rng.standard_normal((6, 3)), np.full(6, 1e308),
                      DegenerateDesignError, "X\\^T y is not finite"),
            "solution": (1e-150 * np.eye(6, 3), np.full(6, 1e300),
                         DegenerateDesignError, "its model summary is not finite"),
            "gram_and_x_t_y": (np.full((6, 3), 1e200), np.full(6, 1e308),
                               NonFiniteGramError, "X\\^T X \\+ lam I is not finite"),
        }
        t0, t2 = (make_task(rng, n=8, d=3, task_id=name) for name in ("t0", "t2"))
        X, y, error, problem = kinds[first]
        t1 = TaskDataset("t1", X, y, X[:1], y[:1])
        X, y, _, _ = kinds[second]
        t2 = TaskDataset("t2", np.vstack([X, X[:2]]), np.concatenate([y, y[:2]]),
                         t2.X_test, t2.y_test)
        with pytest.raises(error, match=f"^task 't1': {problem}"):
            compute_distance_matrix(TaskCollection([t0, t1, t2], 3), "model")

    def test_first_failing_pair_of_a_row_is_named(self, rng):
        tasks = [make_task(rng, n=6, d=3, task_id="a"),
                 make_task(rng, n=6, d=3, task_id="b"),
                 make_task(rng, n=9, d=3, task_id="c")]
        with pytest.raises(ShapeMismatchError, match=r"pair \('a', 'c'\): .* 6 and 9"):
            compute_distance_matrix(TaskCollection(tasks, 3), "target")
        # a later vector of length 1 must not broadcast against the row
        pair = [tasks[0], make_task(rng, n=1, d=3, task_id="c")]
        with pytest.raises(ShapeMismatchError, match=r"pair \('a', 'c'\): .* 6 and 1"):
            compute_distance_matrix(TaskCollection(pair, 3), "target")

    @pytest.mark.parametrize("lengths, pair, got", [
        ([6, 6, 9, 6, 7], ("t0", "t2"), "6 and 9"),
        ([5, 6, 6], ("t0", "t1"), "5 and 6"),  # the later summaries agree
        ([4, 4, 4, 4, 3], ("t0", "t4"), "4 and 3"),
    ])
    def test_unequal_target_lengths_name_a_pair_of_row_0(self, rng, lengths, pair, got):
        tasks = [make_task(rng, n=n, d=3, task_id=f"t{i}") for i, n in enumerate(lengths)]
        with pytest.raises(ShapeMismatchError,
                           match=rf"pair \('{pair[0]}', '{pair[1]}'\): .* {got}$"):
            compute_distance_matrix(TaskCollection(tasks, 3), "target")

    def test_lifted_pair_distance_fills_a_row(self):
        _, row = distances._per_task("sum", distances._targets, lambda u, v, params: u + v)
        got = row(1, [2, 3], None)
        assert got.dtype == np.float64
        assert np.array_equal(got, [3.0, 4.0])

    @pytest.mark.parametrize("metric, problem", [
        ("gradient", "X\\^T y is not finite"),
        ("model", "X\\^T X \\+ lam I is not finite"),
    ])
    def test_overflowing_summary_names_the_task(self, rng, metric, problem):
        tasks = [make_task(rng, n=6, d=3, task_id=name) for name in ("a", "bad", "c")]
        tasks[1] = TaskDataset("bad", np.full((6, 3), 1e200), tasks[1].y_train,
                               tasks[1].X_test, tasks[1].y_test)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is caught, not warned about
            with pytest.raises(DegenerateDesignError, match=f"^task 'bad': {problem}"):
                compute_distance_matrix(TaskCollection(tasks, 3), metric)

    @pytest.mark.parametrize("metric, problem", [
        ("model", "task 't1': X\\^T y is not finite"),
        # both pairs of t1 overflow; the first in row order is named
        ("target", "pair \\('t0', 't1'\\): distance is inf, not finite"),
    ])
    def test_overflowing_targets_are_named(self, rng, metric, problem):
        tasks = [make_task(rng, n=6, d=3, task_id=f"t{i}") for i in range(3)]
        tasks[1] = TaskDataset("t1", tasks[1].X_train, np.full(6, 1e308),
                               tasks[1].X_test, tasks[1].y_test)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is caught, not warned about
            with pytest.raises(DegenerateDesignError, match=f"^{problem}"):
                compute_distance_matrix(TaskCollection(tasks, 3), metric)

    @pytest.mark.parametrize("metric, standardize, problem", [
        # t1's within-task distances overflow, and its bandwidth with them
        ("mmd", False, "its mmd summary is not finite"),
        ("gauss_meancov", False, "its gauss_meancov summary is not finite"),
        # an overflowing std would scale t1's features to zeros
        *[(metric, True, "the standard deviation of X is not finite")
          for metric in ("feature", "mmd", "cka", "gauss_meancov")],
    ])
    def test_overflowing_features_name_the_task(self, rng, metric, standardize, problem):
        # run under the suite's error::RuntimeWarning filter: nothing is warned
        tasks = [make_task(rng, n=8, d=3, task_id=f"t{i}") for i in range(3)]
        tasks[1] = TaskDataset("t1", tasks[1].X_train * 1e200, tasks[1].y_train,
                               tasks[1].X_test, tasks[1].y_test)
        with pytest.raises(DegenerateDesignError, match=f"^task 't1': {problem}"):
            compute_distance_matrix(TaskCollection(tasks, 3), metric,
                                    DistanceParams(standardize=standardize))

    @pytest.mark.parametrize("metric, value", [
        ("mmd", "inf"), ("sym_kl", "nan"), ("js", "nan"),
    ])
    def test_pair_whose_scale_overflows_is_named(self, rng, metric, value):
        # run under the suite's error::RuntimeWarning filter: nothing is warned
        tasks = [make_task(rng, n=8, d=3, task_id=f"t{i}") for i in range(3)]
        t1 = tasks[1]
        if metric == "mmd":
            # t1's summary is finite, but its cross-block distances, and so
            # the median bandwidth of each of its pairs, are not
            tasks[1] = dataclasses.replace(t1, X_train=t1.X_train + 1e155)
        else:
            # t1's targets span -1e308 to 1e308: no joint range of its pairs is finite
            tasks[1] = dataclasses.replace(t1, y_train=np.resize([1e308, -1e308], 8))
        with pytest.raises(DegenerateDesignError,
                           match=rf"^pair \('t0', 't1'\): distance is {value}, not finite"):
            compute_distance_matrix(TaskCollection(tasks, 3), metric)

    @pytest.mark.parametrize("metric", ["sym_kl", "js"])
    def test_target_range_without_distinct_bin_edges_is_named(self, rng, metric):
        # t1's targets are 0, 5e-324 and 1e-323: its joint range with t2 holds
        # three floats, too few for 32 bins, where np.histogram raised a bare
        # "Too many bins" ValueError
        tasks = [make_task(rng, n=8, d=3, task_id=f"t{i}") for i in range(3)]
        tasks[1] = dataclasses.replace(tasks[1],
                                       y_train=rng.integers(0, 3, 8) * 5e-324)
        tasks[2] = dataclasses.replace(tasks[2], y_train=np.resize([0.0, 1e-323], 8))
        with pytest.raises(DegenerateDesignError,
                           match=r"^pair \('t1', 't2'\): distance is nan, not finite"):
            compute_distance_matrix(TaskCollection(tasks, 3), metric)

    @pytest.mark.parametrize("metric", ["sym_kl", "js"])
    def test_narrowest_target_range_with_distinct_bin_edges_is_finite(self, metric):
        # 2 targets 32 floats apart leave 33 distinct edges, one float per bin
        y = np.array([1.0, np.nextafter(1.0, 2.0)])
        for _ in range(31):
            y[1] = np.nextafter(y[1], 2.0)
        u, v = task_from(np.ones((2, 1)), y), task_from(np.ones((2, 1)), y[::-1])
        assert task_distance(u, v, metric) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_gradient_whose_norm_overflows_names_the_task(self, rng, normalize):
        # X^T y = (1e155, 1e155, 1e155) is finite, but its norm is not
        tasks = [make_task(rng, n=3, d=3, task_id=f"t{i}") for i in range(3)]
        tasks[1] = TaskDataset("t1", np.eye(3), np.full(3, 1e155),
                               tasks[1].X_test, tasks[1].y_test)
        with pytest.raises(DegenerateDesignError, match=r"^task 't1': X\^T y is not finite"):
            compute_distance_matrix(TaskCollection(tasks, 3), "gradient",
                                    DistanceParams(normalize_gradients=normalize))

    def test_loaded_matrix_with_a_non_finite_entry_is_rejected(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n0.0,inf\ninf,0.0\n")
        with pytest.raises(ConfigError, match="non-finite"):
            load_distance_matrix(tmp_path / "d.csv")

    def test_axioms_over_random_collections(self):
        # symmetry, zero diagonal, nonnegativity, finiteness; the constructor
        # enforces them, so constructing is the assertion
        for k in range(5):
            gen = np.random.default_rng(200 + k)
            collection = make_collection(gen, T=6, n=12, d=3)
            for metric in METRIC_NAMES:
                matrix = compute_distance_matrix(collection, metric)
                assert matrix.size == 6

    def test_permutation_invariance_within_task(self, rng):
        u = make_task(rng, n=30, d=4, task_id="u")
        v = make_task(rng, n=30, d=4, task_id="v")
        perm = rng.permutation(30)
        u_shuffled = TaskDataset("u", u.X_train[perm], u.y_train[perm],
                                 u.X_test, u.y_test)
        for metric in PERMUTATION_INVARIANT:
            a = task_distance(u, v, metric)
            b = task_distance(u_shuffled, v, metric)
            assert abs(a - b) < 1e-9, metric

    def test_unknown_metric_lists_valid_names(self, rng):
        with pytest.raises(ConfigError, match="gradient"):
            compute_distance_matrix(make_collection(rng, T=2), "nope")

    def test_error_annotated_with_pair(self, rng):
        tasks = [make_task(rng, n=6, d=3, task_id="a"),
                 make_task(rng, n=9, d=3, task_id="b")]
        collection = TaskCollection(tasks, 3)
        with pytest.raises(ShapeMismatchError, match=r"'a'.*'b'"):
            compute_distance_matrix(collection, "target")

    def test_summary_error_names_the_task(self, rng):
        tasks = [make_task(rng, n=6, d=3, task_id="a"),
                 make_task(rng, n=1, d=3, task_id="lone")]
        collection = TaskCollection(tasks, 3)
        for metric in ("gauss_meancov", "cka"):
            with pytest.raises(DegenerateDesignError, match=r"task 'lone'"):
                compute_distance_matrix(collection, metric)

    def test_task_distance_rejects_unequal_dims_for_every_metric(self, rng):
        u = make_task(rng, n=8, d=3, task_id="u")
        v = make_task(rng, n=8, d=4, task_id="v")
        for metric in METRIC_NAMES:
            with pytest.raises(ShapeMismatchError, match="dimensions"):
                task_distance(u, v, metric)

    def test_task_distance_checks_its_tasks_and_leaves_them_as_they_were(self, rng):
        u, v = make_task(rng, n=6, d=3, task_id="u"), make_task(rng, n=6, d=3, task_id="v")
        twin = TaskDataset("u", v.X_train, v.y_train, v.X_test, v.y_test)
        assert task_distance(u, twin, "gradient") == task_distance(u, v, "gradient")
        arrays = [(t, name, getattr(t, name)) for t in (u, v, twin)
                  for name in ("X_train", "y_train", "X_test", "y_test")]
        v.X_train[2, 1] = np.nan
        with pytest.raises(DataFormatError, match="^task 'v': non-finite entry in X_train$"):
            task_distance(u, v, "gradient")
        assert all(getattr(t, name) is a for t, name, a in arrays)

    def test_test_split_never_used(self, rng):
        collection = make_collection(rng, T=5, n=16, d=3)
        stripped = TaskCollection(
            [TaskDataset(t.id, t.X_train, t.y_train,
                         np.empty((0, 3)), np.empty(0)) for t in collection],
            3,
        )
        for metric in METRIC_NAMES:
            a = compute_distance_matrix(collection, metric)
            b = compute_distance_matrix(stripped, metric)
            assert np.array_equal(a.values, b.values), metric

    def test_csv_round_trip(self, rng, tmp_path):
        matrix = compute_distance_matrix(make_collection(rng, T=4), "model")
        path = tmp_path / "dist.csv"
        save_distance_matrix(matrix, path)
        loaded = load_distance_matrix(path)
        assert loaded.task_ids == matrix.task_ids
        assert np.array_equal(loaded.values, matrix.values)

    def test_csv_bytes_equal_the_per_element_writer(self, rng, tmp_path):
        collection = make_collection(rng, T=5)
        for metric in ("model", "wasserstein"):
            matrix = compute_distance_matrix(collection, metric)
            values = matrix.values.copy()
            # integral, subnormal and exponent-form entries, kept symmetric
            values[0, 1] = values[1, 0] = 3.0
            values[0, 2] = values[2, 0] = 5e-324
            values[1, 2] = values[2, 1] = 1e16
            values[3, 4] = values[4, 3] = float(np.nextafter(1e-4, 0.0))
            matrix = DistanceMatrix(values, matrix.task_ids)
            new, old = tmp_path / "new.csv", tmp_path / "old.csv"
            save_distance_matrix(matrix, new)
            # the per-element writer that save_distance_matrix replaced
            with open(old, "w") as fh:
                fh.write(",".join(matrix.task_ids) + "\n")
                for row in matrix.values:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
            assert new.read_bytes() == old.read_bytes()
            assert load_distance_matrix(new).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("text, problem", [
        ("a,b\n0.0,abc\n1.0,0.0\n", "non-numeric cell on line 2"),
        ("a,b\n0.0,1.0\n1.0\n", "line 3 has 1 cells, expected 2"),
        ("a,b\n0.0,1.0,2.0\n1.0,0.0\n", "line 2 has 3 cells, expected 2"),
        ("a,a,b\n0,1,1\n1,0,1\n1,1,0\n", "line 1 repeats the id 'a'"),
        ("a,,b\n0,1,1\n1,0,1\n1,1,0\n", "line 1 has an empty id ''"),
        # a blank line is skipped and still counted
        ("a,b\n0.0,1.0\n\n1.0\n", "line 4 has 1 cells, expected 2"),
    ])
    def test_malformed_csv_names_the_file_and_line(self, tmp_path, text, problem):
        path = tmp_path / "dist.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match="dist.csv: .*" + problem):
            load_distance_matrix(path)

    @pytest.mark.parametrize("text, problem", [
        ("a,b\n0,-1\n-1,0\n", "line 2: .*negative entries: d\\('a', 'b'\\) is -1.0$"),
        ("a,b,c\n0,1,1\n1,0,inf\ninf,1,0\n",
         "line 3: .*non-finite entries: d\\('b', 'c'\\) is inf$"),
        ("a,b\n0,1\n\n1,nan\n", "line 4: .*non-finite entries: d\\('b', 'b'\\) is nan$"),
        ("a,b\n1,1\n1,0\n", "line 2: .*diagonal must be zero: d\\('a', 'a'\\) is 1.0$"),
        # a blank line is skipped and still counted
        ("a,b,c\n0,1,1\n\n1,0,2\n1,1,0\n",
         "line 4: .*must be symmetric: d\\('b', 'c'\\) is 2.0$"),
    ])
    def test_bad_values_name_the_file_line_and_pair(self, tmp_path, text, problem):
        path = tmp_path / "dist.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match="dist.csv: .*" + problem):
            load_distance_matrix(path)

    @pytest.mark.parametrize("text, problem", [
        ("", "empty distance matrix file"),
        ("a,b\n0.0,1.0\n", "expected a 2x2 matrix, got \\(1, 2\\)"),
        ("a,b\n0.0,1.0\n1.0,0.0\n0.0,0.0\n", "expected a 2x2 matrix, got \\(3, 2\\)"),
    ])
    def test_csv_without_one_row_per_id_is_rejected(self, tmp_path, text, problem):
        path = tmp_path / "dist.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=problem):
            load_distance_matrix(path)

    @pytest.mark.parametrize("values, ids, problem", [
        (np.zeros((2, 3)), [], "distance matrix must be square"),
        (np.zeros((2, 2)), ["a"], "task_ids length does not match matrix size"),
    ])
    def test_matrix_of_the_wrong_shape_is_rejected(self, values, ids, problem):
        with pytest.raises(ShapeMismatchError, match=f"^{problem}$"):
            DistanceMatrix(values, ids)

    def test_invariants_rejected(self):
        with pytest.raises(ConfigError, match="symmetric: d\\('task0', 'task1'\\) is 1.0$"):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ConfigError, match="zero: d\\('u', 'u'\\) is 1.0$"):
            DistanceMatrix(np.array([[1.0]]), ["u"])
        with pytest.raises(ConfigError, match="negative entries: d\\('task0', 'task1'\\)"):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        # the first pair in row order, of the first check that fails
        with pytest.raises(ConfigError, match="non-finite entries: d\\('task1', 'task0'\\)"):
            DistanceMatrix(np.array([[0.0, -1.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def test_negative_ridge_lambda_is_rejected_naming_the_key(rng):
    with pytest.raises(ConfigError, match="^ridge_lambda must be nonnegative, got -1.0$"):
        DistanceParams(ridge_lambda=-1.0)
    collection = make_collection(rng, T=3)
    assert compute_distance_matrix(collection, "model",
                                   DistanceParams(ridge_lambda=0.0)).size == 3


def test_median_bandwidth_degenerate_fallback():
    assert median_bandwidth(np.zeros((5, 2))) == 1.0
    assert median_bandwidth(np.random.default_rng(0).standard_normal((10, 2))) > 0.0


def test_standardize_flag_removes_scale_from_feature_metrics(rng):
    u = make_task(rng, n=16, d=3, task_id="u")
    scaled = TaskDataset("v", 100.0 * u.X_train, u.y_train, u.X_test, u.y_test)
    raw = task_distance(u, scaled, "feature", DistanceParams())
    standardized = task_distance(
        u, scaled, "feature", DistanceParams(standardize=True)
    )
    assert raw > 1.0
    assert standardized < raw / 10.0


def test_median_bandwidth_is_the_median_pairwise_distance(rng):
    pooled = rng.standard_normal((9, 4))
    dists = [np.linalg.norm(pooled[i] - pooled[j])
             for i in range(9) for j in range(i + 1, 9)]
    assert median_bandwidth(pooled) == pytest.approx(np.median(dists), rel=1e-14)


def test_numpy_is_the_only_runtime_dependency():
    code = (
        "import sys\n"
        "import taskcascade, taskcascade.cli\n"
        "from taskcascade import METRIC_NAMES, SyntheticConfig, compute_distance_matrix\n"
        "from taskcascade import generate_synthetic\n"
        "collection, _ = generate_synthetic(SyntheticConfig(num_tasks=3, dim=2, n_train=8))\n"
        "for metric in METRIC_NAMES:\n"
        "    compute_distance_matrix(collection, metric)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    import taskcascade

    env = {**os.environ, "PYTHONPATH": str(Path(taskcascade.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
