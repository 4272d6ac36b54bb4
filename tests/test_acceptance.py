"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 9 and 10 pin a small-scale clustered regression config (50 tasks,
dimension 20, two clusters, within-cluster spread 2, between-cluster spread
10, unit noise, budget 500, 20 replicate seeds, master seed 42); margins
were calibrated so the assertions hold deterministically for that seed.
"""

import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from taskcascade.budget import AllocationScheme, allocate
from taskcascade.cascade import ExperimentConfig, run_experiment
from taskcascade.cli import main
from taskcascade.distances import (
    DistanceParams,
    METRIC_NAMES,
    compute_distance_matrix,
    median_bandwidth,
    task_distance,
)
from taskcascade.graph import decode_pruefer, mst, random_spanning_tree, root_tree
from taskcascade.linmodel import (
    contraction_rate,
    lambda_max,
    refine,
    ridge_solution,
)
from taskcascade.tasks import SyntheticConfig, TaskDataset
from taskcascade.theory import ChainConfig, cascade_vs_direct, verify_bounds

from conftest import make_collection


@contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - start:.1f}s)")


SMALL_SYNTH = dict(
    num_tasks=50, dim=20, n_train=64, n_test=128, num_clusters=2,
    tau_between=10.0, tau_within=2.0, noise_sigma=1.0, seed=0,
)
SMALL_SEED = 42
SMALL_BUDGET = 500  # scales the reference budget of 2000 by 50/200 tasks
SMALL_NUM_SEEDS = 20


def small_experiment(method, metric=None, scheme=None):
    return ExperimentConfig(
        method=method,
        metric_name=metric,
        budget=SMALL_BUDGET,
        scheme=scheme or AllocationScheme(),
        num_seeds=SMALL_NUM_SEEDS,
        synthetic=SyntheticConfig(**SMALL_SYNTH),
        seed=SMALL_SEED,
    )


def test_01_contraction_suite():
    with criterion(1, "contraction-suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(200):
            d = int(rng.integers(1, 21))
            n = int(rng.integers(d, 101))
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            theta0 = rng.standard_normal(d)
            eta = 1.0 / lambda_max(X)
            rho = contraction_rate(X, eta)
            theta_hat = ridge_solution(X, y, 0.0)
            gap0 = np.linalg.norm(theta0 - theta_hat)
            for b in (1, 5, 25):
                gap = np.linalg.norm(refine(theta0, X, y, b, eta) - theta_hat)
                assert gap <= rho**b * gap0 + 1e-9
        assert time.perf_counter() - start < 10.0


def test_02_noiseless_path_bound_suite():
    with criterion(2, "noiseless-path-bound"):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        satisfied = 0
        for _ in range(100):
            config = ChainConfig(
                length=int(rng.integers(1, 6)),
                dim=int(rng.integers(2, 11)),
                n=int(rng.integers(12, 48)),
                budget_per_node=int(rng.integers(0, 21)),
                spacing=float(rng.uniform(0.0, 5.0)),
                seed=int(rng.integers(1 << 62)),
            )
            check = verify_bounds(config)
            assert check.empirical <= check.bound + 1e-6
            satisfied += check.satisfied
        assert satisfied == 100
        assert time.perf_counter() - start < 30.0


def test_03_noisy_path_bound_suite():
    with criterion(3, "noisy-path-bound"):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        within = 0
        for _ in range(20):
            config = ChainConfig(
                length=int(rng.integers(1, 5)),
                dim=int(rng.integers(2, 8)),
                n=int(rng.integers(10, 32)),
                budget_per_node=int(rng.integers(1, 12)),
                spacing=float(rng.uniform(0.0, 3.0)),
                noise_sigma=float(rng.uniform(0.1, 1.0)),
                noise_draws=200,
                seed=int(rng.integers(1 << 62)),
            )
            check = verify_bounds(config)
            within += check.empirical <= check.bound + 2.0 * check.mc_stderr
        assert within >= 19
        assert time.perf_counter() - start < 120.0


def test_04_cascade_vs_direct_condition():
    with criterion(4, "cascade-vs-direct-condition"):
        rng = np.random.default_rng(1004)
        for _ in range(1000):
            rho = float(rng.uniform(0.02, 0.98))
            b = int(rng.integers(1, 12))
            m = int(rng.integers(1, 9))
            delta = float(rng.uniform(0.0, 6.0))
            d_sv = float(rng.uniform(0.0, 6.0))
            _, _, tighter = cascade_vs_direct(delta, rho, m, b, d_sv)
            geometric = delta * rho**b * (1.0 - rho ** (m * b)) / (1.0 - rho**b)
            assert tighter == (geometric < rho**b * d_sv)


def test_05_mst_exhaustive_oracle():
    with criterion(5, "mst-exhaustive-oracle"):
        start = time.perf_counter()
        trees = [
            decode_pruefer(list(seq), 6)
            for seq in itertools.product(range(6), repeat=4)
        ]
        assert len(trees) == 1296
        rng = np.random.default_rng(1005)
        for _ in range(100):
            w = rng.uniform(0.01, 10.0, (6, 6))
            w = (w + w.T) / 2.0
            np.fill_diagonal(w, 0.0)
            got = sum(w[u, v] for u, v in mst(w))
            best = min(sum(w[u, v] for u, v in tree) for tree in trees)
            assert got == best
        assert time.perf_counter() - start < 10.0


def test_06_pruefer_uniformity():
    with criterion(6, "pruefer-uniformity"):
        rng = np.random.default_rng(1006)
        counts = {}
        for _ in range(16_000):
            key = tuple(random_spanning_tree(4, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        assert all(800 <= c <= 1200 for c in counts.values())


def test_07_budget_exactness():
    with criterion(7, "budget-exactness"):
        rng = np.random.default_rng(1007)
        kinds = ("uniform", "depth_increasing", "depth_decreasing", "edge_length")
        for _ in range(1000):
            T = int(rng.integers(1, 25))
            w = rng.uniform(0.0, 4.0, (T, T))
            w = (w + w.T) / 2.0
            np.fill_diagonal(w, 0.0)
            tree = root_tree(random_spanning_tree(T, rng), int(rng.integers(T)), w)
            B = int(rng.integers(T, T + 1000))
            scheme = AllocationScheme(
                kind=kinds[rng.integers(4)],
                alpha=float(rng.uniform(0.5, 2.0)),
                beta=float(rng.uniform(0.5, 2.0)),
                seed_fraction=float(rng.uniform(0.0, 0.6)),
            )
            alloc = allocate(tree, B, scheme)
            assert sum(alloc.per_task.values()) == B
            assert min(alloc.per_task.values()) >= 1


def test_08_distance_axioms_and_mmd_oracle():
    with criterion(8, "distance-axioms-and-mmd-oracle"):
        for k in range(20):
            rng = np.random.default_rng(1008 + k)
            collection = make_collection(rng, T=10, n=12, d=3)
            for metric in METRIC_NAMES:
                matrix = compute_distance_matrix(collection, metric)
                values = matrix.values
                assert np.array_equal(values, values.T)
                assert np.all(np.diag(values) == 0.0)
                assert np.all(values >= 0.0)
                assert np.all(np.isfinite(values))

        # the RFF estimate must track the exact-kernel statistic; use a
        # feature count whose sampling error sits well below the tolerance
        params = DistanceParams(rff_dim=4096, seed=0)
        for k in range(3):
            rng = np.random.default_rng(2008 + k)
            Xu = rng.standard_normal((200, 5))
            Xv = rng.standard_normal((200, 5)) + 3.0 / math.sqrt(5)
            u = TaskDataset("u", Xu, np.zeros(200), Xu[:1], np.zeros(1))
            v = TaskDataset("v", Xv, np.zeros(200), Xv[:1], np.zeros(1))
            approx = task_distance(u, v, "mmd", params)
            sigma = median_bandwidth(np.vstack([Xu, Xv]))

            def gram(A, B):
                sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
                return np.exp(-sq / (2.0 * sigma**2))

            exact = math.sqrt(
                max(gram(Xu, Xu).mean() + gram(Xv, Xv).mean()
                    - 2.0 * gram(Xu, Xv).mean(), 0.0)
            )
            assert abs(approx - exact) / exact < 0.05


def test_09_small_scale_ordering_reproduction():
    with criterion(9, "small-scale-ordering"):
        start = time.perf_counter()
        cascade = run_experiment(small_experiment("mst", metric="gradient")).mean_rmse
        star = run_experiment(small_experiment("star")).mean_rmse
        individual = run_experiment(small_experiment("individual")).mean_rmse
        print(f"  cascade={cascade:.3f} star={star:.3f} individual={individual:.3f}")
        assert cascade < star < individual
        assert cascade <= 0.9 * individual
        assert time.perf_counter() - start < 300.0


def test_10_budget_ablation_uniform_is_robust():
    with criterion(10, "budget-ablation-uniform-robust"):
        start = time.perf_counter()
        schemes = {
            "uniform": AllocationScheme(kind="uniform"),
            "depth_increasing": AllocationScheme(kind="depth_increasing", alpha=1.0),
            "depth_decreasing": AllocationScheme(kind="depth_decreasing", alpha=1.0),
            "edge_length": AllocationScheme(kind="edge_length", beta=1.0),
        }
        stats = {}
        for name, scheme in schemes.items():
            report = run_experiment(small_experiment("mst", metric="gradient",
                                                    scheme=scheme))
            stats[name] = (report.mean_rmse, report.std_rmse)
        best = min(stats, key=lambda k: stats[k][0])
        mean_uniform, std_uniform = stats["uniform"]
        mean_best, std_best = stats[best]
        pooled = math.sqrt((std_uniform**2 + std_best**2) / 2.0)
        print(f"  best={best} uniform={mean_uniform:.3f} "
              f"best_mean={mean_best:.3f} pooled_std={pooled:.3f}")
        assert mean_uniform <= mean_best + pooled
        assert time.perf_counter() - start < 600.0


def test_11_cli_run_determinism(tmp_path):
    with criterion(11, "cli-run-determinism"):
        config = {
            "method": "mst", "metric_name": "gradient", "budget": 60,
            "num_seeds": 3, "seed": 17,
            "synthetic": {"num_tasks": 6, "dim": 4, "n_train": 16, "n_test": 8,
                          "num_clusters": 2, "tau_between": 2.0,
                          "tau_within": 0.5, "noise_sigma": 0.2},
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        snapshots = []
        for name, jobs in (("a", "1"), ("b", "2"), ("c", "3")):
            out = tmp_path / name
            assert main(["run", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
            snapshots.append({
                p.name: p.read_bytes()
                for p in out.iterdir()
                if p.name != "run_manifest.json"
            })
        assert snapshots[0] == snapshots[1] == snapshots[2]
        assert "report.json" in snapshots[0] and "per_task.csv" in snapshots[0]
