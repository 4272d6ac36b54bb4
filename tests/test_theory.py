import dataclasses
import math
import re

import numpy as np
import pytest

from taskcascade.budget import BudgetAllocation
from taskcascade.cascade import run_cascade
from taskcascade.errors import ConfigError
from taskcascade.graph import RootedTree
from taskcascade.linmodel import contraction_rate, lambda_max
from taskcascade.seeding import substream
from taskcascade.tasks import TaskCollection, TaskDataset
from taskcascade import theory
from taskcascade.theory import (
    ChainConfig,
    NoisySpec,
    PathSpec,
    cascade_vs_direct,
    noisy_path_bound,
    path_bound,
    verify_bounds,
)


def recurrence_bound(spec: PathSpec) -> float:
    """Oracle: fold the edge-wise inequality e_i = rho^b (e_{i-1} + delta_i)."""
    e = spec.init_error
    for rho, b, delta in zip(spec.rhos, spec.budgets, spec.deltas):
        e = rho**b * (e + delta)
    return e


def noisy_recurrence_bound(spec: NoisySpec) -> float:
    """Oracle: fold E_i = rho^b (E_{i-1} + delta_i) + sigma (1 + rho^b) ||A||_F."""
    e = spec.path.init_error
    for rho, b, delta, sigma, a in zip(
        spec.path.rhos, spec.path.budgets, spec.path.deltas, spec.sigmas, spec.a_frob
    ):
        e = rho**b * (e + delta) + sigma * (1.0 + rho**b) * a
    return e


def per_draw_verify_bounds(config: ChainConfig) -> tuple[float, float, bool, float]:
    """Reference: one TaskCollection and one run_cascade per noise draw.

    (empirical, bound, satisfied, mc_stderr) as verify_bounds computed them
    when every draw was a cascade of its own.
    """
    rng = substream(config.seed, "chain")
    theta0 = rng.standard_normal(config.dim)
    direction = rng.standard_normal(config.dim)
    direction /= np.linalg.norm(direction)
    m = config.length
    thetas = [theta0 + (i / m) * config.spacing * direction for i in range(m + 1)]
    designs = [rng.standard_normal((config.n, config.dim)) for _ in range(m + 1)]
    probes = [rng.standard_normal((4, config.dim)) for _ in range(m + 1)]
    rhos, a_frob = [], []
    for X in designs:
        rhos.append(contraction_rate(X, 1.0 / lambda_max(X)))
        a_frob.append(math.sqrt(float(np.sum(1.0 / np.linalg.eigh(X.T @ X)[0]))))

    def collection(noises):
        tasks = []
        for i, (X, P, theta) in enumerate(zip(designs, probes, thetas)):
            y = X @ theta
            if noises is not None:
                y = y + noises[i]
            tasks.append(TaskDataset(f"task{i}", X, y, P, P @ theta))
        return TaskCollection(tasks, config.dim)

    tree = RootedTree(
        0,
        {i: i - 1 for i in range(1, m + 1)},
        {i: float(np.linalg.norm(thetas[i] - thetas[i - 1])) for i in range(1, m + 1)},
    )
    deltas = [tree.edge_length[i] for i in range(1, m + 1)]
    budgets_list = [config.budget_per_node] * (m + 1)
    if config.noise_sigma == 0.0:
        if config.root_budget is not None:
            budgets_list[0] = config.root_budget
        budgets = BudgetAllocation(dict(enumerate(budgets_list)), sum(budgets_list))
        result = run_cascade(collection(None), tree, budgets)
        init_error = float(np.linalg.norm(result.params[0] - thetas[0]))
        bound = path_bound(PathSpec(rhos[1:], budgets_list[1:], deltas, init_error))
        empirical = float(np.linalg.norm(result.params[m] - thetas[m]))
        return empirical, bound, empirical <= bound + 1e-9, 0.0

    budgets_list[0] = 0
    budgets = BudgetAllocation(dict(enumerate(budgets_list)), sum(budgets_list))
    noise_rng = substream(config.seed, "noise")
    errors = []
    for _ in range(config.noise_draws):
        noises = [
            config.noise_sigma * noise_rng.standard_normal(config.n) for _ in range(m + 1)
        ]
        noises[0][:] = 0.0
        result = run_cascade(collection(noises), tree, budgets, theta_init=thetas[0])
        errors.append(float(np.linalg.norm(result.params[m] - thetas[m])))
    errors_arr = np.asarray(errors)
    mc_mean = float(errors_arr.mean())
    mc_stderr = (
        float(errors_arr.std(ddof=1) / np.sqrt(len(errors_arr)))
        if len(errors_arr) > 1 else 0.0
    )
    bound = noisy_path_bound(NoisySpec(
        PathSpec(rhos[1:], budgets_list[1:], deltas, 0.0),
        [config.noise_sigma] * m,
        a_frob[1:],
    ))
    return mc_mean, bound, mc_mean <= bound + 2.0 * mc_stderr, mc_stderr


def random_path_spec(rng, m=3):
    return PathSpec(
        rhos=[float(rng.uniform(0.1, 0.95)) for _ in range(m)],
        budgets=[int(rng.integers(0, 8)) for _ in range(m)],
        deltas=[float(rng.uniform(0.0, 3.0)) for _ in range(m)],
        init_error=float(rng.uniform(0.0, 2.0)),
    )


class TestPathBound:
    def test_single_edge(self):
        spec = PathSpec(rhos=[0.5], budgets=[2], deltas=[1.0], init_error=0.0)
        assert path_bound(spec) == pytest.approx(0.25)

    def test_pure_contraction(self):
        spec = PathSpec(rhos=[0.5, 0.8], budgets=[3, 2], deltas=[0.0, 0.0],
                        init_error=2.0)
        assert path_bound(spec) == pytest.approx(0.5**3 * 0.8**2 * 2.0)

    def test_matches_recurrence_oracle(self, rng):
        for _ in range(50):
            spec = random_path_spec(rng, m=3)
            assert path_bound(spec) == pytest.approx(recurrence_bound(spec), abs=1e-12)

    def test_monotone_in_deltas_and_init_error(self, rng):
        spec = random_path_spec(rng)
        base = path_bound(spec)
        for i in range(len(spec)):
            bumped = dataclasses.replace(
                spec, deltas=[d + (0.5 if j == i else 0.0) for j, d in enumerate(spec.deltas)]
            )
            assert path_bound(bumped) >= base
        assert path_bound(dataclasses.replace(spec, init_error=spec.init_error + 1)) >= base

    def test_nonincreasing_in_budgets(self, rng):
        for _ in range(20):
            spec = random_path_spec(rng)
            base = path_bound(spec)
            for i in range(len(spec)):
                bumped = dataclasses.replace(
                    spec, budgets=[b + (1 if j == i else 0) for j, b in enumerate(spec.budgets)]
                )
                assert path_bound(bumped) <= base + 1e-15

    def test_validation(self):
        with pytest.raises(ConfigError):
            PathSpec(rhos=[1.0], budgets=[1], deltas=[0.0])
        with pytest.raises(ConfigError):
            PathSpec(rhos=[0.5], budgets=[1], deltas=[0.0, 1.0])


class TestCascadeVsDirect:
    def test_direct_substitution_example(self):
        cascade, direct, tighter = cascade_vs_direct(
            delta_max=1.0, rho_max=0.5, length=2, budget=1, direct_distance=2.0
        )
        assert cascade == pytest.approx(0.75)
        assert direct == pytest.approx(1.0)
        assert tighter is True

    def test_boundary_single_edge_equal_distance(self):
        _, _, tighter = cascade_vs_direct(
            delta_max=2.0, rho_max=0.6, length=1, budget=3, direct_distance=2.0
        )
        assert tighter is False

    def test_agrees_with_geometric_series_comparison(self, rng):
        for _ in range(300):
            rho = float(rng.uniform(0.05, 0.95))
            b = int(rng.integers(1, 10))
            m = int(rng.integers(1, 8))
            delta = float(rng.uniform(0.0, 5.0))
            d_sv = float(rng.uniform(0.0, 5.0))
            _, _, tighter = cascade_vs_direct(delta, rho, m, b, d_sv)
            geo_cascade = delta * rho**b * (1 - rho ** (m * b)) / (1 - rho**b)
            geo_direct = rho**b * d_sv
            assert tighter == (geo_cascade < geo_direct)

    def test_invariant_under_joint_scaling(self, rng):
        for _ in range(50):
            rho = float(rng.uniform(0.05, 0.95))
            b = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            delta = float(rng.uniform(0.1, 4.0))
            d_sv = float(rng.uniform(0.1, 4.0))
            c = float(rng.uniform(0.01, 100.0))
            _, _, t1 = cascade_vs_direct(delta, rho, m, b, d_sv)
            _, _, t2 = cascade_vs_direct(c * delta, rho, m, b, c * d_sv)
            assert t1 == t2

    def test_validation(self):
        with pytest.raises(ConfigError):
            cascade_vs_direct(1.0, 1.0, 2, 1, 1.0)
        with pytest.raises(ConfigError):
            cascade_vs_direct(1.0, 0.5, 0, 1, 1.0)


    @pytest.mark.parametrize("delta_max, direct_distance", [(-1.0, 1.0), (1.0, -1.0)])
    def test_negative_distance_is_rejected(self, delta_max, direct_distance):
        with pytest.raises(ConfigError, match="^distances must be nonnegative$"):
            cascade_vs_direct(delta_max, 0.5, 2, 1, direct_distance)


class TestNoisyPathBound:
    def test_zero_noise_reduces_to_path_bound(self, rng):
        for _ in range(20):
            path = random_path_spec(rng)
            spec = NoisySpec(path=path, sigmas=[0.0] * len(path),
                             a_frob=[float(rng.uniform(0, 5)) for _ in range(len(path))])
            assert noisy_path_bound(spec) == path_bound(path)

    def test_single_term(self):
        path = PathSpec(rhos=[0.5], budgets=[1], deltas=[0.0], init_error=0.0)
        spec = NoisySpec(path=path, sigmas=[1.0], a_frob=[2.0])
        assert noisy_path_bound(spec) == pytest.approx(3.0)

    def test_matches_inductive_recurrence(self, rng):
        for _ in range(50):
            path = random_path_spec(rng, m=3)
            spec = NoisySpec(
                path=path,
                sigmas=[float(rng.uniform(0, 2)) for _ in range(3)],
                a_frob=[float(rng.uniform(0, 3)) for _ in range(3)],
            )
            assert noisy_path_bound(spec) == pytest.approx(
                noisy_recurrence_bound(spec), abs=1e-12
            )

    def test_validation(self):
        path = PathSpec(rhos=[0.5], budgets=[1], deltas=[0.0])
        with pytest.raises(ConfigError):
            NoisySpec(path=path, sigmas=[1.0, 2.0], a_frob=[1.0])


class TestVerifyBounds:
    def test_zero_spacing_chain(self):
        config = ChainConfig(length=3, dim=4, n=20, budget_per_node=6,
                             spacing=0.0, seed=2)
        check = verify_bounds(config)
        assert check.mode == "noiseless"
        assert check.satisfied
        assert check.empirical <= check.bound + 1e-9
        assert check.bound < 1e-3  # only the contracted init error remains

    def test_noiseless_chains_never_violate(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            config = ChainConfig(
                length=int(rng.integers(1, 6)),
                dim=int(rng.integers(2, 11)),
                n=int(rng.integers(12, 40)),
                budget_per_node=int(rng.integers(0, 21)),
                spacing=float(rng.uniform(0.0, 5.0)),
                seed=int(rng.integers(1 << 31)),
            )
            check = verify_bounds(config)
            assert check.satisfied, dataclasses.asdict(config)

    def test_noisy_mode_mc_mean_below_bound(self):
        config = ChainConfig(length=3, dim=4, n=24, budget_per_node=8,
                             spacing=1.5, noise_sigma=0.5, noise_draws=100, seed=7)
        check = verify_bounds(config)
        assert check.mode == "noisy"
        assert check.mc_stderr > 0.0
        assert check.satisfied

    @pytest.mark.parametrize("mode", [{}, {"noise_sigma": 0.5, "noise_draws": 5}])
    @pytest.mark.parametrize("spacing", [1e308, 1e200])
    def test_overflowing_spacing_is_named(self, mode, spacing):
        # run under the suite's error::RuntimeWarning filter: nothing is warned.
        # At 1e200 only the edge lengths overflow, at 1e308 the targets too.
        config = ChainConfig(length=3, dim=3, n=8, spacing=spacing, **mode)
        problem = re.escape(f"spacing {spacing!r} is too large: chain task 1's")
        with pytest.raises(ConfigError, match=f"^{problem}"):
            verify_bounds(config)

    @pytest.mark.parametrize("spacing", [1e20, 1e58])
    def test_noise_below_the_rounding_of_the_errors_is_rejected(self, spacing):
        # at these spacings the leaf errors of every draw agree to within a
        # few ulps, so their standard error would be rounding noise
        config = ChainConfig(length=5, spacing=spacing, noise_sigma=0.36, noise_draws=50)
        problem = re.escape(f"spacing {spacing!r} is too large for noise_sigma 0.36")
        with pytest.raises(ConfigError, match=f"^{problem}"):
            verify_bounds(config)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_noise_about_half_rounding_is_rejected(self, seed):
        # at 1e15 about half of the leaf errors' spread is the rounding of
        # parameters near 1e15: it is 0.43-0.52 of sqrt(dim) ulps of 1e15
        config = ChainConfig(length=4, spacing=1e15, noise_sigma=0.36, noise_draws=100,
                             seed=seed)
        problem = re.escape(f"spacing {1e15!r} is too large for noise_sigma 0.36")
        with pytest.raises(ConfigError, match=f"^{problem}"):
            verify_bounds(config)

    def test_one_draw_call_is_the_per_draw_sequence(self):
        K, m1, n = 7, 4, 9
        one = substream(11, "noise").standard_normal((K, m1, n))
        rng = substream(11, "noise")
        per_draw = [[rng.standard_normal(n) for _ in range(m1)] for _ in range(K)]
        assert one.tobytes() == np.asarray(per_draw).tobytes()

    @pytest.mark.parametrize("config", [
        ChainConfig(length=5, noise_sigma=0.5, noise_draws=200, seed=42),
        ChainConfig(length=3, dim=4, n=24, budget_per_node=8, spacing=1.5,
                    noise_sigma=0.5, noise_draws=100, seed=7),
        ChainConfig(length=1, dim=1, n=3, budget_per_node=1, noise_sigma=2.0,
                    noise_draws=1, seed=3),
        ChainConfig(length=6, dim=10, n=12, budget_per_node=0, spacing=4.0,
                    noise_sigma=0.1, noise_draws=17, seed=99),
        ChainConfig(length=2, dim=3, n=40, budget_per_node=60, root_budget=4,
                    noise_sigma=1.3, noise_draws=50, seed=5),
    ])
    def test_noisy_draws_stacked_equal_one_cascade_per_draw(self, config):
        want = per_draw_verify_bounds(config)
        check = verify_bounds(config)
        got = (check.empirical, check.bound, check.satisfied, check.mc_stderr)
        assert got[2] == want[2]
        assert got[1] == want[1]
        for g, w in (got[0], want[0]), (got[3], want[3]):
            assert abs(g - w) <= 1e-12 * abs(w)

    def test_noiseless_walk_equals_the_cascade_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            config = ChainConfig(
                length=int(rng.integers(1, 6)),
                dim=int(rng.integers(1, 11)),
                n=int(rng.integers(12, 40)),
                budget_per_node=int(rng.integers(0, 21)),
                root_budget=None if rng.random() < 0.5 else int(rng.integers(0, 9)),
                spacing=float(rng.uniform(0.0, 5.0)),
                seed=int(rng.integers(1 << 31)),
            )
            check = verify_bounds(config)
            got = (check.empirical, check.bound, check.satisfied, check.mc_stderr)
            assert got == per_draw_verify_bounds(config)

    @pytest.mark.parametrize("config", [
        ChainConfig(length=5, seed=42),
        ChainConfig(length=3, dim=8, n=8, seed=1234),
        ChainConfig(length=2, dim=1, n=3, seed=3),
        ChainConfig(length=4, dim=20, n=200, spacing=4.0, seed=7),
    ])
    def test_chain_spectra_match_their_direct_forms(self, config):
        # a_frob = sqrt(sum 1/lam) is ||(X^T X)^-1 X^T||_F, and rho comes
        # from the eigenvalues of eigh, not those of eigvalsh
        _, designs, etas, rhos, a_frob = theory._build_chain(config)
        for design, eta, rho, a in zip(designs, etas, rhos, a_frob):
            X = design.X
            A = np.linalg.solve(X.T @ X, X.T)
            assert a == pytest.approx(np.linalg.norm(A, ord="fro"), rel=1e-12, abs=0)
            lam = np.linalg.eigvalsh(X.T @ X)
            want = np.max(np.abs(1.0 - eta * np.maximum(lam, 0.0)))
            assert rho == pytest.approx(want, rel=1e-12, abs=0)
            assert eta == 1.0 / lambda_max(X)

    def test_invalid_chain_rejected(self):
        with pytest.raises(ConfigError):
            verify_bounds(ChainConfig(length=0))
        with pytest.raises(ConfigError):
            verify_bounds(ChainConfig(length=2, dim=8, n=4))
