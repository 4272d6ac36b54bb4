import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade.budget import (
    SCHEME_KINDS,
    AllocationScheme,
    BudgetAllocation,
    allocate,
    largest_remainder,
    split_uniform,
    uniform_default,
)
from taskcascade.errors import ConfigError, InfeasibleBudgetError
from taskcascade.graph import (
    depths,
    random_spanning_tree,
    root_tree,
    star_tree,
)

from conftest import random_trees


def chain(n):
    return root_tree([(i, i + 1) for i in range(n - 1)], 0)


class TestLargestRemainder:
    def test_exact_split(self):
        assert largest_remainder([1.0, 1.0], 4) == [2, 2]

    def test_remainders_go_to_largest_fractions(self):
        # shares 1.4, 2.8, 0.8 -> floors 1, 2, 0 with leftovers to 2 and 3
        assert largest_remainder([1.4, 2.8, 0.8], 5) == [1, 3, 1]

    def test_fraction_tie_breaks_to_lower_index(self):
        # shares 1.5, 1.5, 1.0: one leftover unit goes to index 0
        assert largest_remainder([1.5, 1.5, 1.0], 4) == [2, 1, 1]

    def test_never_off_by_one_from_real_shares(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            weights = rng.uniform(0.0, 5.0, k).tolist()
            total = int(rng.integers(0, 100))
            out = largest_remainder(weights, total)
            assert sum(out) == total
            wsum = sum(weights) or float(k)
            for got, w in zip(out, weights if sum(weights) else [1.0] * k):
                assert abs(got - total * w / wsum) < 1.0

    def test_zero_weights_fall_back_to_uniform(self):
        assert largest_remainder([0.0, 0.0], 4) == [2, 2]


class TestAllocate:
    def test_star_uniform_worked_example(self):
        # B=500, 10% seed: root 50; the rest split 112/113 with sum exact
        tree = star_tree(5, 0)
        alloc = allocate(tree, 500, AllocationScheme(kind="uniform", seed_fraction=0.1))
        assert alloc.per_task[0] == 50
        assert sorted(alloc.per_task[v] for v in range(1, 5)) == [112, 112, 113, 113]
        assert sum(alloc.per_task.values()) == 500

    def test_single_task_gets_everything(self):
        tree = star_tree(1, 0)
        for scheme in (AllocationScheme(), AllocationScheme(kind="edge_length")):
            assert allocate(tree, 7, scheme).per_task == {0: 7}

    def test_chain_depth_increasing_worked_example(self):
        # root 10; weights (depth+1) = 2, 3 over the 90 remaining -> 36, 54
        alloc = allocate(chain(3), 100,
                         AllocationScheme(kind="depth_increasing", alpha=1.0))
        assert alloc.per_task == {0: 10, 1: 36, 2: 54}

    def test_budget_equal_to_size_gives_all_ones(self):
        tree = chain(12)
        alloc = uniform_default(tree, 12)
        assert all(b == 1 for b in alloc.per_task.values())

    def test_no_seed_bonus_even_split(self):
        tree = star_tree(6, 0)
        alloc = allocate(tree, 12, AllocationScheme(kind="uniform", seed_fraction=0.0))
        assert all(b == 2 for b in alloc.per_task.values())

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudgetError):
            allocate(chain(5), 4, AllocationScheme())

    def test_sum_exact_and_min_one_over_random_configs(self):
        rng = np.random.default_rng(32)
        kinds = ("uniform", "depth_increasing", "depth_decreasing", "edge_length")
        for _ in range(1000):
            T = int(rng.integers(1, 20))
            edges = random_spanning_tree(T, rng)
            w = rng.uniform(0.0, 3.0, (T, T))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            tree = root_tree(edges, int(rng.integers(T)), w)
            B = int(rng.integers(T, T + 500))
            scheme = AllocationScheme(
                kind=kinds[rng.integers(4)],
                alpha=float(rng.uniform(0.5, 2.5)),
                beta=float(rng.uniform(0.5, 2.5)),
                seed_fraction=float(rng.uniform(0.0, 0.5)),
            )
            alloc = allocate(tree, B, scheme)
            assert sum(alloc.per_task.values()) == B
            assert min(alloc.per_task.values()) >= 1
            assert set(alloc.per_task) == set(range(T))

    def test_depth_increasing_monotone_on_chain(self):
        tree = chain(6)
        alloc = allocate(tree, 120, AllocationScheme(kind="depth_increasing", alpha=1.0))
        d = depths(tree)
        ordered = sorted((d[v], alloc.per_task[v]) for v in tree.parent)
        budgets = [b for _, b in ordered]
        assert budgets == sorted(budgets)

    def test_depth_decreasing_monotone_on_chain(self):
        tree = chain(6)
        alloc = allocate(tree, 120, AllocationScheme(kind="depth_decreasing", alpha=1.0))
        d = depths(tree)
        ordered = sorted((d[v], alloc.per_task[v]) for v in tree.parent)
        budgets = [b for _, b in ordered]
        assert budgets == sorted(budgets, reverse=True)

    def test_edge_length_favors_long_edges(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[0, 2] = w[2, 0] = 9.0
        w[1, 2] = w[2, 1] = 5.0
        tree = root_tree([(0, 1), (0, 2)], 0, w)
        alloc = allocate(tree, 100, AllocationScheme(kind="edge_length", beta=1.0))
        assert alloc.per_task[2] > alloc.per_task[1]

    def test_within_one_of_exact_shares(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            T = int(rng.integers(2, 12))
            tree = root_tree(random_spanning_tree(T, rng), 0)
            B = int(rng.integers(T, 400))
            scheme = AllocationScheme(kind="uniform", seed_fraction=0.1)
            alloc = allocate(tree, B, scheme)
            seed_budget = min(max(1, int(0.1 * B)), B - (T - 1))
            exact = 1 + (B - seed_budget - (T - 1)) / (T - 1)
            for v in tree.parent:
                assert abs(alloc.per_task[v] - exact) < 1.0


@settings(max_examples=200, deadline=None)
@given(
    tree=random_trees(),
    kind=st.sampled_from(SCHEME_KINDS),
    alpha=st.floats(0.1, 3.0),
    beta=st.floats(0.1, 3.0),
    seed_fraction=st.floats(0.0, 0.999) | st.just(0.0),
    extra=st.integers(0, 5000),
)
def test_allocation_sums_exactly_with_one_step_each(tree, kind, alpha, beta,
                                                    seed_fraction, extra):
    total = tree.size + extra
    scheme = AllocationScheme(kind=kind, alpha=alpha, beta=beta,
                              seed_fraction=seed_fraction)
    alloc = allocate(tree, total, scheme)
    assert set(alloc.per_task) == set(range(tree.size))
    assert sum(alloc.per_task.values()) == total
    assert min(alloc.per_task.values()) >= 1


class TestSplitUniform:
    def test_even(self):
        assert split_uniform(4, 8) == [2, 2, 2, 2]

    def test_remainder_to_lowest_indices(self):
        assert split_uniform(4, 10) == [3, 3, 2, 2]

    def test_infeasible(self):
        with pytest.raises(InfeasibleBudgetError):
            split_uniform(5, 4)


def test_budget_allocation_validates_sum():
    with pytest.raises(ConfigError):
        BudgetAllocation({0: 1, 1: 2}, 4)


def test_scheme_validation():
    with pytest.raises(ConfigError):
        AllocationScheme(kind="nope")
    with pytest.raises(ConfigError):
        AllocationScheme(seed_fraction=1.0)
    with pytest.raises(ConfigError):
        AllocationScheme(alpha=0.0)
