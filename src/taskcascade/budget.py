"""Allocation of a global refinement budget across the tasks of a tree.

The root gets a fixed fraction of the budget (default 10%), every task is
guaranteed at least one step, and the remainder is split over non-root tasks
proportionally to scheme weights, with largest-remainder rounding so the
total is preserved exactly. A weight (depth+1)^alpha, (depth+1)^-alpha or
(edge+epsilon)^beta is formed from its log, relative to the largest, so the
largest weight is 1 and none overflows at any finite exponent. A weight
that underflows to 0 is below 2**-1074 of the largest, so its share of a
budget up to 2**53 is below one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InfeasibleBudgetError
from .graph import RootedTree, depths

SCHEME_KINDS = ("uniform", "depth_increasing", "depth_decreasing", "edge_length")


@dataclass
class AllocationScheme:
    """How non-root budget is weighted across tasks.

    ``seed_fraction`` is the share reserved for the root; 0 means no seed
    bonus and the root competes under the same weights as everyone else.
    """

    kind: str = "uniform"
    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 1e-9
    seed_fraction: float = 0.1

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ConfigError(f"unknown scheme {self.kind!r}; valid: {SCHEME_KINDS}")
        if not all(0 < v < math.inf for v in (self.alpha, self.beta, self.epsilon)):
            raise ConfigError("alpha, beta and epsilon must be positive and finite")
        if not 0.0 <= self.seed_fraction < 1.0:
            raise ConfigError("seed_fraction must be in [0, 1)")


@dataclass
class BudgetAllocation:
    """Integer per-task budgets summing exactly to the global budget."""

    per_task: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.per_task.values()) != self.total:
            raise ConfigError(
                f"per-task budgets sum to {sum(self.per_task.values())}, "
                f"expected {self.total}"
            )
        if any(b < 0 for b in self.per_task.values()):
            raise ConfigError("budgets must be nonnegative")


def largest_remainder(weights: list[float], total: int) -> list[int]:
    """Split ``total`` units proportionally to ``weights``, exactly.

    Every item gets the floor of its real-valued share; leftover units go to
    the largest fractional parts, ties broken toward lower index. A float
    weight is an integer over a power of two, so the shares are integer
    quotients and remainders, exact at any total and any scale of weights.
    """
    if total < 0:
        raise ConfigError("total must be nonnegative")
    if any(w < 0 for w in weights):
        raise ConfigError("weights must be nonnegative")
    if not weights:
        if total:
            raise ConfigError("cannot split a positive total over no items")
        return []
    ratios = [w.as_integer_ratio() for w in weights]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    wsum = sum(ints)
    if wsum == 0:
        ints, wsum = [1] * len(ints), len(ints)
    shares = [divmod(total * w, wsum) for w in ints]
    out = [floor for floor, _ in shares]
    leftover = total - sum(out)
    order = sorted(range(len(out)), key=lambda i: (-shares[i][1], i))
    for i in order[:leftover]:
        out[i] += 1
    return out


def _scheme_weights(
    scheme: AllocationScheme, node_depth: dict[int, int], edge_length: dict[int, float],
    members: list[int],
) -> list[float]:
    """Each member's weight base**exponent, formed as exp(exponent * (log
    base - the largest log base)): the largest is 1 and none overflows."""
    if scheme.kind == "uniform":
        return [1.0] * len(members)
    if scheme.kind == "edge_length":
        exponent, logs = scheme.beta, []
        for v in members:  # log(edge + epsilon), without the sum that may overflow
            hi, lo = sorted((edge_length.get(v, 0.0), scheme.epsilon), reverse=True)
            logs.append(math.log(hi) + math.log1p(lo / hi))
    else:
        sign = 1 if scheme.kind == "depth_increasing" else -1
        exponent, logs = scheme.alpha, [sign * math.log(node_depth[v] + 1) for v in members]
    top = max(logs)
    return [math.exp(exponent * (x - top)) for x in logs]


def allocate(tree: RootedTree, total: int, scheme: AllocationScheme) -> BudgetAllocation:
    """Allocate ``total`` refinement steps over the tree's tasks.

    Requires ``total >= size`` so every task can receive at least one step.
    """
    T = tree.size
    if total < T:
        raise InfeasibleBudgetError(
            f"budget {total} cannot give {T} tasks one step each"
        )
    if T == 1:
        return BudgetAllocation({tree.root: total}, total)

    node_depth = depths(tree)
    non_root = sorted(tree.parent)
    per_task = {v: 1 for v in node_depth}

    if scheme.seed_fraction > 0:
        seed_budget = max(1, math.floor(scheme.seed_fraction * total))
        seed_budget = min(seed_budget, total - (T - 1))
        per_task[tree.root] = seed_budget
        pool = total - seed_budget - (T - 1)
        members = non_root
    else:
        # no seed bonus: the root competes under the scheme weights; its
        # edge-length weight is 0 (it has no parent edge)
        pool = total - T
        members = sorted(node_depth)

    weights = _scheme_weights(scheme, node_depth, tree.edge_length, members)
    for v, extra in zip(members, largest_remainder(weights, pool)):
        per_task[v] += extra
    return BudgetAllocation(per_task, total)


def uniform_default(tree: RootedTree, total: int) -> BudgetAllocation:
    """Uniform allocation with the default 10% seed share."""
    return allocate(tree, total, AllocationScheme(kind="uniform", seed_fraction=0.1))


def split_uniform(num_items: int, total: int) -> BudgetAllocation:
    """Even split of ``total`` over ``num_items`` tasks, one step guaranteed.

    Used by the no-transfer baseline, which has no seed to favor.
    """
    if total < num_items:
        raise InfeasibleBudgetError(
            f"budget {total} cannot give {num_items} tasks one step each"
        )
    extras = largest_remainder([1.0] * num_items, total - num_items)
    return BudgetAllocation({i: 1 + extra for i, extra in enumerate(extras)}, total)
