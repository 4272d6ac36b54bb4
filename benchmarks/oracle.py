"""Independent reference computations for the benchmark's output checks.

Each function recomputes one stage of the taskcascade pipeline from its
definition with plain numpy, without calling the code under test. Random
draws use ``taskcascade.seeding`` (the package's definition of its random
streams), so the oracle sees the same synthetic data and random trees.
Refinement is evaluated in closed form in the eigenbasis of X^T X for a
given step size; ``exact_lambda_max`` gives the step size the paper
specifies, 1/lambda_max, so callers can separate the package's estimate of
lambda_max from everything downstream of it.
"""

from __future__ import annotations

import heapq

import numpy as np

from taskcascade.seeding import derive_seed, substream


def synthetic(seed, num_tasks, dim, n_train, n_test, num_clusters,
              tau_between, tau_within, noise_sigma):
    """Clustered tasks as (X_train, y_train, X_test, y_test) tuples."""
    centers = substream(seed, "centers")
    theta0 = centers.standard_normal(dim)
    shifts = tau_between * centers.standard_normal((num_clusters, dim))
    tasks = []
    for v in range(num_tasks):
        rng = substream(seed, "task", v)
        theta = theta0 + shifts[v % num_clusters] + tau_within * rng.standard_normal(dim)
        X_train = rng.standard_normal((n_train, dim))
        y_train = X_train @ theta + noise_sigma * rng.standard_normal(n_train)
        X_test = rng.standard_normal((n_test, dim))
        y_test = X_test @ theta + noise_sigma * rng.standard_normal(n_test)
        tasks.append((X_train, y_train, X_test, y_test))
    return tasks


def gradient_distances(tasks):
    """Euclidean distances between normalized gradients X^T y at zero."""
    g = np.stack([X.T @ y for X, y, _, _ in tasks])
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    g = np.where(norms > 0, g / np.where(norms > 0, norms, 1.0), g)
    diff = g[:, None, :] - g[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def wasserstein_distances(tasks):
    """Exact 1-d W1 between training targets (equal sample sizes)."""
    ys = np.sort(np.stack([y for _, y, _, _ in tasks]), axis=1)
    return np.mean(np.abs(ys[:, None, :] - ys[None, :, :]), axis=2)


def mst(D):
    """Dense Prim; ties go to the lexicographically smallest edge."""
    T = D.shape[0]
    in_tree = np.zeros(T, dtype=bool)
    in_tree[0] = True
    best = D[0].astype(float).copy()
    best_from = np.zeros(T, dtype=int)
    edges = []
    idx = np.arange(T)
    for _ in range(T - 1):
        lo = np.minimum(best_from, idx)
        hi = np.maximum(best_from, idx)
        cand = np.flatnonzero(~in_tree)
        pick = cand[np.lexsort((hi[cand], lo[cand], best[cand]))[0]]
        edges.append((int(lo[pick]), int(hi[pick])))
        in_tree[pick] = True
        out = ~in_tree
        new_lo, new_hi = np.minimum(pick, idx), np.maximum(pick, idx)
        better = out & (
            (D[pick] < best)
            | ((D[pick] == best) & ((new_lo < lo) | ((new_lo == lo) & (new_hi < hi))))
        )
        best[better] = D[pick][better]
        best_from[better] = pick
    return sorted(edges)


def medoid(D):
    return int(np.argmin(D.sum(axis=1)))


def decode_pruefer(seq, T):
    degree = np.ones(T, dtype=int)
    np.add.at(degree, seq, 1)
    leaves = [v for v in range(T) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, int(s)), max(leaf, int(s))))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, int(s))
    u, v = sorted(leaves)
    edges.append((u, v))
    return sorted(edges)


def random_tree_edges(rep_seed, T):
    return decode_pruefer(substream(rep_seed, "tree").integers(0, T, size=T - 2), T)


def orient(edges, root, T):
    """Parent map and root-first order of a spanning tree rooted at ``root``."""
    adjacency = [[] for _ in range(T)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    parent, order = {}, [root]
    for node in order:
        for nxt in adjacency[node]:
            if nxt != root and nxt not in parent:
                parent[nxt] = node
                order.append(nxt)
    return parent, order


def depths(parent, order):
    out = {order[0]: 0}
    for v in order[1:]:
        out[v] = out[parent[v]] + 1
    return [out[v] for v in range(len(order))]


def _spread(total, items):
    """Split ``total`` evenly over ``items``; extra units go to the first ones."""
    q, r = divmod(total, len(items))
    return {v: q + (k < r) for k, v in enumerate(items)}


def uniform_budgets(T, root, B):
    """The default uniform scheme: 10% of B for the root, one step for all."""
    seed_budget = min(max(1, int(np.floor(0.1 * B))), B - (T - 1))
    others = [v for v in range(T) if v != root]
    extra = _spread(B - seed_budget - (T - 1), others)
    budgets = [1 + extra.get(v, 0) for v in range(T)]
    budgets[root] = seed_budget
    return budgets


def individual_budgets(T, B):
    extra = _spread(B - T, list(range(T)))
    return [1 + extra[v] for v in range(T)]


def exact_lambda_max(X):
    return float(np.linalg.eigvalsh(X.T @ X)[-1])


def refine(theta0, X, y, b, eta):
    """b gradient steps of size eta on 0.5 ||X theta - y||^2, in closed form."""
    lam, V = np.linalg.eigh(X.T @ X)
    z0 = V.T @ theta0
    c = V.T @ (X.T @ y)
    r = (1.0 - eta * lam) ** b
    safe = np.where(lam > 0, lam, 1.0)
    z = np.where(lam > 0, r * z0 + (1.0 - r) * c / safe, z0)
    return V @ z


def rmse(theta, X, y):
    r = X @ theta - y
    return float(np.sqrt(np.mean(r * r)))


def cascade(tasks, parent, order, budgets, etas):
    """Test RMSE per task after refining along the tree, root first.

    With ``parent`` None every task starts from zero (no transfer).
    """
    dim = tasks[0][0].shape[1]
    params = {}
    for v in order:
        start = params[parent[v]] if parent and v in parent else np.zeros(dim)
        X, y, _, _ = tasks[v]
        params[v] = refine(start, X, y, budgets[v], etas[v])
    return [rmse(params[v], tasks[v][2], tasks[v][3]) for v in range(len(tasks))]


def replicate(method, budget, rep_seed, tasks, etas):
    """Expected outputs of one replicate of ``method`` on ``tasks``.

    ``etas`` holds the step size of each task.
    """
    T = len(tasks)
    if method == "individual":
        budgets = individual_budgets(T, budget)
        parent, root, order = None, None, list(range(T))
    else:
        D = gradient_distances(tasks)
        root = medoid(D)
        if method == "star":
            edges = [(min(root, v), max(root, v)) for v in range(T) if v != root]
        elif method == "random_tree":
            edges = random_tree_edges(rep_seed, T)
        else:
            edges = mst(D)
        parent, order = orient(edges, root, T)
        budgets = uniform_budgets(T, root, budget)
    test = cascade(tasks, parent, order, budgets, etas)
    return {
        "mean_rmse": float(np.mean(test)),
        "test_rmse": test,
        "budgets": budgets,
        "parent": parent,
        "root": root,
    }


def replicate_seed(seed, r):
    return derive_seed(seed, "replicate", r)
