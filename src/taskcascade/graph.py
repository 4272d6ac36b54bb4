"""Tree construction over tasks: MST, star, and uniform random trees.

Trees are rooted by orienting all edges away from a chosen seed task; the
default seed is the medoid of the distance matrix. Undirected edge sets are
lists of (u, v) index pairs with u < v, sorted, so construction is
deterministic across platforms.

A :class:`RootedTree` checks and orders itself once, when it is built: one
breadth-first pass from the root confirms that every task reaches it and
stores the cascade order, which the executor, budget allocation and
:func:`save_tree` read as ``tree.order``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, GraphError
from .distances import DistanceMatrix
from .seeding import substream

Edge = tuple[int, int]
TREE_KINDS = ("mst", "star", "random")


@dataclass
class RootedTree:
    """Parent map plus root, encoding a cascade order over task indices.

    ``parent`` maps every non-root task to its parent; ``edge_length`` holds
    the distance from each non-root task to its parent. ``order`` is the
    breadth-first order from the root, children in ascending index, so each
    depth is one contiguous block after the depth above it.
    """

    root: int
    parent: dict[int, int]
    edge_length: dict[int, float] = field(default_factory=dict)
    order: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.root in self.parent:
            raise GraphError("root must not have a parent")
        if not self.edge_length:
            self.edge_length = {v: 0.0 for v in self.parent}
        if set(self.edge_length) != set(self.parent):
            raise GraphError("edge_length keys must match parent keys")
        children: dict[int, list[int]] = {}
        for v in sorted(self.parent):
            children.setdefault(self.parent[v], []).append(v)
        # Each node is appended once, by its parent, so the loop ends; the
        # nodes it never reaches lie on a cycle or below a missing parent.
        self.order = [self.root]
        for node in self.order:
            self.order.extend(children.get(node, ()))
        if len(self.order) != self.size:
            missed = min(set(self.parent).difference(self.order))
            raise GraphError(f"node {missed} does not reach the root")

    @property
    def size(self) -> int:
        return len(self.parent) + 1


def _weights(dist: DistanceMatrix | np.ndarray) -> np.ndarray:
    w = dist.values if isinstance(dist, DistanceMatrix) else np.asarray(dist, float)
    if not np.isfinite(w).all():
        raise GraphError("distance matrix has non-finite weights")
    return w


def mst(dist: DistanceMatrix | np.ndarray) -> list[Edge]:
    """Minimum spanning tree of the complete task graph (dense Prim).

    Equal-weight candidates are broken toward the lexicographically smallest
    edge (min endpoint, then max endpoint), so the result is deterministic.
    Each step is a few array operations over the T tasks: an argmin over
    the frontier, with the endpoints compared only among exact ties.
    """
    w = _weights(dist)
    T = w.shape[0]
    if T <= 1:
        return []
    in_tree = np.zeros(T, dtype=bool)
    in_tree[0] = True
    # cheapest known edge (best_from[v], v) into each task; inf once in the tree
    best_w = w[0].copy()
    best_w[0] = np.inf
    best_from = np.zeros(T, dtype=np.intp)
    edges: list[Edge] = []
    for _ in range(T - 1):
        pick = int(np.argmin(best_w))
        ties = np.flatnonzero(best_w == best_w[pick])
        if ties.size > 1:
            lo, hi = _endpoints(best_from[ties], ties)
            pick = int(ties[np.lexsort((hi, lo))[0]])
        u = int(best_from[pick])
        edges.append((min(u, pick), max(u, pick)))
        in_tree[pick] = True
        best_w[pick] = np.inf
        new_w = w[pick]
        better = (new_w < best_w) & ~in_tree
        tied = np.flatnonzero(new_w == best_w)
        if tied.size:
            new_lo, new_hi = _endpoints(pick, tied)
            old_lo, old_hi = _endpoints(best_from[tied], tied)
            better[tied] = (new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi))
        np.copyto(best_w, new_w, where=better)
        np.copyto(best_from, pick, where=better)
    return sorted(edges)


def _endpoints(u, v) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) endpoints of the edges (u, v), elementwise."""
    return np.minimum(u, v), np.maximum(u, v)


def medoid(dist: DistanceMatrix | np.ndarray) -> int:
    """Task with the minimal sum of distances to all others (ties: lowest index).

    When a row sum overflows, every row is summed again with its entries
    divided by a power of two above the largest, which no sum overflows.
    """
    w = _weights(dist)
    with np.errstate(over="ignore"):
        sums = w.sum(axis=1)
    if not np.isfinite(sums).all():
        _, exponent = np.frexp(w.max())
        sums = np.ldexp(w, -exponent).sum(axis=1)
    return int(np.argmin(sums))


def root_tree(
    edges: list[Edge],
    root: int,
    dist: DistanceMatrix | np.ndarray | None = None,
) -> RootedTree:
    """Orient a spanning tree's edges away from ``root`` (BFS).

    Edge lengths are looked up in ``dist`` when given, else 0.
    """
    nodes: set[int] = {root}
    for u, v in edges:
        nodes.update((u, v))
    T = len(nodes)
    if len(edges) != T - 1:
        raise GraphError(f"{len(edges)} edges cannot span {T} nodes")
    adjacency: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        adjacency[u].append(v)
        adjacency[v].append(u)

    w = _weights(dist) if dist is not None else None
    parent: dict[int, int] = {}
    order = [root]
    for node in order:
        for nxt in sorted(adjacency[node]):
            if nxt != root and nxt not in parent:
                parent[nxt] = node
                order.append(nxt)
    if len(order) != T:
        raise GraphError("edge set is disconnected or contains a cycle")
    edge_length = {v: float(w[p, v]) for v, p in parent.items()} if w is not None else {}
    return RootedTree(root=root, parent=parent, edge_length=edge_length)


def decode_pruefer(sequence: list[int] | np.ndarray, num_nodes: int) -> list[Edge]:
    """Decode a Pruefer sequence over labels {0..T-1} into a labeled tree.

    Each step joins the smallest current leaf to the next label, taken from
    a min-heap of leaves, so decoding is O(T log T).
    """
    T = num_nodes
    seq = [int(s) for s in sequence]
    if T < 1:
        raise GraphError("need at least one node")
    if len(seq) != max(T - 2, 0):
        raise GraphError(f"sequence length {len(seq)} invalid for {T} nodes")
    if any(not 0 <= s < T for s in seq):
        raise GraphError("sequence labels out of range")
    if T == 1:
        return []
    if T == 2:
        return [(0, 1)]
    degree = [1] * T
    for s in seq:
        degree[s] += 1
    # min-heap of the current leaves; a node joins when its last occurrence
    # in the sequence is consumed
    leaves = [v for v in range(T) if degree[v] == 1]
    edges: list[Edge] = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u, v = sorted(leaves)
    edges.append((u, v))
    return sorted(edges)


def random_spanning_tree(num_nodes: int, seed: int | np.random.Generator) -> list[Edge]:
    """Uniform random labeled tree via a uniformly sampled Pruefer sequence."""
    if num_nodes < 1:
        raise GraphError("need at least one node")
    if num_nodes <= 2:
        return decode_pruefer([], num_nodes)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    seq = rng.integers(0, num_nodes, size=num_nodes - 2)
    return decode_pruefer(seq, num_nodes)


def star_tree(
    num_nodes: int,
    root: int,
    dist: DistanceMatrix | np.ndarray | None = None,
) -> RootedTree:
    """Depth-1 tree: every non-root task is a direct child of the root."""
    if not 0 <= root < num_nodes:
        raise GraphError(f"root {root} out of range for {num_nodes} nodes")
    edges = [(min(root, v), max(root, v)) for v in range(num_nodes) if v != root]
    return root_tree(sorted(edges), root, dist)


def build_tree(dist: DistanceMatrix, kind: str, seed: int = 0) -> RootedTree:
    """The ``kind`` tree over the tasks of ``dist``, rooted at its medoid.

    ``mst`` is the minimum spanning tree, ``star`` links every task to the
    root, and ``random`` is a uniform random spanning tree drawn from the
    substream (seed, "tree"). Edge lengths are looked up in ``dist``.
    """
    root = medoid(dist)
    if kind == "mst":
        return root_tree(mst(dist), root, dist)
    if kind == "star":
        return star_tree(dist.size, root, dist)
    if kind == "random":
        edges = random_spanning_tree(dist.size, substream(seed, "tree"))
        return root_tree(edges, root, dist)
    raise ConfigError(f"unknown tree kind {kind!r}; valid: {TREE_KINDS}")


def topological_order(tree: RootedTree) -> list[int]:
    """Root-first order with children visited in ascending index (BFS)."""
    return list(tree.order)


def depths(tree: RootedTree) -> dict[int, int]:
    """Depth of every node; root is 0, each child one deeper than its parent."""
    out = {tree.root: 0}
    for node in tree.order[1:]:
        out[node] = out[tree.parent[node]] + 1
    return out


def save_tree(tree: RootedTree, path: str | Path, ids: list[str] | None = None) -> None:
    """Write an edge-list CSV ``parent,child,edge_length`` under a root header."""
    if ids is None:
        ids = [f"task{i}" for i in range(tree.size)]
    with open(path, "w") as fh:
        fh.write(f"# root={ids[tree.root]}\n")
        fh.write("parent,child,edge_length\n")
        for child in tree.order[1:]:
            par = tree.parent[child]
            fh.write(f"{ids[par]},{ids[child]},{tree.edge_length[child]!r}\n")
