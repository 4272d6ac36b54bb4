import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade.distances import DistanceMatrix
from taskcascade.errors import ConfigError, GraphError
from taskcascade.graph import (
    RootedTree,
    build_tree,
    decode_pruefer,
    depths,
    medoid,
    mst,
    random_spanning_tree,
    root_tree,
    save_tree,
    star_tree,
    topological_order,
)
from taskcascade.seeding import substream

from conftest import random_trees, read_tree_csv


def encode_pruefer(edges, T):
    """Oracle: classic encode (peel smallest leaves), inverse of decode."""
    adj = {v: set() for v in range(T)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seq = []
    for _ in range(T - 2):
        leaf = min(v for v in range(T) if len(adj[v]) == 1)
        neighbor = next(iter(adj[leaf]))
        seq.append(neighbor)
        adj[neighbor].discard(leaf)
        adj[leaf].clear()
    return seq


def decode_pruefer_quadratic(seq, T):
    """Reference: the O(T^2) decoder, a linear scan for the smallest leaf."""
    if T == 1:
        return []
    if T == 2:
        return [(0, 1)]
    degree = [1] * T
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(T) if degree[v] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (v for v in range(T) if degree[v] == 1)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def mst_python_prim(w):
    """Reference: the pure-Python dense Prim with the lexicographic tie-break."""
    T = w.shape[0]
    if T <= 1:
        return []
    in_tree = np.zeros(T, dtype=bool)
    in_tree[0] = True
    best_w = w[0].copy()
    best_from = np.zeros(T, dtype=int)
    edges = []
    for _ in range(T - 1):
        pick = None
        pick_key = None
        for v in range(T):
            if in_tree[v]:
                continue
            u = int(best_from[v])
            key = (best_w[v], min(u, v), max(u, v))
            if pick_key is None or key < pick_key:
                pick, pick_key = v, key
        u = int(best_from[pick])
        edges.append((min(u, pick), max(u, pick)))
        in_tree[pick] = True
        for v in range(T):
            if in_tree[v]:
                continue
            key_new = (w[pick, v], min(pick, v), max(pick, v))
            u_old = int(best_from[v])
            key_old = (best_w[v], min(u_old, v), max(u_old, v))
            if key_new < key_old:
                best_w[v] = w[pick, v]
                best_from[v] = pick
    return sorted(edges)


def all_labeled_trees(T):
    if T == 1:
        return [[]]
    if T == 2:
        return [[(0, 1)]]
    return [
        decode_pruefer(list(seq), T)
        for seq in itertools.product(range(T), repeat=T - 2)
    ]


def symmetric_matrix(rng, T):
    w = rng.uniform(0.1, 10.0, (T, T))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


class TestMst:
    def test_unique_triangle(self):
        w = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        assert mst(w) == [(0, 1), (1, 2)]

    def test_single_node(self):
        assert mst(np.zeros((1, 1))) == []

    def test_matches_exhaustive_minimum(self):
        trees = all_labeled_trees(6)
        assert len(trees) == 1296
        rng = np.random.default_rng(21)
        for _ in range(30):
            w = symmetric_matrix(rng, 6)
            got = sum(w[u, v] for u, v in mst(w))
            best = min(sum(w[u, v] for u, v in tree) for tree in trees)
            assert got == pytest.approx(best, abs=1e-12)

    def test_equal_weights_tie_break_is_lexicographic(self):
        w = np.ones((4, 4)) - np.eye(4)
        assert mst(w) == [(0, 1), (0, 2), (0, 3)]

    def test_total_weight_invariant_under_relabeling(self):
        # distinct weights: the MST is unique, so any tie-break permutation
        # (here induced by relabeling the nodes) yields the same total
        rng = np.random.default_rng(22)
        w = symmetric_matrix(rng, 7)
        base = sum(w[u, v] for u, v in mst(w))
        for _ in range(5):
            perm = rng.permutation(7)
            permuted = w[np.ix_(perm, perm)]
            total = sum(permuted[u, v] for u, v in mst(permuted))
            assert total == pytest.approx(base, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 40),
        levels=st.integers(1, 4),
    )
    def test_equals_python_prim_on_integer_weights_full_of_ties(self, seed, T, levels):
        rng = np.random.default_rng(seed)
        w = np.triu(rng.integers(0, levels, (T, T)), 1).astype(float)
        w = w + w.T
        assert mst(w) == mst_python_prim(w)

    def test_equals_python_prim_on_distinct_and_signed_weights(self):
        rng = np.random.default_rng(23)
        for T in (2, 3, 10, 60):
            w = rng.standard_normal((T, T))
            w = w + w.T
            np.fill_diagonal(w, 0.0)
            assert mst(w) == mst_python_prim(w)

    def test_non_finite_weights_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = np.inf
        with pytest.raises(GraphError):
            mst(w)


class TestMedoid:
    def test_hub_wins(self):
        w = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        assert medoid(w) == 0

    def test_all_equal_ties_to_lowest_index(self):
        assert medoid(np.ones((4, 4)) - np.eye(4)) == 0

    def test_matches_row_sum_argmin(self):
        rng = np.random.default_rng(23)
        w = symmetric_matrix(rng, 50)
        sums = [sum(w[v, u] for u in range(50)) for v in range(50)]
        assert medoid(w) == sums.index(min(sums))

    @pytest.mark.parametrize("seed", range(5))
    def test_row_sums_that_overflow_give_the_medoid_of_the_true_sums(self, seed):
        # w * 2^1019 is exact and finite, but its row sums, about 2^1027,
        # overflow: every row then tied at inf, won by the lowest index, with
        # numpy's overflow warning
        w = symmetric_matrix(np.random.default_rng(seed), 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert medoid(np.ldexp(w, 1019)) == medoid(w)


class TestRootTree:
    def test_path_rooted_at_end(self):
        tree = root_tree([(0, 1), (1, 2)], 0)
        assert tree.parent == {1: 0, 2: 1}

    def test_path_rooted_at_middle(self):
        tree = root_tree([(0, 1), (1, 2)], 1)
        assert tree.parent == {0: 1, 2: 1}

    def test_reconstructs_input_edges(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            T = int(rng.integers(2, 12))
            edges = random_spanning_tree(T, rng)
            root = int(rng.integers(T))
            tree = root_tree(edges, root)
            rebuilt = sorted(
                (min(c, p), max(c, p)) for c, p in tree.parent.items()
            )
            assert rebuilt == edges

    def test_edge_lengths_from_distance_matrix(self):
        w = np.array([[0.0, 2.0, 9.0], [2.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
        tree = root_tree([(0, 1), (1, 2)], 0, w)
        assert tree.edge_length == {1: 2.0, 2: 4.0}

    def test_rooting_anywhere_preserves_edges(self):
        rng = np.random.default_rng(25)
        w = symmetric_matrix(rng, 8)
        edges = mst(w)
        trees = [root_tree(edges, r, w) for r in range(8)]
        for tree in trees:
            rebuilt = sorted((min(c, p), max(c, p)) for c, p in tree.parent.items())
            assert rebuilt == edges

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            root_tree([(0, 1), (2, 3)], 0)

    def test_cycle_rejected(self):
        with pytest.raises(GraphError):
            root_tree([(0, 1), (1, 2), (0, 2)], 0)


class TestPruefer:
    def test_two_nodes(self):
        assert random_spanning_tree(2, 0) == [(0, 1)]

    def test_sequence_three_three_decodes_to_star(self):
        assert decode_pruefer([3, 3], 4) == [(0, 3), (1, 3), (2, 3)]

    def test_encode_decode_identity_exhaustive(self):
        for T in (3, 4, 5, 6):
            for seq in itertools.product(range(T), repeat=T - 2):
                edges = decode_pruefer(list(seq), T)
                assert encode_pruefer(edges, T) == list(seq)

    def test_uniformity_at_four_nodes(self):
        counts = {}
        rng = np.random.default_rng(26)
        for _ in range(16_000):
            key = tuple(random_spanning_tree(4, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        assert all(800 <= c <= 1200 for c in counts.values())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), T=st.integers(1, 200))
    def test_heap_decoder_equals_quadratic_decoder(self, data, T):
        seq = data.draw(st.lists(st.integers(0, T - 1),
                                 min_size=max(T - 2, 0), max_size=max(T - 2, 0)))
        assert decode_pruefer(seq, T) == decode_pruefer_quadratic(seq, T)

    def test_seed_reproducibility(self):
        assert random_spanning_tree(9, 123) == random_spanning_tree(9, 123)


class TestStarAndTraversal:
    def test_star_single_node(self):
        tree = star_tree(1, 0)
        assert tree.parent == {} and tree.root == 0

    def test_star_parents(self):
        tree = star_tree(4, 2)
        assert tree.parent == {0: 2, 1: 2, 3: 2}

    def test_star_depths_all_one(self):
        tree = star_tree(7, 3)
        d = depths(tree)
        assert d[3] == 0
        assert all(d[v] == 1 for v in range(7) if v != 3)

    def test_topological_order_star(self):
        assert topological_order(star_tree(5, 2)) == [2, 0, 1, 3, 4]

    def test_topological_order_chain(self):
        tree = root_tree([(0, 1), (1, 2), (2, 3)], 0)
        assert topological_order(tree) == [0, 1, 2, 3]

    def test_topological_order_parents_first(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            T = int(rng.integers(2, 15))
            tree = root_tree(random_spanning_tree(T, rng), int(rng.integers(T)))
            order = topological_order(tree)
            assert sorted(order) == list(range(T))
            position = {v: k for k, v in enumerate(order)}
            for child, parent in tree.parent.items():
                assert position[parent] < position[child]

    def test_chain_depths(self):
        tree = root_tree([(0, 1), (1, 2), (2, 3)], 0)
        assert depths(tree) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_depth_recurrence_random_trees(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            T = int(rng.integers(2, 15))
            tree = root_tree(random_spanning_tree(T, rng), int(rng.integers(T)))
            d = depths(tree)
            assert d[tree.root] == 0
            for child, parent in tree.parent.items():
                assert d[child] == d[parent] + 1


class TestBuildTree:
    def test_kinds_match_their_constructions(self):
        rng = np.random.default_rng(29)
        dist = DistanceMatrix(symmetric_matrix(rng, 7))
        root = medoid(dist)
        expected = {
            "mst": root_tree(mst(dist), root, dist),
            "star": star_tree(7, root, dist),
            "random": root_tree(random_spanning_tree(7, substream(11, "tree")), root, dist),
        }
        for kind, want in expected.items():
            got = build_tree(dist, kind, seed=11)
            assert (got.root, got.parent, got.edge_length) == \
                (want.root, want.parent, want.edge_length), kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="random"):
            build_tree(DistanceMatrix(np.zeros((2, 2))), "chain")


@pytest.mark.parametrize("build, problem", [
    (lambda: RootedTree(0, {1: 0}, {2: 1.0}), "edge_length keys must match parent keys"),
    (lambda: root_tree([(0, 0), (1, 2)], 0), "self-loop at node 0"),
    # four edges over five nodes, but 0-1-2 is a cycle and 3-4 lies apart
    (lambda: root_tree([(0, 1), (1, 2), (0, 2), (3, 4)], 0),
     "edge set is disconnected or contains a cycle"),
    (lambda: decode_pruefer([], 0), "need at least one node"),
    (lambda: decode_pruefer([0], 4), "sequence length 1 invalid for 4 nodes"),
    (lambda: decode_pruefer([4, 0], 4), "sequence labels out of range"),
    (lambda: random_spanning_tree(0, 0), "need at least one node"),
    (lambda: star_tree(3, 3), "root 3 out of range for 3 nodes"),
], ids=["edge-length-keys", "self-loop", "cycle-and-apart", "pruefer-no-nodes",
        "pruefer-length", "pruefer-label", "random-no-nodes", "star-root"])
def test_malformed_tree_input_is_rejected(build, problem):
    with pytest.raises(GraphError, match=f"^{problem}$"):
        build()


class TestRootedTreeValidation:
    def test_root_with_parent_rejected(self):
        with pytest.raises(GraphError):
            RootedTree(0, {0: 1, 1: 0})

    def test_unreachable_node_rejected(self):
        with pytest.raises(GraphError):
            RootedTree(0, {1: 2, 2: 1})


def reaches_root(v, root, parent):
    """Reference: the parent-chain walk RootedTree used to validate each node."""
    size = len(parent) + 1
    node, hops = v, 0
    while node != root:
        if node not in parent or hops >= size:
            return False
        node = parent[node]
        hops += 1
    return True


def children_bfs_order(root, parent):
    """Reference: the children map and the queue BFS of the old topological_order."""
    children = {v: [] for v in sorted([root, *parent])}
    for child, par in parent.items():
        children[par].append(child)
    for kids in children.values():
        kids.sort()
    order = [root]
    frontier = [root]
    while frontier:
        node = frontier.pop(0)
        for child in children[node]:
            order.append(child)
            frontier.append(child)
    return order


def depths_along(order, parent):
    """Reference: the old depths, one recurrence step per node of the order."""
    out = {order[0]: 0}
    for node in order[1:]:
        out[node] = out[parent[node]] + 1
    return out


@st.composite
def shuffled_trees(draw):
    """A valid tree's (root, parent map), its entries inserted in a drawn order."""
    tree = draw(random_trees())
    return tree.root, dict(draw(st.permutations(list(tree.parent.items()))))


@st.composite
def parent_maps(draw):
    """An arbitrary (root, parent map): cycles, self-parents, parents outside it."""
    n = draw(st.integers(1, 10))
    root = draw(st.integers(0, n))
    keys = draw(st.lists(st.integers(0, n), unique=True, max_size=n + 1))
    parent = {v: draw(st.integers(0, n + 1)) for v in keys}
    if draw(st.booleans()):
        parent.pop(root, None)
    return root, parent


@settings(max_examples=400, deadline=None)
@given(case=shuffled_trees() | parent_maps())
def test_one_bfs_accepts_and_orders_as_the_parent_chain_walk_did(case):
    root, parent = case
    if root in parent:
        with pytest.raises(GraphError, match="root must not have a parent"):
            RootedTree(root, parent)
        return
    missed = [v for v in sorted(parent) if not reaches_root(v, root, parent)]
    if missed:
        with pytest.raises(GraphError, match=f"^node {missed[0]} does not reach the root$"):
            RootedTree(root, parent)
        return
    tree = RootedTree(root, parent)
    order = children_bfs_order(root, parent)
    assert tree.order == topological_order(tree) == order
    assert depths(tree) == depths_along(order, parent)


def test_tree_csv_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    w = symmetric_matrix(rng, 6)
    tree = root_tree(mst(w), medoid(w), w)
    ids = [f"task{i}" for i in range(6)]
    path = tmp_path / "tree.csv"
    save_tree(tree, path, ids)
    text = path.read_text().splitlines()
    assert text[0] == f"# root={ids[tree.root]}"
    assert text[1] == "parent,child,edge_length"
    root, rows = read_tree_csv(path)
    assert root == ids[tree.root]
    assert rows == {ids[c]: (ids[p], tree.edge_length[c]) for c, p in tree.parent.items()}
