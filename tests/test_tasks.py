import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade.distances import DistanceMatrix, load_distance_matrix, save_distance_matrix
from taskcascade.errors import (
    ConfigError,
    DataFormatError,
    NonFiniteGramError,
    ShapeMismatchError,
)
from taskcascade.graph import random_spanning_tree, root_tree, save_tree
from taskcascade.seeding import substream
from taskcascade.tasks import (
    SyntheticConfig,
    TaskCollection,
    TaskDataset,
    generate_synthetic,
    _csv_rows,
    _write_split_csv,
    load_collection,
    save_collection,
)

from conftest import make_collection, read_tree_csv


def test_noiseless_degenerate_case_fits_exactly():
    config = SyntheticConfig(
        num_tasks=1, dim=6, n_train=10, n_test=5, num_clusters=1,
        tau_between=0.0, tau_within=0.0, noise_sigma=0.0, seed=3,
    )
    collection, truth = generate_synthetic(config)
    task = collection[0]
    theta0 = truth.theta_star[task.id]
    assert np.all(task.y_train == task.X_train @ theta0)
    assert np.all(task.y_test == task.X_test @ theta0)


def test_reference_scale_split_sizes():
    config = SyntheticConfig(num_tasks=200, dim=20, n_train=64, n_test=128, seed=1)
    collection, _ = generate_synthetic(config)
    assert len(collection) == 200
    for task in collection:
        assert task.n_train == 64
        assert task.n_test == 128
        assert task.dim == 20


def test_zero_within_variance_makes_cluster_members_identical():
    config = SyntheticConfig(
        num_tasks=1000, dim=8, n_train=4, n_test=0, num_clusters=5,
        tau_between=3.0, tau_within=0.0, seed=9,
    )
    collection, truth = generate_synthetic(config)
    by_cluster = {}
    for task_id, c in truth.cluster.items():
        by_cluster.setdefault(c, []).append(truth.theta_star[task_id])
    assert sorted(by_cluster) == [0, 1, 2, 3, 4]
    for thetas in by_cluster.values():
        for theta in thetas[1:]:
            assert np.array_equal(theta, thetas[0])


def test_within_cluster_variance_matches_tau():
    # statistical oracle: with K=1 the only per-task randomness in theta_v
    # is the within-cluster term, so per-coordinate sample variance ~= tau^2
    tau = 1.7
    config = SyntheticConfig(
        num_tasks=1000, dim=6, n_train=2, n_test=0, num_clusters=1,
        tau_within=tau, seed=11,
    )
    _, truth = generate_synthetic(config)
    thetas = np.array(list(truth.theta_star.values()))
    variances = thetas.var(axis=0, ddof=1)
    assert np.all(np.abs(variances - tau**2) < 0.15 * tau**2)


@pytest.mark.parametrize("key", ["tau_between", "tau_within"])
def test_overflowing_scale_names_the_first_task(key):
    # run under the suite's error::RuntimeWarning filter: nothing is warned
    config = SyntheticConfig(num_tasks=3, dim=3, n_train=8, n_test=4, num_clusters=2,
                             **{key: 1e308})
    with pytest.raises(DataFormatError,
                       match="^task 'task0': non-finite entry in y_train"):
        generate_synthetic(config)


def test_round_robin_cluster_assignment():
    config = SyntheticConfig(num_tasks=7, dim=2, n_train=2, n_test=0, num_clusters=3, seed=0)
    _, truth = generate_synthetic(config)
    assert [truth.cluster[f"task{v}"] for v in range(7)] == [0, 1, 2, 0, 1, 2, 0]


def test_generation_is_deterministic_and_prefix_stable():
    config = SyntheticConfig(
        num_tasks=6, dim=5, n_train=8, n_test=4, num_clusters=2,
        tau_between=1.0, tau_within=0.5, noise_sigma=0.3, seed=77,
    )
    a, _ = generate_synthetic(config)
    b, _ = generate_synthetic(config)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.X_train, tb.X_train)
        assert np.array_equal(ta.y_train, tb.y_train)
        assert np.array_equal(ta.X_test, tb.X_test)
        assert np.array_equal(ta.y_test, tb.y_test)
    # growing the collection must not perturb earlier tasks
    import dataclasses

    bigger, _ = generate_synthetic(dataclasses.replace(config, num_tasks=9))
    for small, big in zip(a, bigger):
        assert np.array_equal(small.X_train, big.X_train)
        assert np.array_equal(small.y_train, big.y_train)


@pytest.mark.parametrize("bad", [
    dict(num_tasks=0),
    dict(dim=0),
    dict(n_train=0),
    dict(num_clusters=5, num_tasks=3),
    dict(tau_between=-1.0),
    dict(noise_sigma=-0.1),
])
def test_invalid_config_rejected(bad):
    kwargs = dict(num_tasks=3, dim=2, n_train=4, n_test=2)
    kwargs.update(bad)
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticConfig(**kwargs))


def test_save_load_round_trip_bit_for_bit(rng, tmp_path):
    collection = make_collection(rng, T=3, n=10, d=4)
    save_collection(collection, tmp_path / "col")
    loaded = load_collection(tmp_path / "col")
    assert loaded.dim == collection.dim
    assert loaded.ids == collection.ids
    for a, b in zip(collection, loaded):
        assert np.array_equal(a.X_train, b.X_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.X_test, b.X_test)
        assert np.array_equal(a.y_test, b.y_test)


def test_round_trip_property_random_collections(tmp_path):
    # load(save(c)) == c over several random shapes, including extreme values
    for k in range(10):
        rng = np.random.default_rng(100 + k)
        d = int(rng.integers(1, 6))
        T = int(rng.integers(1, 5))
        tasks = []
        for i in range(T):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, 5))
            X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9)
            y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9)
            tasks.append(TaskDataset(f"task{i}", X, y, rng.standard_normal((m, d)),
                                     rng.standard_normal(m)))
        collection = TaskCollection(tasks, d)
        out = tmp_path / f"roundtrip{k}"
        save_collection(collection, out)
        loaded = load_collection(out)
        for a, b in zip(collection, loaded):
            assert np.array_equal(a.X_train, b.X_train)
            assert np.array_equal(a.y_train, b.y_train)
            assert np.array_equal(a.X_test, b.X_test)
            assert np.array_equal(a.y_test, b.y_test)


def test_load_two_well_formed_tasks(rng, tmp_path):
    save_collection(make_collection(rng, T=2), tmp_path / "two")
    assert len(load_collection(tmp_path / "two")) == 2


def test_empty_collection_saves_but_does_not_load(tmp_path):
    # a collection of no tasks has nothing to compare or refine
    save_collection(TaskCollection([], 4), tmp_path / "empty")
    manifest = json.loads((tmp_path / "empty" / "manifest.json").read_text())
    assert manifest["tasks"] == []
    with pytest.raises(DataFormatError, match="'tasks' must be a non-empty list, got"):
        load_collection(tmp_path / "empty")


@pytest.mark.parametrize("empty_shape", [(0, 0), (0, 1), (0, 3), (0, 7)])
def test_empty_test_split_round_trip(rng, tmp_path, empty_shape):
    X, y = rng.standard_normal((5, 3)), rng.standard_normal(5)
    task = TaskDataset("t", X, y, np.empty(empty_shape), np.empty(0))
    assert task.X_test.shape == (0, 3)
    save_collection(TaskCollection([task], 3), tmp_path / "col")
    assert (tmp_path / "col" / "t_test.csv").read_text() == "x1,x2,x3,y\n"
    loaded = load_collection(tmp_path / "col")[0]
    assert loaded.X_test.shape == (0, 3) and loaded.y_test.shape == (0,)
    assert np.array_equal(loaded.X_train, X) and np.array_equal(loaded.y_train, y)


def test_single_task_layout(rng, tmp_path):
    save_collection(make_collection(rng, T=1), tmp_path / "one")
    names = {p.name for p in (tmp_path / "one").iterdir()}
    assert names == {"manifest.json", "task0_train.csv", "task0_test.csv"}


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(DataFormatError, match="manifest"):
        load_collection(tmp_path)


def test_dimension_mismatch_names_offending_task(rng, tmp_path):
    collection = make_collection(rng, T=3, d=4)
    save_collection(collection, tmp_path / "col")
    # rewrite task1's train file with 3 feature columns
    bad = tmp_path / "col" / "task1_train.csv"
    bad.write_text("x1,x2,x3,y\n1.0,2.0,3.0,4.0\n")
    with pytest.raises(DataFormatError, match="task1"):
        load_collection(tmp_path / "col")


def test_non_numeric_cell_reports_task_and_row(rng, tmp_path):
    collection = make_collection(rng, T=2, d=2)
    save_collection(collection, tmp_path / "col")
    bad = tmp_path / "col" / "task0_train.csv"
    bad.write_text("x1,x2,y\n1.0,2.0,3.0\n1.0,oops,3.0\n")
    with pytest.raises(DataFormatError, match=r"task0.*row 3"):
        load_collection(tmp_path / "col")


@pytest.mark.parametrize("text, problem", [
    ("x1,x2,z\n1.0,2.0,3.0\n", "bad header in .*task0_train.csv, expected x1,...,xd,y"),
    ("x1,x2,y\n1.0,2.0,3.0\n1.0,2.0\n", "row 3 of task0_train.csv has 2 cells, expected 3"),
])
def test_malformed_split_csv_names_the_task(rng, tmp_path, text, problem):
    save_collection(make_collection(rng, T=2, d=2), tmp_path / "col")
    (tmp_path / "col" / "task0_train.csv").write_text(text)
    with pytest.raises(DataFormatError, match=f"^task 'task0': {problem}"):
        load_collection(tmp_path / "col")


def _splits(n=3, d=2, n_test=2, d_test=None):
    return dict(X_train=np.ones((n, d)), y_train=np.ones(n),
                X_test=np.ones((n_test, d if d_test is None else d_test)),
                y_test=np.ones(n_test))


@pytest.mark.parametrize("splits, problem", [
    ({**_splits(), "X_train": np.ones(3)}, "X_train must be a 2-d matrix, got ndim=1"),
    ({**_splits(), "y_test": np.ones((2, 1))}, "y_test must be a 1-d vector, got ndim=2"),
    ({**_splits(), "y_train": np.ones(2)},
     "task 't': X_train has 3 rows but y_train has 2"),
    ({**_splits(), "y_test": np.ones(3)}, "task 't': X_test has 2 rows but y_test has 3"),
    (_splits(d_test=3), "task 't': train dim 2 != test dim 3"),
], ids=["X-ndim", "y-ndim", "train-rows", "test-rows", "test-width"])
def test_task_splits_of_the_wrong_shape_are_rejected(splits, problem):
    with pytest.raises(ShapeMismatchError, match=f"^{problem}$"):
        TaskDataset("t", **splits)


@pytest.mark.parametrize("tasks, dim, problem", [
    ([TaskDataset("t", **_splits()), TaskDataset("t", **_splits())], 2,
     "duplicate task id 't'"),
    ([TaskDataset("t", **_splits())], 3, "task 't' has dimension 2, expected 3"),
], ids=["duplicate-id", "dimension"])
def test_collection_of_clashing_tasks_is_rejected(tasks, dim, problem):
    with pytest.raises(DataFormatError, match=f"^{problem}$"):
        TaskCollection(tasks, dim)


def test_loader_tolerates_missing_test_files_when_not_required(rng, tmp_path):
    collection = make_collection(rng, T=2)
    save_collection(collection, tmp_path / "col")
    for p in (tmp_path / "col").glob("*_test.csv"):
        p.unlink()
    with pytest.raises(DataFormatError):
        load_collection(tmp_path / "col")
    loaded = load_collection(tmp_path / "col", read_test=False)
    assert all(t.n_test == 0 for t in loaded)
    assert np.array_equal(loaded[0].X_train, collection[0].X_train)


@pytest.mark.parametrize("bad_id", ["", "../escape", "a/b", "a\\b", "..", "a,b",
                                    "a\nb", "a\rb", "a\0b", 7])
def test_unsafe_task_ids_rejected(bad_id):
    X, y = np.ones((2, 1)), np.ones(2)
    with pytest.raises(DataFormatError, match="invalid task id"):
        TaskDataset(bad_id, X, y, X, y)


@pytest.mark.parametrize("key", ["train_csv", "test_csv"])
@pytest.mark.parametrize("name", ["../outside.csv", "sub/task0_train.csv",
                                  "sub\\task0_train.csv", "/tmp/task0_train.csv",
                                  "..", "", 3])
def test_manifest_data_files_stay_in_the_collection(rng, tmp_path, key, name):
    save_collection(make_collection(rng, T=2), tmp_path / "col")
    manifest_path = tmp_path / "col" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["tasks"][1][key] = name
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=r"task 'task1': data file"):
        load_collection(tmp_path / "col")


@pytest.mark.parametrize("key, value, problem", [
    ("dim", "abc", "'dim' must be an integer of at least 1, got \"abc\""),
    ("dim", "2", "'dim' must be an integer of at least 1, got \"2\""),
    ("dim", 2.7, "'dim' must be an integer of at least 1, got 2.7"),
    ("dim", 2.0, "'dim' must be an integer of at least 1, got 2.0"),
    ("dim", True, "'dim' must be an integer of at least 1, got true"),
    ("dim", 0, "'dim' must be an integer of at least 1, got 0"),
    ("dim", None, "'dim' must be an integer of at least 1, got null"),
    ("tasks", [], "'tasks' must be a non-empty list, got []"),
    ("tasks", {}, "'tasks' must be a non-empty list, got {}"),
    ("tasks", "task0", "'tasks' must be a non-empty list, got \"task0\""),
], ids=["dim-text", "dim-digits", "dim-fraction", "dim-float", "dim-bool", "dim-zero",
        "dim-null", "tasks-empty", "tasks-object", "tasks-text"])
def test_manifest_dim_and_tasks_are_checked(rng, tmp_path, key, value, problem):
    save_collection(make_collection(rng, T=2, d=2), tmp_path / "col")
    manifest_path = tmp_path / "col" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError) as info:
        load_collection(tmp_path / "col")
    assert str(info.value) == f"{manifest_path}: {problem}"


def test_read_test_false_never_opens_the_test_files(rng, tmp_path):
    collection = make_collection(rng, T=2, d=3)
    save_collection(collection, tmp_path / "col")
    for p in (tmp_path / "col").glob("*_test.csv"):
        p.write_text("not,a\nsplit\n")
    with pytest.raises(DataFormatError, match="task0"):
        load_collection(tmp_path / "col")
    loaded = load_collection(tmp_path / "col", read_test=False)
    for a, b in zip(collection, loaded):
        assert np.array_equal(a.X_train, b.X_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert b.X_test.shape == (0, 3) and b.y_test.shape == (0,)


def _csv_writer_split(path, X, y):
    """The csv.writer loop that _write_split_csv replaced: its byte reference."""
    d = X.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(d)] + ["y"])
        for i in range(X.shape[0]):
            writer.writerow([repr(float(v)) for v in X[i]] + [repr(float(y[i]))])


# -0.0, subnormals, the largest magnitudes, integral values, and both sides of
# the two points where repr switches to exponent form (1e16 and 1e-4).
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -3.0, 2.0 ** 53, 123456789.0, 0.1, -2.5,
    1e16, float(np.nextafter(1e16, 0.0)), -1e16, float(np.nextafter(-1e16, 0.0)),
    1e-4, float(np.nextafter(1e-4, 0.0)), -1e-4, float(np.nextafter(-1e-4, 0.0)),
]
_cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), d=st.integers(1, 4))
def test_split_writer_bytes_equal_the_csv_writer_loop(data, n, d):
    X = np.array(data.draw(st.lists(_cells, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(data.draw(st.lists(_cells, min_size=n, max_size=n)), dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        _write_split_csv(new, X, y)
        _csv_writer_split(old, X, y)
        assert new.read_bytes() == old.read_bytes()
        if n:
            task = TaskDataset("t", X, y, X[:0], y[:0])
        else:
            task = TaskDataset("t", np.zeros((1, d)), np.zeros(1), X, y)
        save_collection(TaskCollection([task], d), Path(tmp) / "col")
        loaded = load_collection(Path(tmp) / "col")[0]
    # bit-exact: -0.0 keeps its sign and every subnormal survives
    for a, b in ((task.X_train, loaded.X_train), (task.y_train, loaded.y_train),
                 (task.X_test, loaded.X_test), (task.y_test, loaded.y_test)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()



# Line breaks of every kind, separators, blanks, characters str.splitlines
# would break at but csv does not (\x0b, \x1c, \x85, \u2028), and, in the
# second alphabet, the quote and NUL characters that route text to csv.reader.
_CSV_TEXT = "01.-e ,\r\n\t\x0b\x1c\x85\u2028"


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(st.text(alphabet=_CSV_TEXT, max_size=60),
                      st.text(alphabet=_CSV_TEXT + '"\0', max_size=60)))
def test_row_splitter_equals_csv_reader(text):
    try:
        want = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error:
        with pytest.raises(csv.Error):
            _csv_rows(text)
        return
    assert _csv_rows(text) == want


def test_quoted_csv_still_loads(rng, tmp_path):
    collection = make_collection(rng, T=1, d=2)
    save_collection(collection, tmp_path)
    path = tmp_path / "task0_train.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    with path.open("w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    assert path.read_text().startswith('"x1","x2","y"')
    loaded = load_collection(tmp_path)[0]
    assert np.array_equal(loaded.X_train, collection[0].X_train)
    assert np.array_equal(loaded.y_train, collection[0].y_train)


# Valid ids: unicode, spaces and other whitespace at either end, single dots,
# both quote characters, and characters str.splitlines would break at.
_ID_TEXT = "aZ9 .'\"_-\té字😀\xa0\x85\x0b\u2028"


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(st.text(alphabet=_ID_TEXT, min_size=1, max_size=12)
                 .filter(lambda s: ".." not in s), min_size=1, max_size=5, unique=True),
    seed=st.integers(0, 2**32 - 1),
    quoted=st.booleans(),
)
def test_adversarial_ids_round_trip(ids, seed, quoted):
    rng = np.random.default_rng(seed)
    T, d = len(ids), 2

    def draw(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)

    collection = TaskCollection(
        [TaskDataset(i, draw(3, d), draw(3), draw(2, d), draw(2)) for i in ids], d
    )
    values = np.abs(draw(T, T))
    matrix = DistanceMatrix(np.triu(values, 1) + np.triu(values, 1).T, list(ids))
    tree = root_tree(random_spanning_tree(T, seed), 0, matrix)
    with tempfile.TemporaryDirectory() as tmp:
        col = Path(tmp) / "col"
        save_collection(collection, col)
        if quoted:  # every cell quoted: the split files take the csv.reader path
            for path in col.glob("*.csv"):
                rows = list(csv.reader(path.read_text().splitlines()))
                with path.open("w", newline="") as fh:
                    csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
        loaded = load_collection(col)
        save_distance_matrix(matrix, Path(tmp) / "dist.csv")
        loaded_matrix = load_distance_matrix(Path(tmp) / "dist.csv")
        save_tree(tree, Path(tmp) / "tree.csv", ids=list(ids))
        tree_root, tree_rows = read_tree_csv(Path(tmp) / "tree.csv")
    assert loaded.ids == ids
    for a, b in zip(collection, loaded):
        for x, y in ((a.X_train, b.X_train), (a.y_train, b.y_train),
                     (a.X_test, b.X_test), (a.y_test, b.y_test)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert loaded_matrix.task_ids == ids
    assert loaded_matrix.values.tobytes() == matrix.values.tobytes()
    assert tree_root == ids[tree.root]
    assert tree_rows == {ids[c]: (ids[p], tree.edge_length[c])
                         for c, p in tree.parent.items()}


# --- split stacks ---------------------------------------------------------


def per_task_generator(config):
    """Reference: the generator as one TaskDataset per task, each drawn,
    formed and checked on its own (TaskDataset's checks, in its order)."""
    d = config.dim
    tasks, theta_star = [], {}
    with np.errstate(over="ignore", invalid="ignore"):
        centers_rng = substream(config.seed, "centers")
        theta0 = centers_rng.standard_normal(d)
        shifts = config.tau_between * centers_rng.standard_normal((config.num_clusters, d))
        for v in range(config.num_tasks):
            rng = substream(config.seed, "task", v)
            zeta = config.tau_within * rng.standard_normal(d)
            theta_v = theta0 + shifts[v % config.num_clusters] + zeta
            X_train = rng.standard_normal((config.n_train, d))
            y_train = X_train @ theta_v + config.noise_sigma * rng.standard_normal(config.n_train)
            X_test = rng.standard_normal((config.n_test, d))
            y_test = X_test @ theta_v + config.noise_sigma * rng.standard_normal(config.n_test)
            tasks.append(TaskDataset(f"task{v}", X_train, y_train, X_test, y_test))
            theta_star[f"task{v}"] = theta_v
    return tasks, theta_star


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SPLITS = ("X_train", "y_train", "X_test", "y_test")


@settings(max_examples=150, deadline=None)
@given(
    T=st.integers(1, 12),
    d=st.integers(1, 6),
    n_train=st.integers(1, 9),
    n_test=st.integers(0, 9),
    clusters=st.integers(1, 12),
    tau_between=st.sampled_from([0.0, 0.3, 2.0, 1e154, 1e308]),
    tau_within=st.sampled_from([0.0, 0.5, 3.0, 1e154, 1e308]),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_generator_equals_the_per_task_generator(T, d, n_train, n_test, clusters,
                                                         tau_between, tau_within, noise,
                                                         seed):
    config = SyntheticConfig(num_tasks=T, dim=d, n_train=n_train, n_test=n_test,
                             num_clusters=min(clusters, T), tau_between=tau_between,
                             tau_within=tau_within, noise_sigma=noise, seed=seed)
    try:
        want, theta_star = per_task_generator(config)
    except DataFormatError as exc:
        # the same first task and, within it, the same first split
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(exc))}$"):
            generate_synthetic(config)
        return
    collection, truth = generate_synthetic(config)
    assert collection.ids == [task.id for task in want]
    for got, task in zip(collection, want):
        for name in SPLITS:
            assert same_bits(getattr(got, name), getattr(task, name)), name
    for task_id, theta in theta_star.items():
        assert same_bits(truth.theta_star[task_id], theta)


def test_a_stack_whose_sum_overflows_is_finite():
    # every target is finite, about 4e307 at most, but their sum overflows,
    # so the check per task must clear it
    config = SyntheticConfig(num_tasks=50, dim=1, n_train=64, n_test=0,
                             tau_between=1e307, seed=0)
    collection, _ = generate_synthetic(config)
    with np.errstate(over="ignore"):
        assert not np.isfinite(collection.stacks[0].y_train.sum())
    want, _ = per_task_generator(config)
    for got, task in zip(collection, want):
        assert same_bits(got.y_train, task.y_train)


def test_generated_tasks_are_views_of_one_stack():
    config = SyntheticConfig(num_tasks=5, dim=3, n_train=4, n_test=2, seed=1)
    collection, _ = generate_synthetic(config)
    [stack] = collection.stacks
    assert stack.index.tolist() == list(range(5))
    assert stack.X_train.shape == (5, 4, 3) and stack.y_test.shape == (5, 2)
    for j, task in enumerate(collection):
        for name in SPLITS:
            rows = getattr(stack, name)
            assert np.shares_memory(getattr(task, name), rows[j])
            assert same_bits(getattr(task, name), rows[j])
        assert not np.shares_memory(task.X_train, stack.X_train[(j + 1) % 5])


def test_a_built_collection_stacks_its_tasks_and_views_them(rng):
    collection = make_collection(rng, T=4, n=6, d=3)
    copies = [{name: getattr(task, name).copy() for name in SPLITS} for task in collection]
    [stack] = collection.stacks  # built on first use
    for j, (task, copy) in enumerate(zip(collection, copies)):
        for name in SPLITS:
            assert np.shares_memory(getattr(task, name), getattr(stack, name))
            assert same_bits(getattr(task, name), copy[name])
            assert same_bits(getattr(stack, name)[j], copy[name])


def ragged_tasks(rng, shapes, d=3):
    return [TaskDataset(f"r{i}", rng.standard_normal((n, d)), rng.standard_normal(n),
                        rng.standard_normal((m, d)), rng.standard_normal(m))
            for i, (n, m) in enumerate(shapes)]


def test_a_ragged_loaded_collection_forms_one_stack_per_shape(rng, tmp_path):
    shapes = [(5, 2), (7, 2), (5, 2), (5, 0), (7, 2), (4, 3)]
    save_collection(TaskCollection(ragged_tasks(rng, shapes), 3), tmp_path / "col")
    loaded = load_collection(tmp_path / "col")
    groups = [(stack.index.tolist(), stack.X_train.shape, stack.X_test.shape)
              for stack in loaded.stacks]
    assert groups == [([0, 2], (2, 5, 3), (2, 2, 3)), ([1, 4], (2, 7, 3), (2, 2, 3)),
                      ([3], (1, 5, 3), (1, 0, 3)), ([5], (1, 4, 3), (1, 3, 3))]
    for stack in loaded.stacks:
        for j, i in enumerate(stack.index):
            for name in SPLITS:
                rows = getattr(stack, name)
                assert rows[j].size == 0 or np.shares_memory(getattr(loaded[i], name), rows[j])
    for task, design in zip(loaded, loaded.designs):
        lam, V = np.linalg.eigh(task.X_train.T @ task.X_train)
        assert same_bits(design.lam, lam) and same_bits(design.V, V)
        assert np.shares_memory(design.X, task.X_train)


def test_an_overflowing_gram_matrix_is_named_first_in_task_order(rng):
    # t2 fails in the first stack built, t1 in the second; t1 comes first
    tasks = ragged_tasks(rng, [(4, 1), (5, 1), (4, 1)])
    for i in (1, 2):
        tasks[i] = TaskDataset(f"r{i}", np.full_like(tasks[i].X_train, 1e200),
                               tasks[i].y_train, tasks[i].X_test, tasks[i].y_test)
    collection = TaskCollection(tasks, 3)
    with pytest.raises(NonFiniteGramError, match="^task 'r1': X\\^T X is not finite") as info:
        collection.designs
    assert info.value.index == 1
