import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from taskcascade import cascade
from taskcascade.graph import decode_pruefer, root_tree
from taskcascade.tasks import TaskCollection, TaskDataset


def make_task(rng, n=24, d=4, task_id="t", n_test=8, sigma=0.1):
    theta = rng.standard_normal(d)
    X_train = rng.standard_normal((n, d))
    y_train = X_train @ theta + sigma * rng.standard_normal(n)
    X_test = rng.standard_normal((n_test, d))
    y_test = X_test @ theta + sigma * rng.standard_normal(n_test)
    return TaskDataset(task_id, X_train, y_train, X_test, y_test)


def make_collection(rng, T=6, n=24, d=4, sigma=0.1):
    tasks = [make_task(rng, n=n, d=d, task_id=f"task{i}", sigma=sigma) for i in range(T)]
    return TaskCollection(tasks, d)


def log_calls(monkeypatch, module, name, log, describe):
    """Log the process id and ``describe(first argument)`` of every call of
    ``module.name`` to the file ``log``, and return a reader of the log lines.

    A file, so that the calls of forked pool workers show up too.
    """
    original = getattr(module, name)

    def counted(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {describe(args[0])}\n")
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return lambda: log.read_text().splitlines() if log.exists() else []


def read_tree_csv(path):
    """The root id and {child id: (parent id, edge length)} of a tree CSV.

    Splits at the "\n" that ``save_tree`` writes; ``splitlines`` would also
    split ids at characters such as U+2028.
    """
    lines = Path(path).read_text().split("\n")
    assert lines[0].startswith("# root=") and lines[1] == "parent,child,edge_length"
    rows = [line.split(",") for line in lines[2:] if line]
    assert all(len(row) == 3 for row in rows)
    return lines[0][len("# root="):], {c: (p, float(w)) for p, c, w in rows}


@st.composite
def random_trees(draw):
    """A uniform labeled tree from a Pruefer sequence, with random edge lengths."""
    T = draw(st.integers(1, 30))
    sequence = draw(st.lists(st.integers(0, T - 1), min_size=max(T - 2, 0),
                             max_size=max(T - 2, 0)))
    W = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 10.0, (T, T))
    W[W < 2.0] = 0.0  # some edges of length zero
    root = draw(st.integers(0, T - 1))
    return root_tree(decode_pruefer(sequence, T), root, W + W.T)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def no_kept_replicates():
    """Start every test with no synthetic replicates kept by an earlier one."""
    cascade._kept.clear()
