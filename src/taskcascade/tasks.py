"""Task data model, clustered synthetic generation, and on-disk collections.

A task is a linear-regression dataset with train and test splits sharing a
feature dimension. Collections of tasks are generated synthetically from a
clustered parameter model, or loaded from a directory of CSV files described
by a ``manifest.json``.

A collection is built with its splits checked and read-only, each one array
of every task's rows (:class:`Splits`), and with frozen tasks that view their
rows; readers of the whole collection batch over :meth:`Splits.runs`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError, NonFiniteGramError, ShapeMismatchError
from .seeding import substream

if TYPE_CHECKING:
    from .linmodel import Design

MANIFEST_NAME = "manifest.json"
# What lets a file name leave the collection directory.
_FORBIDDEN_IN_FILE_NAME = ("/", "\\", "..")
# Task ids name the collection's CSV files and the header of a distance
# matrix CSV, so they may not leave the directory, split a CSV cell or line,
# or hold the NUL that no file name can.
_FORBIDDEN_IN_ID = _FORBIDDEN_IN_FILE_NAME + (",", "\n", "\r", "\0")
_SPLITS = ("X_train", "y_train", "X_test", "y_test")


@dataclass(frozen=True)
class TaskDataset:
    """One task: train/test design matrices and targets.

    Train and test splits share the feature dimension; the test split may be
    empty (0 rows), the training split not. Finiteness is checked where tasks
    are concatenated, and the tasks of a collection view its read-only splits.
    """

    id: str
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id or any(
            s in self.id for s in _FORBIDDEN_IN_ID
        ):
            raise DataFormatError(
                f"invalid task id {self.id!r}: ids must be non-empty strings "
                "without '/', '\\', '..', ',', NUL or line breaks"
            )
        for name, ndim in zip(_SPLITS, (2, 1, 2, 1)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != ndim:
                kind = "2-d matrix" if ndim == 2 else "1-d vector"
                raise ShapeMismatchError(f"{name} must be a {kind}, got ndim={arr.ndim}")
            object.__setattr__(self, name, arr)
        if self.X_test.shape[0] == 0:
            # an empty test split of any width has the training dimension,
            # so it saves as a header of x1..xd,y that loads back
            object.__setattr__(self, "X_test", np.empty((0, self.X_train.shape[1])))
        if self.X_train.shape[0] != self.y_train.shape[0]:
            raise ShapeMismatchError(
                f"task {self.id!r}: X_train has {self.X_train.shape[0]} rows "
                f"but y_train has {self.y_train.shape[0]}"
            )
        if self.X_test.shape[0] != self.y_test.shape[0]:
            raise ShapeMismatchError(
                f"task {self.id!r}: X_test has {self.X_test.shape[0]} rows "
                f"but y_test has {self.y_test.shape[0]}"
            )
        if self.X_train.shape[0] == 0:
            raise DataFormatError(f"task {self.id!r}: the training split has no rows")
        if self.X_test.shape[1] != self.X_train.shape[1]:
            raise ShapeMismatchError(
                f"task {self.id!r}: train dim {self.X_train.shape[1]} "
                f"!= test dim {self.X_test.shape[1]}"
            )

    @property
    def dim(self) -> int:
        return self.X_train.shape[1]

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def n_test(self) -> int:
        return self.X_test.shape[0]


class Splits(NamedTuple):
    """Each split of tasks as one array of their rows in task order: task i's
    training rows are ``train[i]:train[i + 1]`` of X_train and y_train, and
    its test rows ``test[i]:test[i + 1]`` of X_test and y_test."""

    train: np.ndarray
    test: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray

    def task(self, i: int) -> tuple[np.ndarray, ...]:
        """Views of task i's X_train, y_train, X_test and y_test."""
        a, b, c, e = self.train[i], self.train[i + 1], self.test[i], self.test[i + 1]
        return self.X_train[a:b], self.y_train[a:b], self.X_test[c:e], self.y_test[c:e]

    def runs(self):
        """(X, y) views of (k, n, d) and (k, n) for each run in task order: a
        maximal stretch of tasks with n training rows each; no tasks make one empty run."""
        n, train, d = np.diff(self.train), self.train.tolist(), self.X_train.shape[1]
        cut = [0, *(np.flatnonzero(np.diff(n)) + 1).tolist(), len(n)]
        for a, b in zip(cut, cut[1:]):
            lo, hi = train[a], train[b]
            shape = (b - a, (hi - lo) // max(b - a, 1))
            yield self.X_train[lo:hi].reshape(*shape, d), self.y_train[lo:hi].reshape(shape)


def concat_splits(tasks, dim: int) -> Splits:
    """Read-only copies of the tasks' splits, concatenated in task order and
    checked by :func:`_check_finite`; no tasks give empty splits of width ``dim``."""
    offsets = [np.cumsum([0, *(getattr(t, n) for t in tasks)]) for n in ("n_train", "n_test")]
    splits = _read_only(Splits(*offsets, *(
        np.concatenate([np.empty((0, dim)[:ndim]), *(getattr(t, name) for t in tasks)])
        for name, ndim in zip(_SPLITS, (2, 1, 2, 1)))))
    _check_finite(tasks, splits)
    return splits


def _read_only(splits: Splits) -> Splits:
    """``splits`` made read-only; call it before taking views, which keep the flag."""
    for a in splits:
        a.flags.writeable = False
    return splits


def _check_finite(tasks, splits: Splits) -> None:
    """Name the first task, in task order, with a non-finite entry, then its first split."""
    # the task of each split's first bad row, found in the train or test offsets
    first = [(int(splits[s // 2].searchsorted(np.argwhere(~ok)[0, 0], "right")) - 1, s)
             for s, ok in enumerate(np.isfinite(a) for a in splits[2:]) if not ok.all()]
    if first:
        i, s = min(first)
        raise DataFormatError(f"task {tasks[i].id!r}: non-finite entry in {_SPLITS[s]}")


@dataclass(frozen=True)
class TaskCollection:
    """Ordered tasks sharing a feature dimension; a built collection cannot change.

    ``tasks`` is a tuple of its own tasks, views of their rows of the
    read-only :attr:`splits` (:func:`concat_splits`), not the tasks it was
    given. ``trees`` holds the trees and matrices ``cascade._tree`` builds."""

    tasks: tuple[TaskDataset, ...]
    dim: int
    splits: Splits = field(default=None, repr=False)
    trees: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        seen: set[str] = set()
        for task in self.tasks:
            if task.id in seen:
                raise DataFormatError(f"duplicate task id {task.id!r}")
            seen.add(task.id)
            if task.dim != self.dim:
                raise DataFormatError(
                    f"task {task.id!r} has dimension {task.dim}, expected {self.dim}"
                )
        if self.splits is None:  # copies, which the collection's own tasks view
            object.__setattr__(self, "splits", concat_splits(self.tasks, self.dim))
            object.__setattr__(self, "tasks", tuple(TaskDataset(task.id, *self.splits.task(i))
                                                    for i, task in enumerate(self.tasks)))
        else:
            _check_finite(self.tasks, self.splits)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def __getitem__(self, i: int) -> TaskDataset:
        return self.tasks[i]

    @property
    def ids(self) -> list[str]:
        return [t.id for t in self.tasks]

    @cached_property
    def designs(self) -> list[Design]:
        """Every task's training design, from one stacked eigendecomposition
        of the Gram matrices of every run (:meth:`Splits.runs`).

        Built on first use and kept, so every run that refines the collection
        reads the same designs; the collection cannot change. A Gram matrix
        that overflows names its task, the first in task order.
        """
        from .linmodel import build_designs  # so that gen never loads linmodel

        try:
            return build_designs(*(X for X, _ in self.splits.runs()))
        except NonFiniteGramError as exc:
            raise NonFiniteGramError(f"task {self[exc.index].id!r}: {exc}", exc.index) from None


@dataclass
class SyntheticConfig:
    """Knobs of the clustered synthetic task generator."""

    num_tasks: int
    dim: int = 20
    n_train: int = 64
    n_test: int = 128
    num_clusters: int = 1
    tau_between: float = 0.0
    tau_within: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ConfigError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.n_train < 1:
            raise ConfigError(f"n_train must be >= 1, got {self.n_train}")
        if self.n_test < 0:
            raise ConfigError(f"n_test must be >= 0, got {self.n_test}")
        if not 1 <= self.num_clusters <= self.num_tasks:
            raise ConfigError(
                f"num_clusters must be in [1, num_tasks], got {self.num_clusters}"
            )
        for name in ("tau_between", "tau_within", "noise_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")


@dataclass
class GroundTruth:
    """True parameters and cluster assignment of each generated task."""

    theta_star: dict[str, np.ndarray]
    cluster: dict[str, int] = field(default_factory=dict)


# Values that overflow (a tau near 1e308) fail the finite check, which names
# the task; numpy's warnings about them would only precede that error.
@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(config: SyntheticConfig) -> tuple[TaskCollection, GroundTruth]:
    """Generate a clustered collection of linear-regression tasks.

    A global center and per-cluster shifts are drawn first; every task is
    assigned a cluster round-robin (task v goes to cluster v mod K) and gets
    its own within-cluster perturbation. Features are i.i.d. standard
    Gaussian, targets are linear plus optional Gaussian noise. Deterministic
    given ``config.seed``; each task consumes its own substream so changing
    ``num_tasks`` never perturbs earlier tasks.
    Each substream draws into the task's rows of (T, n, d) stacks, and one
    stacked matmul forms the targets, with the bits of per-task arrays; the
    stacks, reshaped without a copy, are the splits the tasks view read-only.
    """
    d, T = config.dim, config.num_tasks
    centers_rng = substream(config.seed, "centers")
    theta0 = centers_rng.standard_normal(d)
    shifts = config.tau_between * centers_rng.standard_normal((config.num_clusters, d))

    zeta = np.empty((T, d))
    X_train = np.empty((T, config.n_train, d))
    eps_train = np.empty((T, config.n_train))
    X_test = np.empty((T, config.n_test, d))
    eps_test = np.empty((T, config.n_test))
    for v in range(T):
        rng = substream(config.seed, "task", v)
        for out in (zeta[v], X_train[v], eps_train[v], X_test[v], eps_test[v]):
            rng.standard_normal(out=out)
    cluster_of = np.arange(T) % config.num_clusters
    theta = theta0 + shifts[cluster_of]
    theta += config.tau_within * zeta
    y_train = np.matmul(X_train, theta[:, :, None])[..., 0]
    y_train += config.noise_sigma * eps_train
    y_test = np.matmul(X_test, theta[:, :, None])[..., 0]
    y_test += config.noise_sigma * eps_test

    ids = [f"task{v}" for v in range(T)]
    rows = np.arange(T + 1)
    splits = _read_only(Splits(rows * config.n_train, rows * config.n_test, *(
        a.reshape(-1, *a.shape[2:]) for a in (X_train, y_train, X_test, y_test))))
    tasks = [TaskDataset(task_id, *splits.task(v)) for v, task_id in enumerate(ids)]
    collection = TaskCollection(tasks, d, splits)
    return collection, GroundTruth(dict(zip(ids, theta)), dict(zip(ids, cluster_of.tolist())))


def _write_split_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    # The bytes csv.writer would write: no cell needs quoting, and lines end
    # in \r\n. repr of a float is the shortest decimal that parses back
    # bit-for-bit; tolist() turns the whole split into Python floats at once.
    lines = [",".join([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])]
    lines += [",".join(map(repr, row)) for row in np.column_stack([X, y]).tolist()]
    with path.open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _csv_rows(text: str) -> list[list[str]]:
    r"""The rows ``csv.reader`` yields for ``text`` read with ``newline=""``.

    Without a quote or NUL character the excel dialect splits lines at
    ``\r\n``, ``\r`` or ``\n`` and cells at commas, and an empty line is an
    empty row; str methods do that about twice as fast as the csv module.
    Text with quotes or NULs goes through ``csv.reader`` itself.
    """
    if '"' in text or "\0" in text:
        return list(csv.reader(io.StringIO(text, newline="")))
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.split(",") if line else [] for line in lines]


def _read_split_csv(path: Path, task_id: str) -> tuple[np.ndarray, np.ndarray]:
    if not path.is_file():
        raise DataFormatError(f"task {task_id!r}: missing data file {path}")
    try:
        with path.open(newline="") as fh:
            rows = _csv_rows(fh.read())
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"task {task_id!r}: {path} is not text: {exc}") from None
    if not rows:
        raise DataFormatError(f"task {task_id!r}: empty file {path}")
    header = rows[0]
    d = len(header) - 1
    if d < 1 or header[-1] != "y":
        raise DataFormatError(
            f"task {task_id!r}: bad header in {path}, expected x1,...,xd,y"
        )
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != d + 1:
            raise DataFormatError(
                f"task {task_id!r}: row {line_no} of {path.name} has "
                f"{len(row)} cells, expected {d + 1}"
            )
        try:
            values.append(list(map(float, row)))
        except ValueError as exc:
            raise DataFormatError(
                f"task {task_id!r}: non-numeric cell in row {line_no} "
                f"of {path.name}: {exc}"
            ) from None
    data = np.array(values, dtype=np.float64).reshape(len(values), d + 1)
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise DataFormatError(f"task {task_id!r}: non-finite cell in row "
                              f"{int(bad.argmax()) + 2} of {path.name}")
    return data[:, :d], data[:, d]


def save_collection(collection: TaskCollection, path: str | Path) -> None:
    """Write a collection directory: manifest.json plus per-task CSV files."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for task in collection:
        train_csv = f"{task.id}_train.csv"
        test_csv = f"{task.id}_test.csv"
        _write_split_csv(root / train_csv, task.X_train, task.y_train)
        _write_split_csv(root / test_csv, task.X_test, task.y_test)
        entries.append({"id": task.id, "train_csv": train_csv, "test_csv": test_csv})
    manifest = {"dim": collection.dim, "tasks": entries}
    with (root / MANIFEST_NAME).open("w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _check_file_name(name, task_id) -> None:
    """A manifest's data file must be a plain file name in the collection.

    Absolute paths start with a separator, so they fail the same check.
    """
    if not isinstance(name, str) or not name or any(
        s in name for s in _FORBIDDEN_IN_FILE_NAME
    ):
        raise DataFormatError(
            f"task {task_id!r}: data file {name!r} must be a file name inside "
            "the collection directory, without '/', '\\' or '..'"
        )


def load_collection(path: str | Path, read_test: bool = True) -> TaskCollection:
    """Load a collection directory written by :func:`save_collection`.

    With ``read_test=False`` the test CSVs are neither opened nor parsed (they
    may be missing or malformed) and every task gets an empty test split;
    distances and trees use training data alone. The manifest's
    ``train_csv``/``test_csv`` names must still be plain file names, so
    nothing outside the collection directory is read.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DataFormatError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"malformed {manifest_path}: {exc}") from None
    try:
        dim, entries = manifest["dim"], manifest["tasks"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{manifest_path} missing key: {exc}") from None
    if type(dim) is not int or dim < 1:  # a bool is no dimension either
        raise DataFormatError(
            f"{manifest_path}: 'dim' must be an integer of at least 1, "
            f"got {json.dumps(dim)}"
        )
    if not isinstance(entries, list) or not entries:
        raise DataFormatError(
            f"{manifest_path}: 'tasks' must be a non-empty list, got {json.dumps(entries)}"
        )

    tasks = []
    for entry in entries:
        try:
            task_id = entry["id"]
            train_csv, test_csv = entry["train_csv"], entry["test_csv"]
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"bad task entry in {manifest_path}: {exc}") from None
        for name in (train_csv, test_csv):
            _check_file_name(name, task_id)
        X_train, y_train = _read_split_csv(root / train_csv, task_id)
        if read_test:
            X_test, y_test = _read_split_csv(root / test_csv, task_id)
        else:
            X_test = np.empty((0, X_train.shape[1]))
            y_test = np.empty(0)
        if X_train.shape[1] != dim:
            raise DataFormatError(
                f"task {task_id!r} has {X_train.shape[1]} feature columns, "
                f"manifest declares dim={dim}"
            )
        tasks.append(TaskDataset(task_id, X_train, y_train, X_test, y_test))
    return TaskCollection(tasks, dim)
