"""Task data model, clustered synthetic generation, and on-disk collections.

A task is a linear-regression dataset with train and test splits sharing a
feature dimension. Collections of tasks are generated synthetically from a
clustered parameter model, or loaded from a directory of CSV files described
by a ``manifest.json``.

A collection keeps its splits as stacks, one :class:`SplitStack` per distinct
(n_train, n_test), and each task's arrays are views of its rows; readers of
the whole collection make one pass per stack, not one per task.
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


@dataclass
class TaskDataset:
    """One task: train/test design matrices and targets.

    Train and test splits share the feature dimension; the test split may be
    empty (0 rows) for workflows that only need training data.
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
            setattr(self, name, arr)
        if self.X_test.shape[0] == 0:
            # an empty test split of any width has the training dimension,
            # so it saves as a header of x1..xd,y that loads back
            self.X_test = np.empty((0, self.X_train.shape[1]))
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
        if self.X_test.shape[1] != self.X_train.shape[1]:
            raise ShapeMismatchError(
                f"task {self.id!r}: train dim {self.X_train.shape[1]} "
                f"!= test dim {self.X_test.shape[1]}"
            )
        for name in _SPLITS:
            if not np.isfinite(getattr(self, name)).all():
                raise DataFormatError(f"task {self.id!r}: non-finite entry in {name}")

    @property
    def dim(self) -> int:
        return self.X_train.shape[1]

    @property
    def n_train(self) -> int:
        return self.X_train.shape[0]

    @property
    def n_test(self) -> int:
        return self.X_test.shape[0]


class SplitStack(NamedTuple):
    """The tasks at ``index`` (ascending), which share (n_train, n_test), with
    their splits stacked as (k, n, d) and (k, n) arrays."""

    index: np.ndarray
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray


def stack_splits(tasks: list[TaskDataset]) -> list[SplitStack]:
    """Copies of the tasks' splits, one stack per (n_train, n_test) in order
    of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault((task.n_train, task.n_test), []).append(i)
    return [
        SplitStack(np.array(index), *(np.array([getattr(tasks[i], name) for i in index])
                                      for name in _SPLITS))
        for index in groups.values()
    ]


def _view_rows(tasks: list[TaskDataset], stack: SplitStack) -> None:
    """Point the arrays of the tasks in ``stack`` at their rows of it."""
    for j, i in enumerate(stack.index.tolist()):
        tasks[i].X_train, tasks[i].y_train, tasks[i].X_test, tasks[i].y_test = (
            a[j] for a in stack[1:])


@dataclass
class TaskCollection:
    """Ordered sequence of tasks sharing a feature dimension."""

    tasks: list[TaskDataset]
    dim: int

    def __post_init__(self):
        seen: set[str] = set()
        for task in self.tasks:
            if task.id in seen:
                raise DataFormatError(f"duplicate task id {task.id!r}")
            seen.add(task.id)
            if task.dim != self.dim:
                raise DataFormatError(
                    f"task {task.id!r} has dimension {task.dim}, expected {self.dim}"
                )

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
    def stacks(self) -> list[SplitStack]:
        """The tasks' splits as stacks (see :class:`SplitStack`), copied on
        first use and kept, as :attr:`designs` are; the tasks' arrays become
        views of their rows. :func:`generate_synthetic` sets its own."""
        stacks = stack_splits(self.tasks)
        for stack in stacks:
            _view_rows(self.tasks, stack)
        return stacks

    @cached_property
    def designs(self) -> list[Design]:
        """Every task's training design, from one stacked eigendecomposition
        per split stack.

        Built on first use and kept, so every run that refines the collection
        reads the same designs; its tasks must not be replaced after that. A
        Gram matrix that overflows names its task, the first in task order.
        """
        from .linmodel import build_designs  # so that gen never loads linmodel

        designs, failed = [None] * len(self.tasks), []
        for stack in self.stacks:
            try:
                for i, design in zip(stack.index.tolist(), build_designs(stack.X_train)):
                    designs[i] = design
            except NonFiniteGramError as exc:
                failed.append((int(stack.index[exc.index]), str(exc)))
        if failed:
            i, problem = min(failed)
            raise NonFiniteGramError(f"task {self.tasks[i].id!r}: {problem}", i)
        return designs


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
    Each substream draws into the task's rows of one split stack, and one
    stacked matmul forms the targets, with the bits of per-task arrays. A
    non-finite entry names the first such task, and in it the first split.
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
    stack = SplitStack(np.arange(T), X_train, y_train, X_test, y_test)
    # A non-finite entry makes its stack's sum non-finite, and so may an
    # overflow of finite entries, which the check per task then clears.
    if not all(np.isfinite(a.sum()) for a in stack[1:]):
        bad = [[not np.isfinite(a[v]).all() for a in stack[1:]] for v in range(T)]
        if any(map(any, bad)):
            v, s = np.argwhere(bad)[0]
            raise DataFormatError(f"task {ids[v]!r}: non-finite entry in {_SPLITS[s]}")
    # The stack is checked as a whole, so its tasks skip TaskDataset's checks.
    tasks = [TaskDataset.__new__(TaskDataset) for _ in ids]
    for task, task_id in zip(tasks, ids):
        task.id = task_id
    _view_rows(tasks, stack)
    collection = TaskCollection(tasks, d)
    collection.stacks = [stack]
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
