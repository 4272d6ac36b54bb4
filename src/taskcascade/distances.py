"""Pairwise task distances and distance-matrix assembly.

Ten metrics in three families, all computed from training splits only:

* feature family: ``feature`` (normalized Euclidean on flattened features,
  falling back to a mean/variance embedding when shapes differ), ``mmd``
  (RBF maximum mean discrepancy via random Fourier features, median-heuristic
  bandwidth), ``gauss_meancov`` (Gaussian approximation, mean plus covariance
  Frobenius gap), ``cka`` (one minus linear centered kernel alignment);
* target family: ``target`` (Euclidean on targets), ``sym_kl`` and ``js``
  (smoothed histogram divergences), ``wasserstein`` (exact 1-d W1);
* optimization family: ``gradient`` (gradients at initialization) and
  ``model`` (ridge solutions).

Every metric is one entry of the ``_METRICS`` table: the summaries of every
task, read from the task ids and the training rows of their splits, and a
row reduction, the distances from one summary to a list of others.
:func:`compute_distance_matrix` summarizes each task once and then reduces
one row at a time, summary i against every later summary. The Euclidean
metrics (``target``, ``gradient``, ``model``) summarize every task as a row
of one array, batched over runs of tasks with one training row count, and
reduce a row with one batched dot product. The others share ``_per_task``:
it hands each task's training X and y, and nothing else, to a summary of
one task, and applies a pair distance along the row.
:func:`task_distance` is the same computation on two tasks, so a pair call
equals the matching matrix entry.

Bad input is caught in the summaries, and the error names the first failing
task: too few samples, an X^T y, X^T X or standard deviation that overflows,
a singular ridge system, or any other summary value that is not finite
(summaries are computed under one ``np.errstate``). Targets of unequal
lengths are named by the first pair of row 0 that meets them. A distance
that is not finite, such as that of two targets whose squared difference
overflows, of an ``mmd`` pair whose median bandwidth does or of a ``sym_kl``
or ``js`` pair whose joint target range does or has no distinct bin edges,
is found once the whole matrix is done and named by the first such pair in
row order.

Several of these are divergences rather than metrics; all are used purely as
nonnegative edge weights for tree construction.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateDesignError,
    ShapeMismatchError,
    TaskCascadeError,
)
from .seeding import substream

if TYPE_CHECKING:
    # Annotations only: ``tree`` reads a distance matrix without the task layer.
    from .tasks import Splits, TaskCollection, TaskDataset

FEATURE_METRICS = ("feature", "mmd", "gauss_meancov", "cka")
TARGET_METRICS = ("target", "sym_kl", "js", "wasserstein")
OPTIMIZATION_METRICS = ("gradient", "model")
METRIC_NAMES = FEATURE_METRICS + TARGET_METRICS + OPTIMIZATION_METRICS


@dataclass
class DistanceParams:
    """Hyperparameters the metric definitions leave open."""

    rff_dim: int = 256
    hist_bins: int = 32
    hist_smoothing: float = 1e-6
    ridge_lambda: float | None = None  # None: 1e-3 * trace(X^T X) / d per task
    normalize_gradients: bool = True
    standardize: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.rff_dim < 1:
            raise ConfigError("rff_dim must be positive")
        if self.hist_bins < 1:
            raise ConfigError("hist_bins must be positive")
        if self.hist_smoothing <= 0:
            raise ConfigError("hist_smoothing must be positive")
        if self.ridge_lambda is not None and self.ridge_lambda < 0:
            raise ConfigError(
                f"ridge_lambda must be nonnegative, got {self.ridge_lambda!r}"
            )


@dataclass
class DistanceMatrix:
    """Symmetric nonnegative pairwise task distances with a zero diagonal."""

    values: np.ndarray
    task_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        T = self.values.shape[0]
        if self.values.shape != (T, T):
            raise ShapeMismatchError("distance matrix must be square")
        if not self.task_ids:
            self.task_ids = [f"task{i}" for i in range(T)]
        if len(self.task_ids) != T:
            raise ShapeMismatchError("task_ids length does not match matrix size")
        v, ids = self.values, self.task_ids
        for bad, problem in ((~np.isfinite(v), "has non-finite entries"),
                             (v < 0, "has negative entries"),
                             (np.diagflat(np.diag(v) != 0.0), "diagonal must be zero"),
                             (v != v.T, "must be symmetric")):
            if bad.any():  # name the first offending pair in row order
                i, j = np.argwhere(bad)[0]
                error = ConfigError(f"distance matrix {problem}: "
                                    f"d({ids[i]!r}, {ids[j]!r}) is {float(v[i, j])!r}")
                error.row = int(i)  # for load_distance_matrix to name the line
                raise error

    @property
    def size(self) -> int:
        return self.values.shape[0]


def _standardized(X: np.ndarray) -> np.ndarray:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    # An overflowing std would scale the task's features to zeros, which the
    # summary check cannot tell from a constant task.
    if not np.isfinite(sd).all():
        raise DegenerateDesignError(
            "the standard deviation of X is not finite; the task's entries are too large"
        )
    sd = np.where(sd > 0, sd, 1.0)
    return (X - mu) / sd


def _features(X: np.ndarray, y: np.ndarray, params: DistanceParams) -> np.ndarray:
    return _standardized(X) if params.standardize else X


def _sample_features(X: np.ndarray, y: np.ndarray, params: DistanceParams) -> np.ndarray:
    """Features of a task with the 2 samples a covariance or centering needs."""
    if len(X) < 2:
        raise DegenerateDesignError("gauss_meancov and cka need at least 2 samples")
    return _features(X, y, params)


def _rff_projection(params: DistanceParams, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared random Fourier frequencies and phases for dimension d.

    Derived from params.seed only, so every task of a matrix computation
    (and any standalone pair call with the same params) uses one embedding.
    """
    rng = substream(params.seed, "rff", d)
    freqs = rng.standard_normal((params.rff_dim, d))
    phases = rng.uniform(0.0, 2.0 * np.pi, params.rff_dim)
    return freqs, phases


def _sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B.

    Summed from coordinate differences one column at a time, the order a
    direct pairwise loop uses, so a distance does not depend on the block
    it is computed in.
    """
    sq = np.zeros((A.shape[0], B.shape[0]))
    for a, b in zip(A.T, B.T):
        sq += (a[:, None] - b) ** 2
    return sq


def _within(X: np.ndarray) -> np.ndarray:
    """Squared distances of all unordered pairs of rows of X."""
    return _sq_distances(X, X)[np.triu_indices(X.shape[0], 1)]


def _median_distance(sq: np.ndarray) -> float:
    med = float(np.median(np.sqrt(sq)))
    return med if med > 0 else 1.0


def median_bandwidth(pooled: np.ndarray) -> float:
    """Median pairwise Euclidean distance; 1.0 when the median degenerates to 0."""
    return _median_distance(_within(pooled))


def _rff_summary(X: np.ndarray, y: np.ndarray, params: DistanceParams):
    X = _features(X, y, params)
    freqs, phases = _rff_projection(params, X.shape[1])
    return X, _within(X), X @ freqs.T, phases


def _mmd_rff(u, v, params: DistanceParams) -> float:
    """RFF MMD at the median bandwidth of the pooled samples.

    The pooled pairwise distances are the two tasks' own, kept in their
    summaries, plus the cross block.
    """
    (Xu, Wu, Pu, phases), (Xv, Wv, Pv, _) = u, v
    cross = _sq_distances(Xu, Xv).ravel()
    sigma = _median_distance(np.concatenate([Wu, Wv, cross]))
    if not np.isfinite(sigma):  # at an infinite bandwidth both embeddings agree
        return np.inf
    scale = np.sqrt(2.0 / params.rff_dim)

    def embed(P: np.ndarray) -> np.ndarray:
        return (scale * np.cos(P / sigma + phases)).mean(axis=0)

    return float(np.linalg.norm(embed(Pu) - embed(Pv)))


def _mean_var_embedding(X: np.ndarray) -> np.ndarray:
    return np.concatenate([X.mean(axis=0), X.var(axis=0)])


def _feature_distance(Xu: np.ndarray, Xv: np.ndarray, params: DistanceParams) -> float:
    if Xu.shape == Xv.shape:
        diff = Xu.ravel() - Xv.ravel()
    else:
        diff = _mean_var_embedding(Xu) - _mean_var_embedding(Xv)
    return float(np.sqrt(np.mean(diff * diff)))


def _mean_cov(X: np.ndarray, y: np.ndarray, params: DistanceParams):
    X = _sample_features(X, y, params)
    # np.cov of one column is 0-d; the Frobenius norm needs a matrix
    return X.mean(axis=0), np.atleast_2d(np.cov(X, rowvar=False))


def _gauss_meancov(u, v, params: DistanceParams) -> float:
    (mu_u, cov_u), (mu_v, cov_v) = u, v
    return float(np.linalg.norm(mu_u - mu_v) + np.linalg.norm(cov_u - cov_v, ord="fro"))


def _cka_distance(Xu: np.ndarray, Xv: np.ndarray, params: DistanceParams) -> float:
    """One minus linear CKA, with rows paired by index.

    Unequal sample counts are truncated to the shorter task. Zero-variance
    representations make the alignment undefined; by convention two such
    tasks are at distance 0 and a degenerate/non-degenerate pair at 1.
    """
    n = min(Xu.shape[0], Xv.shape[0])
    Zu = Xu[:n] - Xu[:n].mean(axis=0)
    Zv = Xv[:n] - Xv[:n].mean(axis=0)
    cross = Zu.T @ Zv
    hsic_uv = float(np.sum(cross * cross))
    hsic_uu = float(np.sum((Zu.T @ Zu) ** 2))
    hsic_vv = float(np.sum((Zv.T @ Zv) ** 2))
    if hsic_uu == 0.0 or hsic_vv == 0.0:
        return 0.0 if hsic_uu == hsic_vv else 1.0
    cka = hsic_uv / np.sqrt(hsic_uu * hsic_vv)
    return float(min(max(1.0 - cka, 0.0), 1.0))


def _targets(X: np.ndarray, y: np.ndarray, params: DistanceParams) -> np.ndarray:
    return y


def _pair_histograms(
    yu: np.ndarray, yv: np.ndarray, params: DistanceParams
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed histograms of two targets over their joint range.

    NaN when the range does not split into ``hist_bins`` bins with distinct,
    finite edges: it overflows, or it holds too few floats. That is the test
    ``np.histogram`` itself makes before it raises.
    """
    lo = min(yu.min(), yv.min())
    hi = max(yu.max(), yv.max())
    if lo == hi:
        p = np.zeros(params.hist_bins)
        p[0] = 1.0
        return p.copy(), p.copy()
    edges = np.linspace(lo, hi, params.hist_bins + 1)
    if not (edges[:-1] < edges[1:]).all():
        return np.full(params.hist_bins, np.nan), np.full(params.hist_bins, np.nan)

    def hist(y: np.ndarray) -> np.ndarray:
        counts, _ = np.histogram(y, bins=params.hist_bins, range=(lo, hi))
        p = counts / counts.sum() + params.hist_smoothing
        return p / p.sum()

    return hist(yu), hist(yv)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q)))


def _sym_kl(yu: np.ndarray, yv: np.ndarray, params: DistanceParams) -> float:
    p, q = _pair_histograms(yu, yv, params)
    return 0.5 * (_kl(p, q) + _kl(q, p))


def _js(yu: np.ndarray, yv: np.ndarray, params: DistanceParams) -> float:
    p, q = _pair_histograms(yu, yv, params)
    m = 0.5 * (p + q)
    return float(np.sqrt(max(0.5 * _kl(p, m) + 0.5 * _kl(q, m), 0.0)))


def _sorted_targets(X: np.ndarray, y: np.ndarray, params: DistanceParams) -> np.ndarray:
    return np.sort(y)


def _wasserstein(su: np.ndarray, sv: np.ndarray, params: DistanceParams) -> float:
    """Exact 1-d W1 of two sorted samples: the integral of their CDF gap."""
    pooled = np.concatenate([su, sv])
    pooled.sort(kind="mergesort")
    cdf_u = su.searchsorted(pooled[:-1], "right") / su.size
    cdf_v = sv.searchsorted(pooled[:-1], "right") / sv.size
    return float(np.dot(np.abs(cdf_u - cdf_v), np.diff(pooled)))


def _gradient_rows(ids, splits: Splits, params: DistanceParams) -> np.ndarray:
    """Every task's X^T y, normalized unless ``params`` say not, as the rows
    of one array: one matmul per run of :meth:`Splits.runs` and one pass for
    the norms, with the bits of each task's ``X.T @ y`` and ``np.linalg.norm``."""
    g = np.concatenate([np.matmul(y[:, None, :], X)[:, 0] for X, y in splits.runs()])
    norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None]).ravel())
    # A finite X^T y whose norm overflows would normalize to zeros.
    bad = ~np.isfinite(norm)
    if bad.any():
        raise DegenerateDesignError(f"task {ids[bad.argmax()]!r}: X^T y is not finite; "
                                    "the task's entries are too large")
    if params.normalize_gradients:
        np.divide(g, norm[:, None], out=g, where=(norm > 0.0)[:, None])
    return g


def _model_rows(ids, splits: Splits, params: DistanceParams) -> np.ndarray:
    """Every task's ridge solution as a row of one array, from one
    :func:`linmodel.ridge_solutions` over every run at the penalty of
    ``params``, else 1e-3 * trace(X^T X) / d; an error names the first
    failing task and its first failed check, of which the solution's is last."""
    from .linmodel import RIDGE_CHECKS, ridge_solutions  # only `model` loads it

    checks = (*RIDGE_CHECKS, (DegenerateDesignError, "its model summary is not finite; "
                                                     "the task's entries are too large"))
    runs, lam = list(splits.runs()), params.ridge_lambda
    if lam is None:  # one task's X * X at a time; one that overflows fails the first check
        lam = np.array([1e-3 * np.sum(x * x) / x.shape[1] for X, _ in runs for x in X])
    theta, failed = ridge_solutions(runs, lam)
    failed = np.column_stack([failed, ~np.isfinite(theta).all(axis=1)])
    if failed.any():
        i, check = np.argwhere(failed)[0]  # in task order, then in check order
        error, problem = checks[check]
        raise error(f"task {ids[i]!r}: {problem}")
    return theta


def _target_rows(ids, splits: Splits, params: DistanceParams) -> np.ndarray:
    """Every task's targets as the rows of one array, the one run of
    :meth:`Splits.runs`. Unequal lengths fail at the first task of the second
    run, named with task 0."""
    y, *rest = (y for _, y in splits.runs())
    if rest:
        raise ShapeMismatchError(f"pair ({ids[0]!r}, {ids[len(y)]!r}): Euclidean distance "
                                 f"needs equal lengths, got {y.shape[1]} and {rest[0].shape[1]}")
    return y


def _per_task(metric: str, summarize: Callable, pair: Callable) -> tuple[Callable, Callable]:
    """The ``_METRICS`` entry of a metric that summarizes one task's training
    (X, y), cut from the splits at their ``train`` offsets, and applies the
    distance ``pair`` of two summaries along a row. An error or a summary
    that is not finite names the first such task."""

    def summaries(ids, splits: Splits, params: DistanceParams) -> list:
        X, y, train, out = splits.X_train, splits.y_train, splits.train.tolist(), []
        for task_id, a, b in zip(ids, train, train[1:]):
            try:
                summary = summarize(X[a:b], y[a:b], params)
            except TaskCascadeError as exc:
                raise type(exc)(f"task {task_id!r}: {exc}") from exc
            if not all(np.isfinite(part).all() for part in
                       (summary if isinstance(summary, tuple) else (summary,))):
                raise DegenerateDesignError(f"task {task_id!r}: its {metric} summary is not "
                                            "finite; the task's entries are too large")
            out.append(summary)
        return out

    def row(u, later: Sequence, params: DistanceParams) -> np.ndarray:
        return np.array([pair(u, v, params) for v in later], dtype=float)

    return summaries, row


def _euclidean(u: np.ndarray, later: np.ndarray, params: DistanceParams) -> np.ndarray:
    """Euclidean distances from u to each later vector, one batched dot per row.

    ``later`` holds the later vectors as rows: a slice of the summary array
    of the whole collection. Each entry is sqrt of the dot product of u - v
    with itself, as ``np.linalg.norm(u - v)`` computes it, so it equals the
    per-pair value.
    """
    diff = u - later
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).ravel())


# metric -> (the summaries of every task from the task ids and their splits,
#            distances from one summary to the later ones)
_METRICS: dict[str, tuple[Callable, Callable]] = {
    "feature": _per_task("feature", _features, _feature_distance),
    "mmd": _per_task("mmd", _rff_summary, _mmd_rff),
    "gauss_meancov": _per_task("gauss_meancov", _mean_cov, _gauss_meancov),
    "cka": _per_task("cka", _sample_features, _cka_distance),
    "target": (_target_rows, _euclidean),
    "sym_kl": _per_task("sym_kl", _targets, _sym_kl),
    "js": _per_task("js", _targets, _js),
    "wasserstein": _per_task("wasserstein", _sorted_targets, _wasserstein),
    "gradient": (_gradient_rows, _euclidean),
    "model": (_model_rows, _euclidean),
}


def _pairwise(
    ids: Sequence[str],
    splits: Splits,
    metric: str,
    params: DistanceParams | None,
) -> np.ndarray:
    """Summarize every task once, then reduce one row of pairs at a time.

    ``splits`` are the splits of the tasks named by ``ids``, of which a
    metric reads the training rows only. Row i holds summary i against
    every later summary, so the matrix takes T - 1 row reductions and no
    temporary larger than T summaries. Errors are named as the module
    docstring says.
    """
    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r}; valid: {sorted(METRIC_NAMES)}")
    summarize, reduce_row = _METRICS[metric]
    params = params or DistanceParams()
    T = len(ids)
    values = np.zeros((T, T))
    # An overflow or NaN shows in a summary or in the finished matrix, and
    # each is checked once.
    with np.errstate(over="ignore", invalid="ignore"):
        summaries = summarize(ids, splits, params)
        for i in range(T - 1):
            row = reduce_row(summaries[i], summaries[i + 1:], params)
            values[i, i + 1:] = row
            values[i + 1:, i] = row
    if not np.isfinite(values).all():
        # The first in row order lies above the diagonal: pair (i, j), i < j.
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DegenerateDesignError(
            f"pair ({ids[i]!r}, {ids[j]!r}): distance is {float(values[i, j])!r}, "
            "not finite at the scale of the tasks' values"
        )
    return values


def task_distance(
    u: TaskDataset,
    v: TaskDataset,
    metric: str,
    params: DistanceParams | None = None,
) -> float:
    """Distance between two tasks' training splits under the named metric.

    Equal to the (u, v) entry of a matrix computed with the same params;
    the splits of ``u`` and ``v`` are concatenated and checked as a
    collection's are.
    """
    if u.dim != v.dim:
        raise ShapeMismatchError(
            f"tasks {u.id!r} and {v.id!r} have dimensions {u.dim} != {v.dim}"
        )
    from .tasks import concat_splits  # loaded already: u and v are its tasks

    return float(_pairwise((u.id, v.id), concat_splits((u, v), u.dim), metric, params)[0, 1])


def compute_distance_matrix(
    collection: TaskCollection,
    metric_name: str,
    params: DistanceParams | None = None,
) -> DistanceMatrix:
    """Pairwise distances over all unordered task pairs, training splits only."""
    values = _pairwise(collection.ids, collection.splits, metric_name, params)
    return DistanceMatrix(values, collection.ids)


def save_distance_matrix(matrix: DistanceMatrix, path) -> None:
    """Write a square CSV: header row of task ids, then row-major values."""
    lines = [",".join(matrix.task_ids)]
    lines += [",".join(map(repr, row)) for row in matrix.values.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_distance_matrix(path) -> DistanceMatrix:
    """Read a matrix written by :func:`save_distance_matrix`.

    A header with an empty or repeated id, or a row with a non-numeric cell
    or with more or fewer cells than the header has ids, raises
    :class:`DataFormatError` naming the file and line; a value that is not
    a distance raises :class:`ConfigError` naming the file, line and pair.
    """
    try:
        with open(path) as fh:
            # Only the line break comes off: an id may begin or end in a space.
            header, *lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not text: {exc}") from None
    if not header:
        raise ConfigError(f"empty distance matrix file {path}")
    ids = header.split(",")
    seen: set[str] = set()
    for task_id in ids:
        if not task_id or task_id in seen:
            problem = "repeats the id" if task_id else "has an empty id"
            raise DataFormatError(f"{path}: line 1 {problem} {task_id!r}")
        seen.add(task_id)
    rows, line_of_row = [], []
    for line_no, line in enumerate(lines, start=2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        line_of_row.append(line_no)
        if len(cells) != len(ids):
            raise DataFormatError(
                f"{path}: line {line_no} has {len(cells)} cells, expected {len(ids)}"
            )
        try:
            rows.append(list(map(float, cells)))
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: non-numeric cell on line {line_no}: {exc}"
            ) from None
    values = np.array(rows, dtype=np.float64)
    if values.shape != (len(ids), len(ids)):
        raise ConfigError(
            f"{path}: expected a {len(ids)}x{len(ids)} matrix, got {values.shape}"
        )
    try:
        return DistanceMatrix(values, ids)
    except ConfigError as exc:  # a value check, which names the row of its pair
        raise ConfigError(f"{path}: line {line_of_row[exc.row]}: {exc}") from None
