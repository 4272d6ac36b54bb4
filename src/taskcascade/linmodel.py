"""Linear-regression loss, contractive gradient refinement, and ridge solves.

The refinement operator is full-batch gradient descent on the quadratic
loss L(theta) = 0.5 * ||X theta - y||^2. One step maps theta to
M theta + eta X^T y with M = I - eta X^T X. In the eigenbasis
X^T X = V diag(lam) V^T every direction evolves on its own with factor
r = 1 - eta lam, so b steps have the closed form

    theta_b = V [r^b z0 + (1 - r^b) c / lam],  z0 = V^T theta0, c = V^T X^T y,

with directions of lam = 0, as every eigenvalue at or below d * eps *
lam_max counts, keeping z0 (Goh, "Why Momentum Really Works", Distill
2017). :func:`refine` evaluates it from one symmetric eigendecomposition,
so its cost does not grow with b. The map is affine in
(theta0, y), so k columns of starting points and targets share that one
eigendecomposition. For eta in (0, 2/lambda_max) the map is a contraction
with rate max |r| < 1 whenever X^T X is positive definite, so errors decay
geometrically in the step count.

The default step size 1/lambda_max takes lambda_max from power iteration on
X^T X with a fixed start vector, stopped by a relative tolerance, unless
that step would not contract (see :func:`lambda_max`). Power iteration is
a linear recurrence too: with S = V diag(lam) V^T and
a = V^T v0, its k-th Rayleigh quotient is

    q_k = sum_i a_i^2 lam_i^(2k+1) / sum_i a_i^2 lam_i^(2k),

so the sequence and its stop rule can be evaluated in blocks of k from one
eigendecomposition instead of one matrix-vector product per step.

Both read the same eigendecomposition, and so does the ridge solve of
:func:`ridge_solutions`. :func:`_decompose` is the one place that forms and
decomposes a design's Gram matrix: one ``matmul`` per stack of matrices of
one shape, and one ``eigh`` of every stack's Gram matrices together. A
:class:`Design` holds X, eigh(X^T X) = (lam, V) and power iteration's
estimate of lambda_max, which :func:`build_designs` evaluates for all its
designs in one pass. :func:`lambda_max`, :func:`refine` and
:func:`contraction_rate` read a Design, and given a plain array they build
its design through :func:`build_designs`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDesignError,
    DivergenceError,
    NonFiniteGramError,
    ShapeMismatchError,
)

_POWER_TOL = 1e-10
_POWER_MAX_ITER = 10_000
# Designs whose power iterations _power_estimates evaluates together. It
# bounds the size of the temporaries. At d=20, 32 took the pass over 50
# designs from 3.5 to 3.2 ms and over 250 from 14.3 to 11.2 ms against 16,
# with the same estimates.
_POWER_CHUNK = 32


class Design(NamedTuple):
    """A design X with eigh(X^T X) = (lam, V) and power iteration's
    estimate ``lam_est`` of the largest eigenvalue of X^T X."""

    X: np.ndarray
    lam: np.ndarray
    V: np.ndarray
    lam_est: float


def build_designs(*X: np.ndarray) -> list[Design]:
    """The designs of the (k, n, d) stacks of matrices ``X``, which share d, in order.

    :func:`_decompose` forms and decomposes their Gram matrices, and each
    design holds a view of its row of ``X``. One pass of
    :func:`_power_estimates` over them all gives every design its estimate
    of lambda_max. :attr:`TaskCollection.designs` passes a stack per run.
    Raises NonFiniteGramError, with the position of the first such design,
    when a Gram matrix is not finite (its entries overflow).
    """
    try:
        X = [np.asarray(x, dtype=np.float64) for x in X]
        if any(x.ndim != 3 or x.shape[2] != X[0].shape[2] for x in X):
            raise ValueError
    except ValueError:  # not a stack, or a list of matrices of other shapes
        raise ShapeMismatchError("designs need (k, n, d) stacks that share d") from None
    if not sum(map(len, X)):
        return []
    G, finite, lam, V = _decompose(*X)
    if not finite.all():
        raise NonFiniteGramError(
            "X^T X is not finite; the design's entries are too large",
            int(finite.argmin()),
        )
    estimates = _power_estimates(G, lam, V, _POWER_TOL, _POWER_MAX_ITER)
    return [Design(*parts) for parts in zip((m for x in X for m in x), lam, V, estimates.tolist())]


def _decompose(*X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """G = X^T X of the (k, n, d) stacks ``X`` in order, which G are finite,
    and eigh(G) = (lam, V), each with the bits of its own X^T X and ``eigh``;
    a G that is not finite, which ``eigh`` would turn into NaN, is zero."""
    with np.errstate(over="ignore", invalid="ignore"):  # flagged as not finite
        G = np.concatenate([np.matmul(x.transpose(0, 2, 1), x) for x in X])
    finite = np.isfinite(G).all(axis=(1, 2))
    G[~finite] = 0.0
    return G, finite, *np.linalg.eigh(G)


def _design(X: np.ndarray | Design) -> Design:
    return X if isinstance(X, Design) else build_designs(np.asarray(X)[None])[0]


def _sum_in_order(parts: Iterable[np.ndarray]) -> np.ndarray:
    """The sum of arrays of one shape, added one after another.

    Unlike a matmul or ``np.sum``, the order of the additions never depends
    on the shape, so each entry of a stack sums to the same bits alone or in
    it. An array is summed over its first axis.
    """
    parts = iter(parts)
    total = np.array(next(parts))
    for part in parts:
        total += part
    return total


def _power_estimates(
    G: np.ndarray, lam: np.ndarray, V: np.ndarray, tol: float, max_iter: int
) -> np.ndarray:
    """Power iteration's estimate of the largest eigenvalue of each S = G[t].

    G[t] = V[t] diag(lam[t]) V[t]^T. The estimate is that of the loop that
    starts at v0 = 1/sqrt(d), sets v_k = S v_{k-1} / |S v_{k-1}| and returns
    the first Rayleigh quotient q_k = v_k . S v_k with
    |q_k - q_{k-1}| <= tol * |q_k| (q_0 = 0), or q_max_iter, or 0
    when S v0 = 0. Here q_k comes in closed form from the eigendecomposition
    (see the module docstring), for ``_POWER_CHUNK`` designs and a block of
    k at a time (see :func:`_power_chunk`).

    The weight of direction i in q_k is a_i^2 mu_i^(2k) with mu = lam /
    max|lam|, formed as a log and shifted by its maximum over the directions
    at each k, so nothing under- or overflows at large k. Directions with
    a_i = 0 or lam_i = 0 weigh zero; round-off eigenvalues below zero keep
    their sign. Arrays put the direction axis first, and every sum over it
    runs in index order (see :func:`_sum_in_order`), so a design gets the
    same bits alone, in any stack and in any chunk.
    """
    T, d = lam.shape
    estimates = np.zeros(T)
    if d == 0:
        return estimates
    # a = V^T v0 and S v0 for v0 = 1/sqrt(d), one column of V or S at a time.
    # Only the designs in ``rows`` have a start vector that moves and a
    # direction of weight.
    v0 = 1.0 / np.sqrt(d)
    a2 = np.square(_sum_in_order(V[:, j] * v0 for j in range(d))).T
    moves = _sum_in_order(G[:, :, j] * v0 for j in range(d)).any(axis=1)
    lam = lam.T
    keep = (a2 > 0.0) & (lam != 0.0)
    rows = np.flatnonzero(moves & keep.any(axis=0))
    scale = np.abs(lam[:, rows]).max(axis=0)
    mu = lam[:, rows] / scale
    with np.errstate(divide="ignore"):  # log(0) = -inf: weight zero
        log_a2 = np.log(np.where(keep[:, rows], a2[:, rows], 0.0))[:, :, None]
        log_mu2 = np.log(np.square(mu))[:, :, None]
    mu = mu[:, :, None]
    for lo in range(0, rows.size, _POWER_CHUNK):
        c = slice(lo, lo + _POWER_CHUNK)
        estimates[rows[c]] = _power_chunk(
            scale[c], mu[:, c], log_a2[:, c], log_mu2[:, c], tol, max_iter
        )
    return estimates


def _power_chunk(
    scale: np.ndarray,
    mu: np.ndarray,
    log_a2: np.ndarray,
    log_mu2: np.ndarray,
    tol: float,
    max_iter: int,
) -> np.ndarray:
    """The estimates of :func:`_power_estimates` for one chunk of designs.

    ``mu``, ``log_a2`` and ``log_mu2`` have shape (d, chunk, 1). Blocks of
    k grow from 32 to 512 steps, and a design leaves the chunk at its stop,
    so the cost follows the stop indices.

    Every direction's weight falls with k, so within a block the largest
    weight at each k is at least the largest at the block's last k. A
    direction whose weight at the block's first k is below e^-100 of that
    stays below it in the whole block, far under the last bit of the sums,
    and the block leaves it out. The largest weight, and so the shift, is
    unchanged.
    """
    n = scale.size
    estimates = np.zeros(n)
    rows = np.arange(n)
    q_prev, k0, size = np.zeros(n), 1, 32
    while k0 <= max_iter and rows.size:
        k = np.arange(k0, min(k0 + size, max_iter + 1), dtype=np.float64)
        first_w, last_w = log_mu2 * k[0], log_mu2 * k[-1]
        first_w += log_a2
        last_w += log_a2
        live = first_w >= np.maximum.reduce(last_w) - 100.0
        low = int(live.any(axis=(1, 2)).argmax())  # no live direction below
        w = log_mu2[low:] * k
        w += np.where(live[low:], log_a2[low:], -np.inf)
        w -= np.maximum.reduce(w)
        np.exp(w, out=w)
        q = scale[:, None] * _sum_in_order(mu[low:] * w) / _sum_in_order(w)
        change = np.abs(q - np.concatenate((q_prev[:, None], q[:, :-1]), axis=1))
        stops = change <= tol * np.abs(q)
        first = stops.argmax(axis=1)
        done = stops[np.arange(rows.size), first]
        estimates[rows[done]] = q[done, first[done]]
        going = ~done
        rows, scale, q_prev = rows[going], scale[going], q[going, -1]
        mu, log_a2, log_mu2 = mu[:, going], log_a2[:, going], log_mu2[:, going]
        k0, size = k0 + size, min(2 * size, 512)
    estimates[rows] = q_prev
    return estimates


def lambda_max(X: np.ndarray | Design) -> float:
    """The largest eigenvalue of X^T X, from power iteration where its step contracts.

    All-ones start, relative tolerance ``_POWER_TOL``, at most
    ``_POWER_MAX_ITER`` steps; :func:`build_designs` computes the estimate
    for a whole stack of designs at once (see :func:`_power_estimates`), and
    a plain array gets its design built here. An estimate whose step
    1/estimate would not contract along the top eigenvector, as
    :func:`refine` tests it, gives way to the top eigenvalue ``lam[-1]``.
    Raises DegenerateDesignError for a zero design and for one whose X^T X
    is subnormal, so that the step size overflows.
    """
    design = _design(X)
    if not design.lam.any():
        raise DegenerateDesignError("X^T X is the zero matrix")
    estimate, top = design.lam_est, float(design.lam[-1])
    if not (estimate > 0.0 and (1.0 / estimate) * top <= 2.0):
        estimate = top
    if not (0.0 < estimate < math.inf and 1.0 / estimate < math.inf):
        raise DegenerateDesignError(
            f"power iteration's estimate of lambda_max is {estimate!r}, not a "
            "positive finite number with a finite reciprocal; the design's "
            "entries may be too small"
        )
    return estimate


def _spectrum(lam: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues ``lam`` of X^T X with those at or below
    d * eps * lam_max set to zero, the singular rule of :func:`ridge_solutions`:
    ``eigh`` finds an eigenvalue to about eps * lam_max, so the null space of
    a rank-deficient design shows as round-off of either sign. Its directions
    neither grow nor move."""
    return np.where(lam > lam.size * np.finfo(np.float64).eps * lam[-1], lam, 0.0)


def contraction_rate(X: np.ndarray | Design, eta: float) -> float:
    """Spectral norm of M = I - eta X^T X, i.e. max_i |1 - eta lam_i|."""
    return float(np.max(np.abs(1.0 - eta * _spectrum(_design(X).lam))))


def refine(
    theta0: np.ndarray,
    X: np.ndarray | Design,
    y: np.ndarray,
    b: int,
    eta: float,
) -> np.ndarray:
    """The result of b full-batch gradient steps of size eta from theta0.

    Evaluated in closed form from the eigendecomposition of X^T X (see the
    module docstring), so the cost is independent of b: O(d^2) per column
    given a Design, plus the O(d^3) decomposition given a plain array. b = 0
    returns a copy of theta0. Raises DivergenceError when b >= 1 and
    eta * lambda_max > 2, where the iteration would grow without bound, or
    when theta0 is not finite. A result that is not finite from a finite
    theta0 raises DegenerateDesignError: X^T y, or the solution c / lam it
    moves towards, overflows at the scale of the task's entries.

    theta0 of shape (d,) with y of shape (n,) refines one parameter vector.
    theta0 of shape (d, k) with y of shape (n, k) refines k columns at once,
    column j on targets y[:, j], from the one eigendecomposition; the
    checks apply to the whole stack.
    """
    design = X if isinstance(X, Design) else None
    X = np.asarray(X if design is None else design.X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    theta = np.array(theta0, dtype=np.float64, copy=True)
    if X.ndim != 2 or y.ndim not in (1, 2) or X.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"X {X.shape} and y {y.shape} do not agree")
    expected = (X.shape[1], *y.shape[1:])
    if theta.shape != expected:
        raise ShapeMismatchError(f"theta has shape {theta.shape}, expected {expected}")
    if b < 0:
        raise ConfigError(f"budget must be nonnegative, got {b}")
    if b == 0:
        return theta
    if design is None:
        design = _design(X)
    lam, V = _spectrum(design.lam), design.V
    h = eta * lam
    r = 1.0 - h
    if r.min() < -1.0:
        raise DivergenceError("refinement diverges; step size exceeds 2/lambda_max")
    # progress = 1 - r^b, the share of the way to each direction's target.
    # Where r > 0 it goes through expm1/log1p of -eta*lam: forming r first
    # would round away the digits of eta*lam that matter when r is close
    # to 1 (near-singular designs, large b).
    progress = 1.0 - r**b
    pos = r > 0.0
    progress[pos] = -np.expm1(b * np.log1p(-h[pos]))
    # Per-direction factors index the rows of a column stack; for a vector
    # the index is a plain slice, so that path is unchanged.
    rows = (slice(None),) + (None,) * (theta.ndim - 1)
    z0 = V.T @ theta
    c = V.T @ (X.T @ y)
    # lam = 0 gives r = 1 and progress = 0, so z0 stays there
    target = np.divide(c, lam[rows], out=z0.copy(), where=(lam > 0.0)[rows])
    out = V @ (z0 + progress[rows] * (target - z0))
    if not np.isfinite(out).all():
        if not np.isfinite(theta).all():
            raise DivergenceError(
                "refinement produced non-finite parameters from a non-finite theta0"
            )
        if not np.isfinite(c).all():
            raise DegenerateDesignError(
                "X^T y is not finite; the task's entries are too large"
            )
        raise DegenerateDesignError(
            "the refined parameters are not finite; the task's least-squares "
            "solution overflows at the scale of its entries"
        )
    return out


# A ridge solve's checks in the order they apply, with the error each raises.
RIDGE_CHECKS = (
    (NonFiniteGramError, "X^T X + lam I is not finite; the design's entries are too large"),
    (DegenerateDesignError, "X^T y is not finite; the task's entries are too large"),
    (DegenerateDesignError, "X^T X + lam I is singular; increase lam or check the design"),
)


def ridge_solutions(runs: list, lam) -> tuple[np.ndarray, np.ndarray]:
    """The solutions theta = V diag(1 / (lam_i + mu)) V^T X^T y, for X^T X =
    V diag(lam_i) V^T, of the (k, n, d) stacks X of the (X, y) ``runs`` with
    the rows of y and penalty mu ``lam`` (one, or one per matrix), each with
    its bits alone; and the (k, 3) flags of the :data:`RIDGE_CHECKS` each
    fails. Singular is lam_min + mu <= d * eps * (lam_max + mu), eps the
    float64 machine epsilon: ``eigh`` finds an eigenvalue to about eps * lam_max.
    """
    _, finite, lam_X, V = _decompose(*(X for X, _ in runs))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # flagged
        shifted = lam_X + np.reshape(lam, (-1, 1))
        Xty = np.concatenate([np.matmul(y[:, None, :], X)[:, 0] for X, y in runs])
        z = np.matmul(Xty[:, None, :], V)[:, 0] / shifted
        theta = np.matmul(V, z[:, :, None])[:, :, 0]
        singular = shifted[:, :1] <= V.shape[2] * np.finfo(np.float64).eps * shifted[:, -1:]
    failed = [~(finite & np.isfinite(shifted).all(axis=1)), ~np.isfinite(Xty).all(axis=1),
              singular.any(axis=1)]  # at d = 0 no column, and nothing is singular
    return theta, np.stack(failed, axis=1)


def ridge_solution(X: np.ndarray, y: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Solve (X^T X + lam I) theta = X^T y: :func:`ridge_solutions` of one
    matrix, raising the error of the first of its checks that fails."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError("X must be a 2-d matrix")
    if y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"X {X.shape} and y {y.shape} do not agree")
    if lam < 0:
        raise ConfigError(f"ridge penalty must be nonnegative, got {lam}")
    theta, failed = ridge_solutions([(X[None], y[None])], lam)
    if failed.any():
        error, problem = RIDGE_CHECKS[failed[0].argmax()]
        raise error(problem)
    return theta[0]


def rmse(theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Root mean squared residual of y against X theta."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"X {X.shape} and y {y.shape} do not agree")
    if y.shape[0] == 0:
        raise ShapeMismatchError("rmse needs at least one sample")
    r = X @ np.asarray(theta, dtype=np.float64) - y
    # np.sqrt(np.mean(r * r)) rounded the same way (the pairwise sum, one
    # division, a correctly rounded square root), without np.mean's
    # Python-level dispatch.
    return math.sqrt(float(np.add.reduce(r * r)) / r.shape[0])
