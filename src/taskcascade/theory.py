"""Error-propagation bounds along cascade paths, and empirical verification.

The central quantity is the attenuation factor P(i:m), the product of
rho_j^b_j over all refinements downstream of edge i. The noiseless path
bound discounts the initial error by P(1:m) and every edge length by its
own suffix product; the noisy bound adds a per-node noise term scaled by
the design's noise-to-parameter operator norm. The cascade-versus-direct
comparison evaluates the closed-form condition under which the cascaded
bound is tighter than one discounted long transfer.

:func:`verify_bounds` checks the bounds on synthetic chains by refining
each task of the chain with :func:`linmodel.refine`. Each chain design is
decomposed once, and its step size, contraction rate, noise operator norm
and refinements all read that decomposition. Each task is refined once
for a stack of columns: one column without noise, or one per noise draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linmodel import build_designs, contraction_rate, lambda_max, refine
from .seeding import substream


@dataclass
class PathSpec:
    """Per-edge contraction rates, budgets and lengths along one path."""

    rhos: list[float]
    budgets: list[int]
    deltas: list[float]
    init_error: float = 0.0

    def __post_init__(self):
        m = len(self.rhos)
        if not (len(self.budgets) == len(self.deltas) == m):
            raise ConfigError("rhos, budgets and deltas must have equal lengths")
        if any(not 0.0 <= r < 1.0 for r in self.rhos):
            raise ConfigError("contraction rates must lie in [0, 1)")
        if any(b < 0 for b in self.budgets):
            raise ConfigError("budgets must be nonnegative")
        if any(d < 0 or not np.isfinite(d) for d in self.deltas):
            raise ConfigError("edge lengths must be finite and nonnegative")
        if self.init_error < 0 or not np.isfinite(self.init_error):
            raise ConfigError("init_error must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.rhos)


@dataclass
class NoisySpec:
    """A path plus per-node noise scales and design operator norms."""

    path: PathSpec
    sigmas: list[float]
    a_frob: list[float]

    def __post_init__(self):
        m = len(self.path)
        if not (len(self.sigmas) == len(self.a_frob) == m):
            raise ConfigError("sigmas and a_frob must match the path length")
        if any(v < 0 or not np.isfinite(v) for v in (*self.sigmas, *self.a_frob)):
            raise ConfigError("sigmas and a_frob must be finite and nonnegative")


def _suffix_products(spec: PathSpec) -> np.ndarray:
    """sfx[k] = prod over edges j >= k of rho_j^b_j, with sfx[m] = 1."""
    m = len(spec)
    sfx = np.ones(m + 1)
    for j in range(m - 1, -1, -1):
        sfx[j] = sfx[j + 1] * spec.rhos[j] ** spec.budgets[j]
    return sfx


def path_bound(spec: PathSpec) -> float:
    """Noiseless worst-case error at the end of a path.

    Discounts the initial error by the full attenuation product and each
    edge length by the product of all downstream contractions.
    """
    sfx = _suffix_products(spec)
    bound = sfx[0] * spec.init_error
    for k, delta in enumerate(spec.deltas):
        bound += sfx[k] * delta
    return float(bound)


def noisy_path_bound(spec: NoisySpec) -> float:
    """Expected-error bound with per-node observation noise.

    Reduces to :func:`path_bound` exactly when all sigmas are zero.
    """
    sfx = _suffix_products(spec.path)
    bound = path_bound(spec.path)
    for k in range(len(spec.path)):
        rho_pow = spec.path.rhos[k] ** spec.path.budgets[k]
        bound += sfx[k + 1] * spec.sigmas[k] * (1.0 + rho_pow) * spec.a_frob[k]
    return float(bound)


def cascade_vs_direct(
    delta_max: float,
    rho_max: float,
    length: int,
    budget: int,
    direct_distance: float,
) -> tuple[float, float, bool]:
    """Worst-case cascaded bound, direct-transfer bound, and tightness test.

    For a length-m path with uniform per-node budget b starting from an
    exact source, the cascaded bound sums edge terms rho^((m-i+1) b) *
    delta_max while the direct bound is rho^b times the source-target
    distance. The returned boolean evaluates
    delta_max * (1 - rho^(m b)) < direct_distance * (1 - rho^b), which is
    exactly when the cascaded bound is the tighter of the two.
    """
    if not 0.0 < rho_max < 1.0:
        raise ConfigError("rho_max must lie in (0, 1)")
    if length < 1 or budget < 1:
        raise ConfigError("length and budget must be positive")
    if delta_max < 0 or direct_distance < 0:
        raise ConfigError("distances must be nonnegative")
    m, b = length, budget
    cascade_bound = delta_max * sum(rho_max ** ((m - i + 1) * b) for i in range(1, m + 1))
    direct_bound = rho_max**b * direct_distance
    tighter = delta_max * (1.0 - rho_max ** (m * b)) < direct_distance * (1.0 - rho_max**b)
    return float(cascade_bound), float(direct_bound), bool(tighter)


@dataclass
class ChainConfig:
    """A synthetic chain of linear tasks with equally spaced optima."""

    length: int  # number of edges; the chain has length + 1 tasks
    dim: int = 5
    n: int = 32
    budget_per_node: int = 5
    root_budget: int | None = None  # defaults to budget_per_node
    spacing: float = 1.0  # total root-to-leaf distance in parameter space
    noise_sigma: float = 0.0
    noise_draws: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ConfigError("chain needs at least one edge")
        if self.dim < 1:
            raise ConfigError("dim must be positive")
        if self.n < self.dim:
            raise ConfigError("need n >= dim for a positive-definite design")
        if self.budget_per_node < 0 or (self.root_budget or 0) < 0:
            raise ConfigError("budgets must be nonnegative")
        if self.spacing < 0 or self.noise_sigma < 0:
            raise ConfigError("spacing and noise_sigma must be nonnegative")
        if self.noise_draws < 1:
            raise ConfigError("noise_draws must be positive")


@dataclass
class BoundCheck:
    """Outcome of checking one chain against its theoretical bound."""

    config: ChainConfig
    empirical: float
    bound: float
    satisfied: bool
    mode: str
    mc_stderr: float = 0.0


def _build_chain(config: ChainConfig):
    """The chain's optima, designs, step sizes, contraction rates and a_frob."""
    rng = substream(config.seed, "chain")
    theta0 = rng.standard_normal(config.dim)
    direction = rng.standard_normal(config.dim)
    direction /= np.linalg.norm(direction)
    m = config.length
    thetas = [theta0 + (i / m) * config.spacing * direction for i in range(m + 1)]
    designs = build_designs(rng.standard_normal((m + 1, config.n, config.dim)))
    etas, rhos, a_frob = [], [], []
    for design in designs:
        etas.append(1.0 / lambda_max(design))
        rhos.append(contraction_rate(design, etas[-1]))
        # ||(X^T X)^-1 X^T||_F^2 = trace((X^T X)^-1) = sum_i 1/lam_i
        a_frob.append(math.sqrt(float(np.sum(1.0 / design.lam))))
    return thetas, designs, etas, rhos, a_frob


def verify_bounds(config: ChainConfig) -> BoundCheck:
    """Refine along a synthetic chain and compare against the bound.

    Task i's targets are X_i theta_i, and each task starts from its
    predecessor's refined parameters, as a stack of columns. Noiseless mode
    is one column with zero noise: the root is refined from zeros, and the
    leaf error is checked against the noiseless path bound. Noisy mode has
    one column per draw: the root is pinned at its true optimum (so the
    bound's initial term vanishes exactly), every other task's targets get
    Gaussian noise, and the Monte-Carlo mean of the leaf errors is checked
    against the expected-error bound plus two standard errors. A spacing
    whose targets or edge lengths overflow raises ConfigError.
    """
    m = config.length
    b = config.budget_per_node
    with np.errstate(over="ignore", invalid="ignore"):
        thetas, designs, etas, rhos, a_frob = _build_chain(config)
        deltas = [float(np.linalg.norm(v - u)) for u, v in zip(thetas, thetas[1:])]
        targets = [design.X @ theta for design, theta in zip(designs, thetas)]
    for i, y in enumerate(targets):
        if not (np.isfinite(y).all() and (i == 0 or math.isfinite(deltas[i - 1]))):
            raise ConfigError(
                f"spacing {config.spacing!r} is too large: chain task {i}'s targets "
                "or edge length are not finite"
            )

    noisy = config.noise_sigma > 0.0
    draws = config.noise_draws if noisy else 1
    shape = (draws, m + 1, config.n)
    if noisy:
        # column k of each stack is draw k; the root's noise row is drawn (to
        # keep the stream's order) but never used
        noise = config.noise_sigma * substream(config.seed, "noise").standard_normal(shape)
        theta = np.repeat(thetas[0][:, None], draws, axis=1)
    else:
        noise = np.zeros(shape)
        root_b = config.root_budget if config.root_budget is not None else b
        theta = refine(np.zeros((config.dim, 1)), designs[0], targets[0][:, None],
                       root_b, etas[0])
    init_error = float(np.linalg.norm(theta[:, 0] - thetas[0]))
    for i in range(1, m + 1):
        y = targets[i][:, None] + noise[:, i, :].T
        theta = refine(theta, designs[i], y, b, etas[i])
    # each column's own 1-d norm, which np.linalg.norm computes as sqrt(e . e)
    errors = np.array([math.sqrt(e.dot(e)) for e in theta.T - thetas[m]])
    empirical = float(errors.mean())
    mc_stderr = float(errors.std(ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0

    path = PathSpec(rhos[1:], [b] * m, deltas, init_error=init_error)
    if noisy:
        bound = noisy_path_bound(NoisySpec(path, [config.noise_sigma] * m, a_frob[1:]))
        slack = 2.0 * mc_stderr
    else:  # not noisy_path_bound, whose NoisySpec rejects an infinite a_frob
        bound, slack = path_bound(path), 1e-9
    return BoundCheck(
        config=config,
        empirical=empirical,
        bound=bound,
        satisfied=empirical <= bound + slack,
        mode="noisy" if noisy else "noiseless",
        mc_stderr=mc_stderr,
    )
