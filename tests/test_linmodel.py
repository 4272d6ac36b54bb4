import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskcascade.errors import (
    ConfigError,
    DegenerateDesignError,
    DivergenceError,
    NonFiniteGramError,
    ShapeMismatchError,
)
from taskcascade import linmodel
from taskcascade.linmodel import (
    Design,
    build_designs,
    contraction_rate,
    lambda_max,
    refine,
    ridge_solution,
    rmse,
)


def gd_loop(theta0, X, y, b, eta):
    """Reference: b literal full-batch gradient steps."""
    theta = np.array(theta0, dtype=np.float64)
    for _ in range(b):
        theta = theta - eta * (X.T @ (X @ theta - y))
    return theta


def design(kind, seed):
    """A well-conditioned, near-singular or wide (n < d) random design."""
    rng = np.random.default_rng(seed)
    n, d = (3, 6) if kind == "wide" else (20, 5)
    X = rng.standard_normal((n, d))
    if kind == "near_singular":
        X[:, 1] = X[:, 0] + 1e-6 * rng.standard_normal(n)
    return X, rng.standard_normal(n), rng.standard_normal(d)


# the regression design with X^T X = [[2, -1], [-1, 2]], eigenvalues 1 and 3;
# the all-ones start vector of power iteration is the eigenvector of 1
BALANCED_X = np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def closed_form_refine(theta0, X, y, b, eta):
    """Loop-free oracle: theta_b = M^b theta0 + (I - M^b) theta_hat."""
    d = X.shape[1]
    M = np.eye(d) - eta * (X.T @ X)
    Mb = np.linalg.matrix_power(M, b)
    theta_hat = np.linalg.solve(X.T @ X, X.T @ y)
    return Mb @ theta0 + (np.eye(d) - Mb) @ theta_hat


def power_top_eig_two_matvecs(S, tol, max_iter):
    """Reference: power iteration as it was, two matvecs and a norm per step."""
    d = S.shape[0]
    v = np.full(d, 1.0 / np.sqrt(d))
    lam = 0.0
    for _ in range(max_iter):
        w = S @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam_new = float(v @ (S @ v))
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new
        lam = lam_new
    return lam


@st.composite
def design_stacks(draw):
    """Matrices with d columns and mixed row counts: random, rank-deficient,
    wide (n < d) or zero, each at its own scale 10^+-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 12))
    Xs = []
    for kind in draw(st.lists(
        st.sampled_from(["random", "rank_deficient", "wide", "zero"]),
        min_size=1, max_size=8,
    )):
        wide = kind == "wide" and d > 1
        n = int(rng.integers(1, d) if wide else rng.integers(d, 3 * d + 5))
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        if kind == "rank_deficient":
            r = max(d // 2, 1)
            X[:, r:] = X[:, :r] @ rng.standard_normal((r, d - r))
        elif kind == "zero":
            X[:] = 0.0
        Xs.append(X)
    return Xs


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def designs_of(Xs):
    """The designs of a list of matrices of mixed shapes, in list order: one
    build_designs call per shape, on the stack of that shape's matrices."""
    by_shape = {}
    for i, X in enumerate(Xs):
        by_shape.setdefault(X.shape, []).append(i)
    designs = [None] * len(Xs)
    for index in by_shape.values():
        for i, got in zip(index, build_designs(np.stack([Xs[i] for i in index]))):
            designs[i] = got
    return designs


def spectra(Xs):
    """The stacks of X^T X and of its eigenvalues and eigenvectors."""
    G = np.stack([X.T @ X for X in Xs])
    return (G, *np.linalg.eigh(G))


class TestBuildDesigns:
    @settings(max_examples=150, deadline=None)
    @given(Xs=design_stacks())
    def test_stack_equals_one_eigh_per_matrix(self, Xs):
        designs = designs_of(Xs)
        assert len(designs) == len(Xs)
        for X, got in zip(Xs, designs):
            lam, V = np.linalg.eigh(X.T @ X)
            assert isinstance(got, Design)
            assert same_bits(got.X, X)
            assert same_bits(got.lam, lam) and same_bits(got.V, V)

    @settings(max_examples=100, deadline=None)
    @given(Xs=design_stacks(), b=st.integers(1, 500), k=st.integers(1, 4),
           scale=st.floats(0.1, 1.9))
    def test_a_design_gives_the_bits_of_its_array(self, Xs, b, k, scale):
        rng = np.random.default_rng(b)
        # Longer than one chunk of the power estimate, with every matrix at
        # several places in it, so that each must get the bits it gets alone.
        Xs = Xs * (linmodel._POWER_CHUNK // len(Xs) + 1)
        for X, design in zip(Xs, designs_of(Xs)):
            if not X.any():
                for arg in (X, design):
                    with pytest.raises(DegenerateDesignError):
                        lambda_max(arg)
                eta = 0.5
            else:
                assert same_bits(lambda_max(design), lambda_max(X))
                eta = scale / lambda_max(X)
            assert same_bits(contraction_rate(design, eta), contraction_rate(X, eta))
            n, d = X.shape
            theta0, y = rng.standard_normal(d), rng.standard_normal(n)
            assert same_bits(refine(theta0, design, y, b, eta), refine(theta0, X, y, b, eta))
            theta0, Y = rng.standard_normal((d, k)), rng.standard_normal((n, k))
            assert same_bits(refine(theta0, design, Y, b, eta), refine(theta0, X, Y, b, eta))

    def test_no_matrices_give_no_designs(self):
        assert build_designs(np.empty((0, 4, 2))) == []

    def test_column_counts_must_agree(self):
        # matrices of other column (or row) counts form no stack
        for Xs in ([np.ones((4, 2)), np.ones((4, 3))], [np.ones((4, 2)), np.ones((5, 2))]):
            with pytest.raises(ShapeMismatchError, match="stack"):
                build_designs(Xs)
        for X in (np.ones(4), np.ones((4, 2))):
            with pytest.raises(ShapeMismatchError, match="stack"):
                build_designs(X)

    def test_a_design_holds_a_view_of_its_row(self):
        X = np.random.default_rng(0).standard_normal((3, 5, 2))
        for row, got in zip(X, build_designs(X)):
            assert np.shares_memory(got.X, X) and same_bits(got.X, row)


class TestLambdaMax:
    def test_identity(self):
        assert lambda_max(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert lambda_max(np.diag([2.0, 1.0])) == pytest.approx(4.0)

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.standard_normal((10, 4))
            oracle = np.linalg.eigvalsh(X.T @ X).max()
            assert lambda_max(X) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="power iteration starts in the eigenspace of 1; exact lambda_max "
        "waits on re-recording benchmarks/references.json",
    )
    def test_start_vector_in_an_eigenspace(self):
        assert lambda_max(BALANCED_X) == pytest.approx(3.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateDesignError):
            lambda_max(np.zeros((4, 3)))

    @settings(max_examples=100, deadline=None)
    @given(Xs=design_stacks(), k=st.integers(-60, 60))
    def test_estimate_scales_with_the_design(self, Xs, k):
        # X * 2^k scales X^T X by 4^k exactly, and a relative stop rule stops
        # power iteration at the same step; one absolute below 1 did not
        for X in Xs:
            if not X.any():
                continue
            want = 4.0**k * lambda_max(X)
            assert abs(lambda_max(np.ldexp(X, k)) - want) <= 1e-12 * want

    @settings(max_examples=150, deadline=None)
    @given(Xs=design_stacks())
    def test_rejected_as_zero_exactly_when_the_gram_matrix_is(self, Xs):
        # the "zero" kind included; a design keeps only X^T X's spectrum
        for X, design in zip(Xs, designs_of(Xs)):
            try:
                lambda_max(design)
                zero = False
            except DegenerateDesignError as exc:
                zero = "X^T X is the zero matrix" in str(exc)
            assert zero == (not np.any(X.T @ X))

    def test_gram_matrix_that_underflows_is_zero(self):
        # X^T X of entries 1e-200 underflows to exact zeros, and so does its
        # spectrum
        with pytest.raises(DegenerateDesignError, match="X\\^T X is the zero matrix"):
            lambda_max(np.full((4, 3), 1e-200))

    @settings(max_examples=200, deadline=None)
    @given(Xs=design_stacks(), max_iter=st.sampled_from([1, 2, 10]))
    def test_closed_form_equals_the_loop_at_a_fixed_step_count(self, Xs, max_iter):
        # tol = 0 runs the loop for max_iter steps (or to an exact repeat)
        G, lam, V = spectra(Xs)
        got = linmodel._power_estimates(G, lam, V, 0.0, max_iter)
        for S, estimate in zip(G, got):
            want = power_top_eig_two_matvecs(S, 0.0, max_iter)
            assert abs(estimate - want) <= 1e-12 * abs(want)

    @settings(max_examples=200, deadline=None)
    @given(Xs=design_stacks())
    def test_closed_form_stops_where_the_loop_does(self, Xs):
        # Both sequences change by at most tol near the stop, so a stop
        # one step apart moves the estimate by less than tol, relatively.
        tol, max_iter = linmodel._POWER_TOL, linmodel._POWER_MAX_ITER
        G, lam, V = spectra(Xs)
        got = linmodel._power_estimates(G, lam, V, tol, max_iter)
        for S, estimate in zip(G, got):
            want = power_top_eig_two_matvecs(S, tol, max_iter)
            assert abs(estimate - want) <= 2 * tol * abs(want)

    @settings(max_examples=200, deadline=None)
    @given(Xs=design_stacks())
    def test_estimate_never_exceeds_the_top_eigenvalue(self, Xs):
        tol, max_iter = linmodel._POWER_TOL, linmodel._POWER_MAX_ITER
        G, lam, V = spectra(Xs)
        got = linmodel._power_estimates(G, lam, V, tol, max_iter)
        for S, estimate in zip(G, got):
            assert estimate <= np.linalg.eigvalsh(S)[-1] * (1 + 1e-12)

    def test_zero_direction_stops_at_zero(self):
        # the start vector is in the kernel: both loops return 0 at once,
        # which lambda_max rejects
        X = np.array([[1.0, -1.0]])
        assert linmodel._power_estimates(*spectra([X]), 1e-10, 10).tolist() == [0.0]
        assert power_top_eig_two_matvecs(X.T @ X, 1e-10, 10) == 0.0
        with pytest.raises(DegenerateDesignError, match="estimate of lambda_max is 0.0"):
            lambda_max(X)

    def test_subnormal_gram_matrix_is_rejected(self):
        # X^T X of entries 1e-160 is subnormal: its estimate is positive and
        # finite, but the step size 1/lambda_max overflows
        X = np.full((6, 3), 1e-160)
        assert 0.0 < build_designs([X])[0].lam_est < 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDesignError,
                               match="estimate of lambda_max is .*e-319, not a positive"):
                lambda_max(X)

    def test_overflowing_gram_matrix_is_rejected_before_eigh(self):
        rng = np.random.default_rng(3)
        Xs = [rng.standard_normal((4, 2)), np.full((4, 2), 1e200),
              rng.standard_normal((4, 2))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and the overflow warns nothing
            with pytest.raises(NonFiniteGramError, match="not finite") as info:
                build_designs(Xs)
            assert info.value.index == 1
            with pytest.raises(DegenerateDesignError, match="not finite"):
                lambda_max(Xs[1])


class TestDefaultStepSize:
    def test_identity(self):
        assert 1.0 / lambda_max(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert 1.0 / lambda_max(np.diag([2.0, 1.0])) == pytest.approx(0.25)

    def test_yields_contraction(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X = rng.standard_normal((12, 5))
            assert contraction_rate(X, 1.0 / lambda_max(X)) < 1.0


class TestRefine:
    def test_one_explicit_step(self):
        theta = refine(np.zeros(2), np.eye(2), np.array([1.0, 1.0]), 1, 0.5)
        assert np.allclose(theta, [0.5, 0.5])

    def test_two_steps(self):
        theta = refine(np.zeros(2), np.eye(2), np.array([1.0, 1.0]), 2, 0.5)
        assert np.allclose(theta, [0.75, 0.75])

    def test_zero_budget_returns_input_unchanged(self):
        theta0 = np.array([3.0, -1.0])
        out = refine(theta0, np.eye(2), np.array([1.0, 1.0]), 0, 0.5)
        assert np.array_equal(out, theta0)
        assert out is not theta0

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = rng.standard_normal((20, 6))
            y = rng.standard_normal(20)
            theta0 = rng.standard_normal(6)
            eta = 1.0 / lambda_max(X)
            got = refine(theta0, X, y, 50, eta)
            want = closed_form_refine(theta0, X, y, 50, eta)
            assert np.linalg.norm(got - want) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            refine(np.zeros(3), np.eye(2), np.array([1.0, 1.0]), 1, 0.5)

    def test_divergent_step_size_raises(self):
        X = np.eye(2) * 3.0
        with pytest.raises(DivergenceError):
            refine(np.ones(2), X, np.zeros(2), 200, 1.0)  # eta far above 2/9

    def test_divergence_needs_a_step_past_two_over_lambda_max(self):
        X = np.eye(2) * 3.0  # lambda_max = 9
        with pytest.raises(DivergenceError):
            refine(np.ones(2), X, np.zeros(2), 1, 2.0 / 9.0 * (1 + 1e-9))
        assert np.isfinite(refine(np.ones(2), X, np.zeros(2), 1000, 2.0 / 9.0)).all()
        assert np.array_equal(refine(np.ones(2), X, np.zeros(2), 0, 1.0), np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["well_conditioned", "near_singular", "wide"]),
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(1, 2000),
        scale=st.floats(0.1, 1.9),
    )
    def test_equals_gradient_descent_loop(self, kind, seed, b, scale):
        X, y, theta0 = design(kind, seed)
        eta = scale / np.linalg.eigvalsh(X.T @ X).max()
        want = gd_loop(theta0, X, y, b, eta)
        got = refine(theta0, X, y, b, eta)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_equals_gradient_descent_loop_at_large_budget(self):
        X, y, theta0 = design("near_singular", 3)
        eta = 1.0 / lambda_max(X)
        want = gd_loop(theta0, X, y, 50_000, eta)
        got = refine(theta0, X, y, 50_000, eta)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_negative_budget_is_a_config_error(self):
        with pytest.raises(ConfigError, match="budget must be nonnegative, got -1"):
            refine(np.zeros(2), np.eye(2), np.ones(2), -1, 0.5)

    def test_solution_that_overflows_is_degenerate_not_divergent(self):
        # eta * lambda_max is 1, so nothing diverges, but X^T y / lam, about
        # 1e450, does not fit in a float
        X = np.random.default_rng(0).standard_normal((8, 3)) * 1e-150
        y = np.random.default_rng(1).standard_normal(8) * 1e300
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DegenerateDesignError, match="least-squares solution overflows"):
            refine(np.zeros(3), X, y, 10, 1.0 / lambda_max(X))

    def test_rank_deficient_design_keeps_null_space(self):
        X, y, theta0 = design("wide", 4)  # rank 3 in 6 dimensions
        null = np.linalg.svd(X)[2][3:]  # orthonormal basis of the null space
        for b in (1, 100, 5000):
            out = refine(theta0, X, y, b, 1.0 / lambda_max(X))
            assert np.allclose(null @ out, null @ theta0, rtol=0, atol=1e-10)


class TestRefineColumnStack:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["well_conditioned", "near_singular", "wide"]),
        seed=st.integers(0, 2**32 - 1),
        b=st.integers(0, 2000),
        k=st.integers(1, 8),
        scale=st.floats(0.1, 1.0),
    )
    def test_equals_refine_per_column(self, kind, seed, b, k, scale):
        # Columns go through matrix-matrix products where a vector goes
        # through matrix-vector ones, so they may differ in the last bits.
        X, _, _ = design(kind, seed)
        rng = np.random.default_rng(seed + 1)
        theta0 = rng.standard_normal((X.shape[1], k))
        Y = rng.standard_normal((X.shape[0], k))
        eta = scale / np.linalg.eigvalsh(X.T @ X).max()
        got = refine(theta0, X, Y, b, eta)
        assert got.shape == theta0.shape
        for j in range(k):
            want = refine(theta0[:, j], X, Y[:, j], b, eta)
            assert np.max(np.abs(got[:, j] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_budget_returns_a_copy_of_the_stack(self):
        theta0 = np.arange(6.0).reshape(2, 3)
        out = refine(theta0, np.eye(2), np.ones((2, 3)), 0, 0.5)
        assert np.array_equal(out, theta0)
        assert out is not theta0

    @pytest.mark.parametrize("theta_shape, y_shape", [
        ((2, 3), (4,)),  # a stack of starting points needs a stack of targets
        ((2,), (4, 3)),
        ((2, 3), (4, 2)),
        ((3, 3), (4, 3)),
        ((2, 3), (5, 3)),
        ((2, 3, 1), (4, 3, 1)),
    ])
    def test_mismatched_stacks_rejected(self, theta_shape, y_shape):
        X = np.ones((4, 2))
        with pytest.raises(ShapeMismatchError):
            refine(np.zeros(theta_shape), X, np.zeros(y_shape), 1, 0.1)

    def test_divergence_and_non_finite_checks_cover_the_stack(self):
        X = np.eye(2) * 3.0  # lambda_max = 9
        with pytest.raises(DivergenceError, match="step size"):
            refine(np.ones((2, 4)), X, np.zeros((2, 4)), 1, 2.0 / 9.0 * (1 + 1e-9))
        theta0 = np.ones((2, 4))
        theta0[1, 3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="non-finite"):
            refine(theta0, X, np.zeros((2, 4)), 3, 0.1)


class TestRidge:
    def test_identity_design_lambda_zero(self):
        assert np.allclose(ridge_solution(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])

    def test_identity_design_lambda_one(self):
        got = ridge_solution(np.eye(2), np.array([3.0, 4.0]), 1.0)
        assert np.allclose(got, [1.5, 2.0])

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            X = rng.standard_normal((20, 5))
            y = rng.standard_normal(20)
            theta = ridge_solution(X, y, 0.1)
            lhs = (X.T @ X + 0.1 * np.eye(5)) @ theta
            assert np.linalg.norm(lhs - X.T @ y) < 1e-8

    def test_negative_penalty_is_a_config_error(self):
        with pytest.raises(ConfigError, match="ridge penalty must be nonnegative, got -1"):
            ridge_solution(np.eye(2), np.ones(2), -1.0)

    def test_singular_design_at_lambda_zero(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
        with pytest.raises(DegenerateDesignError):
            ridge_solution(X, np.array([1.0, 2.0, 3.0]), 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_overflowing_gram_is_rejected_without_a_warning(self, lam):
        X = np.full((4, 2), 1e200)  # X^T X overflows; X^T y does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGramError, match="X\\^T X \\+ lam I is not finite"):
                ridge_solution(X, np.ones(4), lam)

    def test_overflowing_x_t_y_is_rejected_without_a_warning(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))  # X^T X is fine; X^T y overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDesignError, match="X\\^T y is not finite"):
                ridge_solution(X, np.full(6, 1e308), 1.0)


class TestContractionRate:
    def test_identity_half_step(self):
        assert contraction_rate(np.eye(3), 0.5) == pytest.approx(0.5)

    def test_diagonal(self):
        assert contraction_rate(np.diag([2.0, 1.0]), 0.25) == pytest.approx(0.75)

    def test_start_vector_in_an_eigenspace(self):
        # eigenvalues 1 and 3 at eta = 0.6 give factors 0.4 and -0.8
        assert contraction_rate(BALANCED_X, 0.6) == pytest.approx(0.8)

    def test_rank_deficient_design_does_not_contract(self):
        X, _, _ = design("wide", 5)
        assert contraction_rate(X, 1.0 / lambda_max(X)) == pytest.approx(1.0)

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            X = rng.standard_normal((15, 4))
            eta = 1.3 / np.linalg.eigvalsh(X.T @ X).max()
            oracle = np.max(np.abs(1.0 - eta * np.linalg.eigvalsh(X.T @ X)))
            assert contraction_rate(X, eta) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("solve, problem", [
    (lambda: ridge_solution(np.ones(3), np.ones(3)), r"X must be a 2-d matrix"),
    (lambda: ridge_solution(np.ones((3, 2)), np.ones(2)),
     r"X \(3, 2\) and y \(2,\) do not agree"),
    (lambda: rmse(np.ones(2), np.ones((3, 2)), np.ones(2)),
     r"X \(3, 2\) and y \(2,\) do not agree"),
    (lambda: rmse(np.ones(2), np.ones((0, 2)), np.ones(0)),
     r"rmse needs at least one sample"),
], ids=["ridge-ndim", "ridge-rows", "rmse-rows", "rmse-empty"])
def test_operands_of_the_wrong_shape_are_rejected(solve, problem):
    with pytest.raises(ShapeMismatchError, match=f"^{problem}$"):
        solve()


class TestRmse:
    def test_exact_fit(self):
        X = np.eye(3)
        assert rmse(np.array([1.0, 2.0, 3.0]), X, np.array([1.0, 2.0, 3.0])) == 0.0

    def test_unit_residuals(self):
        X = np.eye(3)
        theta = np.zeros(3)
        assert rmse(theta, X, np.ones(3)) == pytest.approx(1.0)

    def test_matches_two_pass_recomputation(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        theta = rng.standard_normal(4)
        residuals = [float(X[i] @ theta - y[i]) for i in range(30)]
        oracle = (sum(r * r for r in residuals) / 30) ** 0.5
        assert rmse(theta, X, y) == pytest.approx(oracle, abs=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        d=st.integers(1, 8),
        log_scale=st.floats(-150.0, 150.0),
    )
    def test_bit_identical_to_numpy_mean(self, seed, n, d, log_scale):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) * 10.0**log_scale
        y = rng.standard_normal(n) * 10.0**log_scale
        theta = rng.standard_normal(d)
        r = X @ theta - y
        assert rmse(theta, X, y) == float(np.sqrt(np.mean(r * r)))


class TestContractionProperties:
    def test_geometric_error_decay(self):
        # ||refine(theta0, b) - theta_hat|| <= rho^b ||theta0 - theta_hat||
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, d = int(rng.integers(6, 30)), int(rng.integers(2, 6))
            X = rng.standard_normal((max(n, d), d))
            y = rng.standard_normal(max(n, d))
            theta0 = rng.standard_normal(d)
            eta = 1.0 / lambda_max(X)
            rho = contraction_rate(X, eta)
            theta_hat = ridge_solution(X, y, 0.0)
            gap0 = np.linalg.norm(theta0 - theta_hat)
            for b in (1, 5, 25):
                gap = np.linalg.norm(refine(theta0, X, y, b, eta) - theta_hat)
                assert gap <= rho**b * gap0 + 1e-9

    def test_fixed_point(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        theta_hat = ridge_solution(X, y, 0.0)
        eta = 1.0 / lambda_max(X)
        for b in (1, 7, 40):
            out = refine(theta_hat, X, y, b, eta)
            assert np.linalg.norm(out - theta_hat) < 1e-9

    def test_monotone_budget(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((25, 5))
        y = rng.standard_normal(25)
        eta = 1.0 / lambda_max(X)
        theta0 = rng.standard_normal(5)

        def loss(theta):
            return 0.5 * np.sum((X @ theta - y) ** 2)

        losses = [loss(refine(theta0, X, y, b, eta)) for b in range(12)]
        assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses, losses[1:]))

    def test_noiseless_convergence_to_truth(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((30, 4))
        theta_star = rng.standard_normal(4)
        y = X @ theta_star
        eta = 1.0 / lambda_max(X)
        rho = contraction_rate(X, eta)
        gap0 = np.linalg.norm(theta_star)  # start from zeros
        b = 1
        while rho**b * gap0 >= 1e-6:
            b += 1
        out = refine(np.zeros(4), X, y, b, eta)
        assert np.linalg.norm(out - theta_star) < 1e-6
