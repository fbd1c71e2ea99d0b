import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (centered_problem, dense_m, random_penalty,
                      reference_pls_fit)
from penpls import (ConfigurationError, DegenerateResponseError, FitConfig,
                    PenaltySpec, PlsFit, make_preconditioner,
                    nipals_fit, penalized_pls_fit)
from penpls.pls import _columns, _pls_loop, _primal_weights
from penpls.testkit import (closed_form_beta, cross_matrix, dense_ls_oracle,
                            krylov_basis, numerical_rank)


def penalized_instance(seed, n=30, p=2, n_basis=10, m=8):
    X, y = centered_problem(seed, n, p * n_basis)
    spec = random_penalty(seed, p, n_basis)
    M = make_preconditioner(spec)
    fit = penalized_pls_fit(X, y, M, FitConfig(m))
    return X, y, spec, M, fit


class TestNipals:
    def test_single_column_is_ls_projection(self):
        X, y = centered_problem(1, 20, 1)
        fit = nipals_fit(X, y, FitConfig(1))
        x = X[:, 0]
        expect = (x @ y) / (x @ x) * x
        np.testing.assert_allclose(X @ fit.beta, expect, atol=1e-12)

    def test_full_rank_reaches_ls_solution(self):
        X, y = centered_problem(2, 20, 5)
        fit = nipals_fit(X, y, FitConfig(5))
        expect = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.beta, expect, rtol=1e-8)

    def test_zero_response_rejected(self):
        X, _ = centered_problem(3, 10, 4)
        with pytest.raises(DegenerateResponseError):
            nipals_fit(X, np.zeros(10), FitConfig(2))

    def test_uncentered_input_rejected(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 3)) + 5.0
        y = rng.standard_normal(10)
        y -= y.mean()
        with pytest.raises(ConfigurationError):
            nipals_fit(X, y, FitConfig(2))

    def test_one_dimensional_x_rejected(self):
        X, y = centered_problem(6, 10, 1)
        M = make_preconditioner(PenaltySpec([1.0], 1, 2))
        with pytest.raises(ConfigurationError, match="2-D"):
            nipals_fit(X[:, 0], y, FitConfig(1))
        with pytest.raises(ConfigurationError, match="2-D"):
            penalized_pls_fit(X[:, 0], y, M, FitConfig(1))

    def test_early_stop_records_achieved_count(self):
        # rank-2 X cannot support more than 2 informative components
        rng = np.random.default_rng(5)
        base = rng.standard_normal((15, 2))
        X = base @ rng.standard_normal((2, 6))
        X -= X.mean(axis=0)
        y = rng.standard_normal(15)
        y -= y.mean()
        fit = nipals_fit(X, y, FitConfig(6))
        assert fit.early_stopped
        assert fit.n_components <= 2


class TestPenalizedFit:
    def test_first_weight_is_preconditioned_gradient(self):
        X, y, _, M, fit = penalized_instance(10)
        np.testing.assert_array_equal(fit.weights[:, 0], M.apply(X.T @ y))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_closed_form(self, seed):
        X, y, _, _, fit = penalized_instance(seed, n=30, p=1, n_basis=8, m=6)
        for m in range(1, fit.n_components + 1):
            beta_cf = closed_form_beta(X, y, fit.weights[:, :m])
            np.testing.assert_allclose(fit.beta_path[:, m - 1], beta_cf,
                                       rtol=1e-8)

    def test_zero_penalty_reduces_to_nipals(self):
        from penpls import PenaltySpec
        X, y = centered_problem(20, 25, 12)
        M = make_preconditioner(PenaltySpec(np.zeros(2), 2, 6))
        pen = penalized_pls_fit(X, y, M, FitConfig(6))
        plain = nipals_fit(X, y, FitConfig(6))
        for a, b in [(pen.weights, plain.weights),
                     (pen.components, plain.components),
                     (pen.beta_path, plain.beta_path)]:
            np.testing.assert_allclose(a, b, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(b)))

    @pytest.mark.parametrize("seed", range(5))
    def test_change_of_inner_product(self, seed):
        # penalized PLS on X equals plain PLS on X L with L L' = M,
        # coefficients mapped back by beta = L beta_tilde
        X, y, _, M, fit = penalized_instance(seed, m=6)
        L = np.linalg.cholesky(dense_m(M))
        plain = nipals_fit(X @ L, y, FitConfig(fit.n_components))
        mapped = L @ plain.beta_path
        np.testing.assert_allclose(fit.beta_path, mapped, rtol=1e-8,
                                   atol=1e-8 * np.max(np.abs(mapped)))

    def test_effective_weights_reproduce_components(self):
        X, _, _, _, fit = penalized_instance(30)
        T = X @ fit.effective_weights
        np.testing.assert_allclose(T, fit.components,
                                   rtol=1e-8,
                                   atol=1e-8 * np.max(np.abs(fit.components)))

    def test_components_orthogonal(self):
        _, _, _, _, fit = penalized_instance(31)
        T = fit.components
        for i in range(T.shape[1]):
            for j in range(i):
                bound = 1e-8 * np.linalg.norm(T[:, i]) * np.linalg.norm(T[:, j])
                assert abs(T[:, i] @ T[:, j]) <= bound

    def test_bidiagonal_cross_matrix(self):
        X, _, _, _, fit = penalized_instance(32)
        R = cross_matrix(fit, X)
        scale = np.max(np.abs(R))
        for i in range(R.shape[0]):
            for j in range(R.shape[1]):
                if j not in (i, i + 1):
                    assert abs(R[i, j]) <= 1e-8 * scale

    def test_monotone_training_error(self):
        X, y, _, _, fit = penalized_instance(33)
        errs = [np.linalg.norm(y - X @ fit.beta_path[:, m])
                for m in range(fit.n_components)]
        assert all(b <= a + 1e-10 for a, b in zip(errs, errs[1:]))

    def test_deflation_identity(self):
        # X_i equals X minus its projection onto the first i-1 components
        X, y, _, M, fit = penalized_instance(34, m=4)
        Xi = X.copy()
        for i in range(fit.n_components):
            T = fit.components[:, :i]
            if i:
                proj = T @ np.linalg.solve(T.T @ T, T.T @ X)
                np.testing.assert_allclose(Xi, X - proj, atol=1e-8)
            t = fit.components[:, i]
            Xi = Xi - np.outer(t, t @ Xi) / (t @ t)

    def test_krylov_span(self):
        # weight vectors span the Krylov space; checked up to the numerical
        # rank of the raw power sequence
        X, y, _, M, fit = penalized_instance(35, m=5)
        b = M.apply(X.T @ y)
        basis = krylov_basis(lambda v: M.apply(X.T @ (X @ v)), b,
                             fit.n_components)
        m = numerical_rank(basis)
        assert m >= 2
        assert numerical_rank(fit.weights[:, :m]) == m
        assert numerical_rank(np.hstack([fit.weights[:, :m],
                                         basis[:, :m]])) == m

    def test_path_matches_separate_refits(self):
        # scoring the whole path of one fit agrees with refitting at each m,
        # which is how loocv scores every component count at once
        X, y = centered_problem(1, 20, 8)
        M = make_preconditioner(PenaltySpec(np.array([1.0, 5.0]), 2, 4))
        row = np.random.default_rng(1).standard_normal(8)
        full = penalized_pls_fit(X, y, M, FitConfig(5))
        scores = (1.5 - row @ full.beta_path) ** 2
        for m in range(1, full.n_components + 1):
            refit = penalized_pls_fit(X, y, M, FitConfig(m))
            np.testing.assert_array_equal(refit.beta_path,
                                          full.beta_path[:, :m])
            assert scores[m - 1] == pytest.approx(
                (1.5 - row @ refit.beta) ** 2, rel=1e-10)

    def test_ols_termination(self):
        # after d components the fit solves the unpenalized LS problem
        X, y, _, M, _ = penalized_instance(36, n=40, p=2, n_basis=5, m=10)
        fit = penalized_pls_fit(X, y, M, FitConfig(10))
        assert fit.n_components == 10
        np.testing.assert_allclose(fit.beta, dense_ls_oracle(X, y), rtol=1e-6)


FIELDS = ("weights", "effective_weights", "components", "beta_path")


def low_rank_problem(seed, n, d, rank):
    """Centered (X, y) with X of rank at most ``rank``, so fits stop early."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    X -= X.mean(axis=0)
    y = rng.standard_normal(n)
    y -= y.mean()
    return X, y


def stacked_fits(X, y, M, cfg):
    """One fit of (X, y) per d-sized block of M, all in one ``_pls_loop``
    pass on the shared X through the primal weight step."""
    n_fits = M.dim // X.shape[1]
    W, Wt, T, B, _, count = _pls_loop(X, y, cfg, _primal_weights(X, M),
                                      n_fits)
    return [PlsFit(*(_columns(a[l], k) for a in (W, Wt, T, B)),
                   requested_components=cfg.n_components)
            for l, k in enumerate(count)]


def stacked_and_lone(X, y, lambdas, p, n_basis, cfg, order=2):
    """The stacked fits of ``lambdas`` and the reference fit of each alone."""
    M = make_preconditioner(PenaltySpec(np.repeat(lambdas, p), order,
                                        n_basis))
    lone = [reference_pls_fit(X, y, make_preconditioner(
        PenaltySpec.shared(lam, p, n_basis, order)), cfg) for lam in lambdas]
    return stacked_fits(X, y, M, cfg), lone


def assert_fits_equal(got, expect):
    assert got.requested_components == expect.requested_components
    for name in FIELDS:
        a, b = getattr(got, name), getattr(expect, name)
        np.testing.assert_array_equal(a, b, err_msg=name)
        assert a.flags.c_contiguous == b.flags.c_contiguous, name


class TestStackedFits:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.integers(1, 3),
           st.integers(3, 10), st.integers(1, 30),
           st.lists(st.sampled_from([0.0, 1e-2, 1.0, 1e3, 1e6]),
                    min_size=1, max_size=6),
           st.integers(1, 14), st.floats(0, 8))
    def test_every_slice_matches_a_lone_fit(self, seed, n, p, n_basis, rank,
                                            lambdas, m, log_scale):
        # a large X makes a stopped fit that kept its residual overflow
        X, y = low_rank_problem(seed, n, p * n_basis, rank)
        X *= 10.0 ** log_scale
        cfg = FitConfig(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                fits, lone = stacked_and_lone(X, y, lambdas, p, n_basis, cfg)
            except DegenerateResponseError:
                # only when some lambda alone extracts nothing
                with pytest.raises(DegenerateResponseError):
                    for lam in lambdas:
                        reference_pls_fit(X, y, make_preconditioner(
                            PenaltySpec.shared(lam, p, n_basis)), cfg)
                return
        for got, expect in zip(fits, lone, strict=True):
            assert_fits_equal(got, expect)

    def test_slices_stopping_at_different_steps(self):
        # a huge lambda leaves M near the 4-dimensional null space of the
        # penalty, so that fit stops before the rank of X
        X, y = low_rank_problem(7, 12, 16, 8)
        lambdas = [0.0, 1.0, 1e12, 1.0]
        cfg = FitConfig(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fits, lone = stacked_and_lone(X, y, lambdas, 2, 8, cfg)
        assert len({f.n_components for f in fits}) > 1
        assert all(f.early_stopped for f in fits)
        for got, expect in zip(fits, lone, strict=True):
            assert_fits_equal(got, expect)

    def test_score_inside_the_earlier_scores_span_stops(self):
        # y almost orthogonal to the columns of a rank-3 X: the fourth score
        # is rounding noise, far above the score-norm threshold but inside
        # the span of the first three, so the Gram threshold stops each fit
        X, y = low_rank_problem(0, 12, 8, 3)
        Q, _ = np.linalg.qr(X)
        y_col = Q @ (Q.T @ y)
        y = y - y_col + 1e-8 * y_col
        fits, lone = stacked_and_lone(X, y, [0.0, 1.0], 2, 4, FitConfig(6))
        assert [f.n_components for f in fits] == [3, 3]
        for got, expect in zip(fits, lone, strict=True):
            assert_fits_equal(got, expect)

    def test_one_fit_matches_reference(self):
        X, y, _, M, fit = penalized_instance(60)
        assert_fits_equal(fit, reference_pls_fit(X, y, M, FitConfig(8)))
        plain = nipals_fit(X, y, FitConfig(8))
        assert_fits_equal(plain, reference_pls_fit(X, y, None, FitConfig(8)))

    @pytest.mark.parametrize("d,p", [(2, 2), (1, 4), (3, 7), (0, 2), (8, 1),
                                     (8, 3), (8, 5), (12, 2), (8, 4), (4, 1),
                                     (4, 2)])
    def test_preconditioner_size_must_be_n_fits_times_d(self, d, p):
        # a public fit is one fit (n_fits = 1): M of dimension 4p is
        # accepted only when 4p == d; a whole multiple of d (2d, 4d, 16d)
        # is refused like any other size
        X, y = centered_problem(61, 10, d)
        M = make_preconditioner(PenaltySpec.shared(1.0, p, 4))
        if 4 * p == d:
            fit = penalized_pls_fit(X, y, M, FitConfig(3))
            assert fit.weights.shape[0] == d
            return
        with pytest.raises(ConfigurationError,
                           match=f"{d} columns, preconditioner expects"):
            penalized_pls_fit(X, y, M, FitConfig(3))

    def test_inputs_not_written(self):
        X, y = low_rank_problem(62, 15, 12, 5)
        X_before, y_before = X.copy(), y.copy()
        M = make_preconditioner(PenaltySpec(np.repeat([0.0, 1.0, 1e3], 3),
                                            2, 4))
        stacked_fits(X, y, M, FitConfig(10))
        np.testing.assert_array_equal(X, X_before)
        np.testing.assert_array_equal(y, y_before)

    def test_fits_that_extract_nothing_raise(self):
        # X'y is exactly zero, so every weight vector and score is zero
        X = np.array([[1.0, 2.0], [1.0, 2.0], [-1.0, -2.0], [-1.0, -2.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        M = make_preconditioner(PenaltySpec([0.0, 5.0], 1, 2))
        with pytest.raises(DegenerateResponseError, match="no component"):
            stacked_fits(X, y, M, FitConfig(3))
        with pytest.raises(DegenerateResponseError, match="zero"):
            stacked_fits(X, np.zeros(4), M, FitConfig(3))


class TestClosedForm:
    def test_single_component_scalar_case(self):
        X, y = centered_problem(40, 20, 6)
        w = np.random.default_rng(40).standard_normal(6)
        Xw = X @ w
        expect = ((w @ (X.T @ y)) / (Xw @ Xw)) * w
        np.testing.assert_allclose(closed_form_beta(X, y, w[:, None]), expect,
                                   rtol=1e-12)

    def test_orthonormal_selection(self):
        rng = np.random.default_rng(41)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 6)))
        Q -= Q.mean(axis=0)
        Q, _ = np.linalg.qr(Q)  # re-orthonormalize after centering
        y = rng.standard_normal(30)
        y -= y.mean()
        W = np.eye(6)[:, :3]
        beta = closed_form_beta(Q, y, W)
        expect = np.zeros(6)
        expect[:3] = (Q.T @ y)[:3]
        np.testing.assert_allclose(beta, expect, atol=1e-10)

    def test_rank_deficient_weights(self):
        X, y = centered_problem(42, 20, 5)
        w = np.random.default_rng(42).standard_normal(5)
        W = np.column_stack([w, 2.0 * w])  # rank 1
        beta = closed_form_beta(X, y, W)
        expect = closed_form_beta(X, y, w[:, None])
        np.testing.assert_allclose(beta, expect, rtol=1e-8)


class TestFittedValues:
    def test_equals_projection_onto_components(self):
        X, y, _, _, fit = penalized_instance(50, m=4)
        T = fit.components
        proj = T @ np.linalg.solve(T.T @ T, T.T @ y)
        np.testing.assert_allclose(X @ fit.beta, proj, rtol=1e-8)

    def test_residual_orthogonal_to_components(self):
        X, y, _, _, fit = penalized_instance(51, m=4)
        resid = y - X @ fit.beta
        for i in range(fit.n_components):
            t = fit.components[:, i]
            assert abs(resid @ t) <= 1e-8 * np.linalg.norm(t) * np.linalg.norm(y)

    def test_exact_fit_after_one_component_when_y_in_span(self):
        # rank-one X forces t_1 onto the single column direction, so a
        # response along that direction is fit exactly in one step
        rng = np.random.default_rng(52)
        u = rng.standard_normal(20)
        u -= u.mean()
        X = np.outer(u, rng.standard_normal(5))
        fit = nipals_fit(X, u, FitConfig(1))
        np.testing.assert_allclose(X @ fit.beta, u, rtol=1e-8)
