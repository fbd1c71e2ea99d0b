import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import centered_problem, random_penalty
from penpls import (DataError, DegenerateResponseError, FitConfig,
                    InvalidKernelError, PenaltySpec, gram_matrix,
                    kernel_penalized_pls_fit, make_preconditioner,
                    penalized_pls_fit)
from penpls.testkit import krylov_basis, numerical_rank


def dual_instance(seed, n=25, p=2, n_basis=10, m=6):
    X, y = centered_problem(seed, n, p * n_basis)
    M = make_preconditioner(random_penalty(seed, p, n_basis))
    K = gram_matrix(X, M)
    return X, y, M, K, m


class TestGramMatrix:
    def test_identity_preconditioner(self):
        from penpls import PenaltySpec
        X, _ = centered_problem(1, 8, 6)
        M = make_preconditioner(PenaltySpec(np.zeros(2), 2, 3))
        np.testing.assert_allclose(gram_matrix(X, M), X @ X.T, atol=1e-12)

    def test_single_row_nonnegative(self):
        X, _, M, K, _ = dual_instance(2, n=25)
        K1 = gram_matrix(X[:1], M)
        assert K1.shape == (1, 1)
        assert K1[0, 0] >= 0.0

    def test_entries_match_preconditioner_application(self):
        rng = np.random.default_rng(3)
        from penpls import PenaltySpec
        X = rng.standard_normal((5, 3))
        M = make_preconditioner(PenaltySpec(np.array([2.0]), 1, 3))
        K = gram_matrix(X, M)
        for i in range(5):
            for j in range(5):
                assert K[i, j] == pytest.approx(X[i] @ M.apply(X[j]),
                                                abs=1e-12)

    def test_symmetric_psd(self):
        _, _, _, K, _ = dual_instance(4)
        np.testing.assert_allclose(K, K.T, atol=1e-10)
        assert np.linalg.eigvalsh(K)[0] >= -1e-10 * np.max(np.abs(K))

    @pytest.mark.parametrize("lambdas", [
        [0.0], [1e-2], [1.0], [1e3], [1e6], [1e10], [1.0] * 3,
        [0.0, 1e-2, 1.0, 1e3, 1e6, 1e10]])
    def test_exactly_symmetric_and_equal_to_the_product(self, lambdas):
        # Y Y' is one symmetric rank-k update: symmetric bit for bit, and
        # X M X' to rounding, one block or several
        X, _ = centered_problem(6, 40, 9 * len(lambdas))
        M = make_preconditioner(PenaltySpec(np.array(lambdas), 2, 9))
        K = gram_matrix(X, M)
        assert np.array_equal(K, K.T)
        ref = X @ M.apply(X.T)
        assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_rejected(self, bad):
        X, _, M, _, _ = dual_instance(5)
        X[2, 3] = bad
        with pytest.raises(DataError, match="non-finite"):
            gram_matrix(X, M)


class TestKernelFit:
    @pytest.mark.parametrize("seed", range(5))
    def test_fitted_values_match_primal(self, seed):
        X, y, M, K, m = dual_instance(seed)
        primal = penalized_pls_fit(X, y, M, FitConfig(m))
        dual = kernel_penalized_pls_fit(K, y, m)
        assert dual.n_components == primal.n_components
        primal_fitted = X @ primal.beta_path
        np.testing.assert_allclose(
            dual.fitted_path, primal_fitted,
            atol=1e-8 * np.linalg.norm(y))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1), st.integers(1, 3),
           st.integers(4, 30), st.integers(1, 10),
           st.lists(st.floats(-2, 6), min_size=3, max_size=3))
    def test_fitted_values_match_primal_on_random_wide_designs(
            self, data, seed, p, n_basis, m, log_lambdas):
        # a tenth of criterion 3's tolerance on any design with more columns
        # than rows, up to Krylov exhaustion (m >= n - 1) and lambda = 1e6;
        # the dual runs the primal's loop, so it stops where the primal does
        d = p * n_basis
        n = data.draw(st.integers(3, min(40, d - 1)))
        X, y = centered_problem(seed, n, d)
        M = make_preconditioner(PenaltySpec(10.0 ** np.array(log_lambdas[:p]),
                                            2, n_basis))
        primal = penalized_pls_fit(X, y, M, FitConfig(m))
        dual = kernel_penalized_pls_fit(gram_matrix(X, M), y, m)
        assert dual.n_components == primal.n_components
        assert np.linalg.norm(X @ primal.beta - dual.fitted) <= \
            1e-9 * np.linalg.norm(y)

    def test_primal_recovery_of_coefficients(self):
        X, y, M, K, m = dual_instance(10)
        primal = penalized_pls_fit(X, y, M, FitConfig(m))
        dual = kernel_penalized_pls_fit(K, y, m)
        beta = M.apply(X.T @ dual.alpha)
        np.testing.assert_allclose(beta, primal.beta, rtol=1e-8)

    def test_components_match_primal(self):
        X, y, M, K, m = dual_instance(11)
        primal = penalized_pls_fit(X, y, M, FitConfig(m))
        dual = kernel_penalized_pls_fit(K, y, m)
        np.testing.assert_allclose(
            dual.components, primal.components,
            atol=1e-8 * np.max(np.abs(primal.components)))

    def test_rank_one_kernel_aligned_with_y(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(15)
        y -= y.mean()
        K = np.outer(y, y)
        fit = kernel_penalized_pls_fit(K, y, 1)
        np.testing.assert_allclose(fit.fitted, y, rtol=1e-10)

    def test_alpha_path_in_krylov_space(self):
        _, y, _, K, m = dual_instance(13)
        fit = kernel_penalized_pls_fit(K, y, 4)
        basis = krylov_basis(lambda v: K @ v, y, fit.n_components)
        r = numerical_rank(basis)
        joint = np.hstack([fit.alpha_path[:, :r], basis[:, :r]])
        assert numerical_rank(joint) == r

    def test_wide_problem_p_times_k_exceeds_n(self):
        X, y, M, K, m = dual_instance(14, n=25, p=3, n_basis=20)
        primal = penalized_pls_fit(X, y, M, FitConfig(m))
        dual = kernel_penalized_pls_fit(K, y, m)
        np.testing.assert_allclose(
            dual.fitted_path, X @ primal.beta_path,
            atol=1e-8 * np.linalg.norm(y))

    def test_non_psd_kernel_rejected(self):
        K = np.diag([1.0, -1.0, 2.0])
        y = np.array([1.0, -2.0, 1.0])
        with pytest.raises(InvalidKernelError):
            kernel_penalized_pls_fit(K, y, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_rejected(self, bad):
        _, y, _, K, m = dual_instance(17)
        K[3, 5] = K[5, 3] = bad
        with pytest.raises(InvalidKernelError, match="non-finite"):
            kernel_penalized_pls_fit(K, y, m)

    def test_asymmetric_kernel_rejected(self):
        K = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidKernelError):
            kernel_penalized_pls_fit(K, np.array([1.0, -1.0]), 1)

    def test_zero_response_rejected(self):
        _, _, _, K, m = dual_instance(16)
        with pytest.raises(DegenerateResponseError, match="identically zero"):
            kernel_penalized_pls_fit(K, np.zeros(K.shape[0]), m)

    def test_zero_residual_early_stop(self):
        rng = np.random.default_rng(15)
        y = rng.standard_normal(10)
        y -= y.mean()
        K = np.outer(y, y)  # one component fits exactly
        fit = kernel_penalized_pls_fit(K, y, 5)
        assert fit.n_components == 1

    def test_alpha_path_sums_from_positive_zero(self):
        # the first dual weight is the response itself, so a -0.0 in y
        # makes a first term of -0.0; the path is a running sum that
        # starts from +0.0, so that entry of alpha reads +0.0
        rng = np.random.default_rng(17)
        X = rng.standard_normal((5, 3))
        X -= X.mean(axis=0)
        y = np.array([1.0, -1.0, -0.0, 2.0, -2.0])
        fit = kernel_penalized_pls_fit(X @ X.T, y, 2)
        assert fit.alpha_path[2, 0] == 0.0
        assert not np.signbit(fit.alpha_path[2, 0])
