import numpy as np
import pytest

from penpls import (ConfigurationError, DataError, DegenerateVariableError,
                    PenaltySpec, fit_gam, loocv, predict, score_path)
from penpls.testkit import SyntheticSpec, gen_additive


def small_dataset(seed=0, n=15, p=2):
    X, y, _ = gen_additive(SyntheticSpec(seed, n, p, 0.3, ("sine", "linear")))
    return X, y


class TestScorePath:
    def test_single_step_path(self):
        path = np.array([[1.0], [2.0]])
        err = score_path(path, np.array([1.0, 1.0]), 5.0)
        np.testing.assert_allclose(err, [(5.0 - 3.0) ** 2])

    def test_exact_fit_tail_is_zero(self):
        row = np.array([1.0, -1.0])
        path = np.column_stack([[0.5, 0.0], [1.0, -1.0], [1.0, -1.0]])
        err = score_path(path, row, 2.0)
        np.testing.assert_allclose(err, [2.25, 0.0, 0.0])

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError):
            score_path(np.empty((3, 0)), np.zeros(3), 0.0)

    def test_matches_separate_refits(self):
        # scoring the whole path in one fit agrees with refitting at each m
        from penpls import FitConfig, make_preconditioner, penalized_pls_fit
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 8))
        X -= X.mean(axis=0)
        y = rng.standard_normal(20)
        y -= y.mean()
        M = make_preconditioner(PenaltySpec(np.array([1.0, 5.0]), 2, 4))
        row = rng.standard_normal(8)
        full = penalized_pls_fit(X, y, M, FitConfig(5))
        scores = score_path(full.beta_path, row, 1.5)
        for m in range(1, full.n_components + 1):
            refit = penalized_pls_fit(X, y, M, FitConfig(m))
            expect = (1.5 - row @ refit.beta) ** 2
            assert scores[m - 1] == pytest.approx(expect, rel=1e-10)


class TestLoocv:
    def test_hand_computed_three_fold(self):
        # n=3, one predictor, degree-1 basis with K=2, lambda=0, m=1:
        # each fold is a straight-line LS fit through the two training points
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 4.0])
        expect = []
        for i in range(3):
            keep = [j for j in range(3) if j != i]
            x_tr, y_tr = X[keep, 0], y[keep]
            slope = np.polyfit(x_tr, y_tr, 1)
            x_eval = np.clip(X[i, 0], x_tr.min(), x_tr.max())  # clamping
            expect.append((y[i] - np.polyval(slope, x_eval)) ** 2)
        grid, choice = loocv(X, y, lambdas=[0.0], max_components=1,
                             n_basis=2, degree=1, diff_order=1)
        np.testing.assert_allclose(grid.errors[0, 0], np.mean(expect),
                                   rtol=1e-10)
        assert choice.m_opt == 1 and choice.lambda_opt == 0.0

    def test_single_cell_grid(self):
        X, y = small_dataset()
        grid, choice = loocv(X, y, lambdas=[2.0], max_components=1,
                             n_basis=6, degree=3)
        assert grid.errors.shape == (1, 1)
        assert choice.lambda_opt == 2.0
        assert choice.m_opt == 1
        assert choice.loo_error == grid.errors[0, 0]

    def test_deterministic(self):
        X, y = small_dataset(3)
        g1, c1 = loocv(X, y, lambdas=[0.1, 10.0], max_components=3, n_basis=6)
        g2, c2 = loocv(X, y, lambdas=[0.1, 10.0], max_components=3, n_basis=6)
        np.testing.assert_array_equal(g1.errors, g2.errors)
        assert (c1.lambda_opt, c1.m_opt) == (c2.lambda_opt, c2.m_opt)

    def test_matches_per_fold_refit_oracle(self):
        # independent oracle: refit every fold with fit_gam (which never sees
        # the held-out response) at every m and average; this pins down both
        # the error values and the absence of leakage
        X, y = small_dataset(4, n=10)
        n = len(y)
        penalty = PenaltySpec.shared(1.0, 2, 5)
        expect = np.zeros(2)
        for i in range(n):
            keep = np.arange(n) != i
            for m in (1, 2):
                model = fit_gam(X[keep], y[keep], penalty, m)
                pred = predict(model, X[i:i + 1])[0]
                expect[m - 1] += (y[i] - pred) ** 2 / n
        grid, _ = loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)
        np.testing.assert_allclose(grid.errors[0], expect, rtol=1e-10)

    def test_duplicated_dataset_training_error(self):
        # duplicating every row leaves each fold with the held-out point in
        # training, so the chosen model's training error cannot increase
        X, y = small_dataset(5, n=8)
        Xd, yd = np.vstack([X, X]), np.concatenate([y, y])
        _, choice = loocv(Xd, yd, lambdas=[0.5, 5.0], max_components=3,
                          n_basis=5)
        penalty = PenaltySpec.shared(choice.lambda_opt, 2, 5)
        model = fit_gam(Xd, yd, penalty, choice.m_opt)
        train_mse = np.mean((yd - model.fitted) ** 2)
        assert train_mse <= choice.loo_error + 1e-10

    def test_tie_break_prefers_small_m_then_large_lambda(self):
        lambdas = np.array([1.0, 2.0])
        errors = np.array([[0.5, 0.5], [0.5, 0.7]])
        from penpls.selection import _choose
        choice = _choose(lambdas, errors)
        assert choice.m_opt == 1
        assert choice.lambda_opt == 2.0

    def test_constant_predictor_fold_aborts_with_name(self):
        X, y = small_dataset(6, n=8)
        X[:, 1] = 1.0
        with pytest.raises(DegenerateVariableError, match="column 1"):
            loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)

    @pytest.mark.parametrize("row", [0, 4])
    def test_non_finite_predictor_rejected(self, row):
        # row 0 is held out by the first fold, so it reaches the held-out
        # transform rather than the knot placement
        X, y = small_dataset(9, n=8)
        X[row, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)

    def test_non_finite_response_rejected(self):
        X, y = small_dataset(9, n=8)
        y[2] = np.inf
        with pytest.raises(DataError, match="y has non-finite"):
            loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)

    def test_row_count_mismatch_rejected(self):
        X, y = small_dataset(9, n=8)
        with pytest.raises(ConfigurationError, match="row counts"):
            loocv(X, y[:-1], lambdas=[1.0], max_components=2, n_basis=5)

    def test_empty_grid_rejected(self):
        X, y = small_dataset(7)
        with pytest.raises(ConfigurationError):
            loocv(X, y, lambdas=[], max_components=2)

    def test_normalized_response_mode_runs(self):
        X, y = small_dataset(8)
        grid, choice = loocv(X, y, lambdas=[1.0, 100.0], max_components=3,
                             n_basis=6, normalize_response=True)
        assert np.all(grid.errors >= 0)
        assert choice.loo_error == grid.errors.min()
