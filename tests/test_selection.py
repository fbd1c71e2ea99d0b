import numpy as np
import pytest

from conftest import explicit_folds, reference_pls_fit
from penpls import (BasisExpansion, ConfigurationError, DataError,
                    DegenerateVariableError, FitConfig, PenaltySpec, fit_gam,
                    loocv, make_basis, make_preconditioner, predict,
                    score_path, selection, transform)
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


def reference_loocv(X, y, lambdas, max_components, n_basis):
    """Mean LOO errors and early-stop counts from one fit per (fold, lambda)."""
    n, p = X.shape
    errors = np.zeros((len(lambdas), max_components))
    early_stops = np.zeros(len(lambdas), dtype=int)
    for i in range(n):
        keep = np.arange(n) != i
        expansion = BasisExpansion([make_basis(X[keep, j], n_basis, 3)
                                    for j in range(p)])
        Z = transform(X[keep], expansion)
        z_means = Z.mean(axis=0)
        y_mean = y[keep].mean()
        z_held = transform(X[i:i + 1], expansion)[0] - z_means
        for li, lam in enumerate(lambdas):
            M = make_preconditioner(PenaltySpec.shared(lam, p, n_basis))
            fit = reference_pls_fit(Z - z_means, y[keep] - y_mean, M,
                                    FitConfig(max_components))
            err = (y[i] - y_mean - z_held @ fit.beta_path) ** 2
            early_stops[li] += fit.early_stopped
            errors[li] += np.pad(err, (0, max_components - err.size),
                                 mode="edge")
    return errors / n, early_stops


class TestLoocv:
    def test_matches_per_fold_per_lambda_loop(self):
        X, y = small_dataset(10, n=20)
        lambdas = [0.0, 1.0, 1e-2, 1.0, 1e6]
        n_basis, m = 6, 5
        grid, choice = loocv(X, y, lambdas=lambdas, max_components=m,
                             n_basis=n_basis)
        errors, early_stops = reference_loocv(X, y, lambdas, m, n_basis)
        np.testing.assert_array_equal(grid.errors, errors)
        np.testing.assert_array_equal(grid.early_stops, early_stops)
        assert choice.loo_error == errors.min()

    def test_one_pass_per_fold_within_budget(self, monkeypatch):
        X, y = small_dataset(11, n=10)
        calls = []
        real = selection.penalized_pls_fits

        def counted(*a):
            fits = real(*a)
            calls.append(len(fits))
            return fits

        monkeypatch.setattr(selection, "penalized_pls_fits", counted)
        loocv(X, y, lambdas=[0.1, 1.0, 10.0], max_components=2, n_basis=5)
        assert calls == [3] * 10

    def test_early_stops_counted(self):
        # 7 training rows of a 10-column expansion: at most 6 components
        X, y = small_dataset(12, n=8)
        grid, _ = loocv(X, y, lambdas=[0.0, 1.0, 1e4], max_components=8,
                        n_basis=5)
        errors, early_stops = reference_loocv(X, y, [0.0, 1.0, 1e4], 8, 5)
        np.testing.assert_array_equal(grid.early_stops, early_stops)
        np.testing.assert_array_equal(grid.errors, errors)
        assert grid.early_stops.tolist() == [8, 8, 8]
        grid, _ = loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)
        assert grid.early_stops.tolist() == [0]

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

    def test_negative_lambda_rejected(self):
        X, y = small_dataset(7)
        with pytest.raises(ConfigurationError, match="nonnegative"):
            loocv(X, y, lambdas=[1.0, -1.0], max_components=2, n_basis=5)

    def test_chosen_cell_matches_explicit_folds(self):
        # the benchmark's loocv check, on every cell: n explicit fit_gam +
        # predict folds, scored on the response's own scale
        X, y = small_dataset(13, n=12)
        grid, choice = loocv(X, y, lambdas=[0.5, 50.0], max_components=3,
                             n_basis=5)
        errors, _ = explicit_folds(X, y, [0.5, 50.0], 3, 5)
        np.testing.assert_allclose(grid.errors, errors, rtol=1e-10)
        assert choice.loo_error == pytest.approx(errors.min(), rel=1e-10)

    def test_huge_response_keeps_the_choice(self):
        # squared errors of y * 1e154 are near 1e308: accumulated on the
        # response's own scale they overflowed to inf in every cell
        X, y, _ = gen_additive(SyntheticSpec(0, 25, 2, 0.2, ("sine", "linear")))
        kw = dict(lambdas=[1.0, 10.0], max_components=3)
        grid, choice = loocv(X, y, **kw)
        big_grid, big_choice = loocv(X, y * 1e154, **kw)
        assert np.all(np.isfinite(big_grid.errors))
        np.testing.assert_allclose(big_grid.errors / 1e308, grid.errors,
                                   rtol=1e-10)
        assert (big_choice.lambda_opt, big_choice.m_opt) == \
            (choice.lambda_opt, choice.m_opt)
        assert big_choice.loo_error / 1e308 == pytest.approx(
            choice.loo_error, rel=1e-10)
        np.testing.assert_array_equal(big_grid.early_stops, grid.early_stops)

    def test_constant_fold_is_intercept_only(self):
        # holding out the one nonzero response leaves an all-zero fold
        X, _ = small_dataset(14, n=8)
        y = np.zeros(8)
        y[3] = 1.0
        grid, _ = loocv(X, y, lambdas=[1.0, 10.0], max_components=3,
                        n_basis=5)
        assert np.all(np.isfinite(grid.errors))
        errors, early_stops = explicit_folds(X, y, [1.0, 10.0], 3, 5)
        np.testing.assert_allclose(grid.errors, errors, rtol=1e-10)
        np.testing.assert_array_equal(grid.early_stops, early_stops)
        assert np.all(grid.early_stops >= 1)

    def test_near_constant_fold_is_intercept_only(self):
        # the fold holding out row 5 is 0.1 up to rounding (0.3 - 0.2 is
        # not 0.1), so its centered response is rounding noise
        X, _ = small_dataset(15, n=8)
        y = np.full(8, 0.1)
        y[::2] = 0.3 - 0.2
        y[5] = 0.7
        grid, _ = loocv(X, y, lambdas=[1.0, 10.0], max_components=3,
                        n_basis=5)
        errors, early_stops = explicit_folds(X, y, [1.0, 10.0], 3, 5)
        np.testing.assert_allclose(grid.errors, errors, rtol=1e-10)
        np.testing.assert_array_equal(grid.early_stops, early_stops)
        assert np.all(grid.early_stops >= 1)
