import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import explicit_folds, reference_pls_fit
from penpls import (BasisExpansion, ConfigurationError, DataError,
                    DegenerateVariableError, FitConfig, PenaltySpec,
                    SplineBasis, fit_gam, loocv, make_basis,
                    make_preconditioner, predict, selection, transform)
from penpls.selection import _choose, _fold_designs, _fold_knots
from penpls.testkit import SyntheticSpec, gen_additive


def small_dataset(seed=0, n=15, p=2):
    X, y, _ = gen_additive(SyntheticSpec(seed, n, p, 0.3, ("sine", "linear")))
    return X, y


def bits(a):
    """A float array's bit patterns, so that equality is bit for bit."""
    return np.asarray(a, dtype=float).view(np.int64)


def reference_loocv(X, y, lambdas, max_components, n_basis):
    """Mean LOO errors and early-stop counts from one fit per (fold, lambda).

    A fold whose centered response is zero to rounding predicts its mean,
    and a fold whose training rows leave a predictor fewer than two
    distinct values raises, naming the fold and the column, as ``loocv``
    does.
    """
    n, p = X.shape
    errors = np.zeros((len(lambdas), max_components))
    early_stops = np.zeros(len(lambdas), dtype=int)
    for i in range(n):
        keep = np.arange(n) != i
        bases = []
        for j in range(p):
            try:
                bases.append(make_basis(X[keep, j], n_basis, 3))
            except DegenerateVariableError as exc:
                raise DegenerateVariableError(
                    f"fold holding out row {i}: predictor column {j}: {exc}")
        expansion = BasisExpansion(bases)
        Z = transform(X[keep], expansion)
        z_means = Z.mean(axis=0)
        y_mean = y[keep].mean()
        if np.max(np.abs(y[keep] - y_mean)) <= 1e-14 * np.max(np.abs(y[keep])):
            errors += (y[i] - y_mean) ** 2
            early_stops += 1
            continue
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


def outcome(run):
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return run()
    except (DegenerateVariableError, ConfigurationError) as exc:
        return type(exc), str(exc)


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

    def test_one_stacked_pass_per_chunk(self, monkeypatch):
        # every live fold at every lambda runs in stacked passes of F folds,
        # F * L fits each; the fold holding out row 3 is intercept-only
        X, _ = small_dataset(11, n=10)
        y = np.zeros(10)
        y[3] = 1.0
        calls = []
        real = selection._pls_loop

        def counted(S, Y, cfg, weigh, n_fits):
            calls.append((S.shape[0], n_fits))
            return real(S, Y, cfg, weigh, n_fits)

        monkeypatch.setattr(selection, "_pls_loop", counted)
        kw = dict(lambdas=[0.1, 1.0, 10.0], max_components=2, n_basis=5)
        loocv(X, y, **kw)
        assert calls == [(9, 27)]  # the default bound holds every fold
        calls.clear()
        monkeypatch.setattr(selection, "_CHUNK_BYTES", 10_000)
        loocv(X, y, **kw)
        per_chunk = calls[0][0]
        assert 1 < per_chunk < 9
        assert len(calls) == math.ceil(9 / per_chunk)
        assert [f for f, _ in calls[:-1]] == [per_chunk] * (len(calls) - 1)
        assert sum(f for f, _ in calls) == 9
        assert all(n_fits == 3 * f for f, n_fits in calls)

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

    def test_singleton_of_two_values_names_its_fold(self):
        # column 1 is 0 but for row 5, so only the fold holding out row 5
        # leaves it constant
        X, y = small_dataset(16, n=9)
        X[:, 1] = 0.0
        X[5, 1] = 1.0
        with pytest.raises(DegenerateVariableError,
                           match="fold holding out row 5: predictor column 1"):
            loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)

    def test_constant_predictor_names_fold_zero(self):
        X, y = small_dataset(6, n=8)
        X[:, 1] = 1.0
        with pytest.raises(DegenerateVariableError,
                           match="fold holding out row 0: predictor column 1"):
            loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)

    def test_basis_too_small_for_degree_rejected(self):
        X, y = small_dataset(7)
        with pytest.raises(ConfigurationError, match="too small for degree"):
            loocv(X, y, lambdas=[1.0], max_components=2, n_basis=3, degree=3)
        # a negative basis size is rejected before any size is reckoned
        # from it: here the chunk arithmetic's divisor would be 0
        X, y = small_dataset(7, n=12)
        with pytest.raises(ConfigurationError):
            loocv(X[:, :1], y, lambdas=[0.1, 1.0, 10.0], max_components=1,
                  n_basis=-1)

    def test_memory_stays_within_the_chunk_bound(self):
        # unchunked, the 400 fold designs alone would take 400 * 400 * 20
        # doubles, 25.6 MB
        X, y = gen_additive(SyntheticSpec(17, 400, 2, 0.3,
                                          ("sine", "linear")))[:2]
        tracemalloc.start()
        try:
            loocv(X, y, lambdas=[0.1, 1.0, 10.0], max_components=3,
                  n_basis=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * selection._CHUNK_BYTES


class TestBatchedFolds:
    """The batched folds reproduce the one-fold-at-a-time computation."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.integers(1, 3),
           st.sampled_from([None, 1, 2]), st.integers(4, 8),
           st.integers(1, 10),
           st.lists(st.sampled_from([0.0, 1e-2, 1.0, 1e3]), min_size=1,
                    max_size=3),
           st.sampled_from(["noise", "spike"]), st.integers(1, 60_000))
    def test_loocv_matches_reference_bit_for_bit(
            self, seed, n, p, decimals, n_basis, m, lambdas, response,
            chunk_bytes):
        # rounded draws tie; a spike response makes its fold
        # intercept-only; m beyond the design's rank stops fits early;
        # a small chunk bound gives several chunks and a ragged last one
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, p))
        if decimals is not None:
            X = np.round(X, decimals)
        y = rng.standard_normal(n)
        if response == "spike":
            y = np.zeros(n)
            y[rng.integers(n)] = rng.uniform(0.5, 2.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_CHUNK_BYTES", chunk_bytes)
            got = outcome(lambda: loocv(X, y, lambdas=lambdas,
                                        max_components=m, n_basis=n_basis))
        expect = outcome(lambda: reference_loocv(X, y, lambdas, m, n_basis))
        if isinstance(expect[0], type):  # both raised, with one message
            assert got == expect
            return
        (grid, choice), (errors, early_stops) = got, expect
        np.testing.assert_array_equal(bits(grid.errors), bits(errors))
        np.testing.assert_array_equal(grid.early_stops, early_stops)
        best = _choose(np.asarray(lambdas, dtype=float), errors)
        assert (choice.lambda_opt, choice.m_opt, choice.loo_error) == \
            (best.lambda_opt, best.m_opt, best.loo_error)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40),
           st.sampled_from([None, 1, 2]), st.integers(0, 4),
           st.integers(0, 12), st.integers(8, 2_000))
    def test_fold_knots_match_make_basis(self, seed, n, decimals, degree,
                                         extra, chunk_bytes):
        rng = np.random.default_rng(seed)
        col = rng.uniform(-3.0, 3.0, size=n)
        if decimals is not None:
            col = np.round(col, decimals)
        n_basis = degree + 1 + extra
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_CHUNK_BYTES", chunk_bytes)
            knots, n_distinct = _fold_knots(col, n_basis, degree)
        for i in range(n):
            rest = np.delete(col, i)
            assert n_distinct[i] == np.unique(rest).size
            if n_distinct[i] >= 2:
                expect = make_basis(rest, n_basis, degree).knots
                # bit for bit, but for the sign of a zero knot: rounded
                # draws can hold both -0.0 and 0.0
                np.testing.assert_array_equal(knots[i], expect)
                nonzero = expect != 0
                np.testing.assert_array_equal(bits(knots[i][nonzero]),
                                              bits(expect[nonzero]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 25), st.integers(1, 3),
           st.sampled_from([None, 1]), st.integers(0, 4), st.integers(0, 8))
    def test_fold_designs_match_transform(self, seed, n, p, decimals, degree,
                                          extra):
        # the folds' windows laid end to end give each fold's transform
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, p))
        if decimals is not None:
            X = np.round(X, decimals)
        n_basis = degree + 1 + extra
        knots = [_fold_knots(X[:, j], n_basis, degree)[0] for j in range(p)]
        usable = [i for i in range(n)
                  if all(np.unique(np.delete(X[:, j], i)).size >= 2
                         for j in range(p))]
        Z = _fold_designs(X, [k[usable] for k in knots], degree)
        for f, i in enumerate(usable):
            expansion = BasisExpansion([SplineBasis(degree, k[i])
                                        for k in knots])
            np.testing.assert_array_equal(bits(Z[f]),
                                          bits(transform(X, expansion)))
