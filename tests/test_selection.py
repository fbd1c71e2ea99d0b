import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (explicit_folds, held_out_predictions,
                      reference_fold_fits, reference_pls_fit)
from penpls import (BasisExpansion, ConfigurationError, DataError,
                    DegenerateResponseError, DegenerateVariableError,
                    FitConfig, NumericalError, PenaltySpec, SplineBasis,
                    fit_gam, loocv, make_basis, make_preconditioner, predict,
                    selection, splines, transform)
from penpls.selection import _choose, _fold_knots
from penpls.splines import _dot_windows, _fold_designs, _windows
from penpls.testkit import SyntheticSpec, gen_additive


def small_dataset(seed=0, n=15, p=2):
    X, y, _ = gen_additive(SyntheticSpec(seed, n, p, 0.3, ("sine", "linear")))
    return X, y


def bits(a):
    """A float array's bit patterns, so that equality is bit for bit."""
    return np.asarray(a, dtype=float).view(np.int64)


def rotated_design(X, bases, rotation):
    """``transform(X, BasisExpansion(bases)) @ blockdiag(rotation)`` from
    each basis's own windows (``_windows`` of one knot vector) and the
    spline table times the rotation (``_dot_windows``), one basis at a
    time."""
    K = rotation.shape[0]
    Z = np.zeros((len(X), K * len(bases)))
    for j, basis in enumerate(bases):
        _dot_windows(*_windows(basis.knots[None, None], basis.degree,
                               X[:, j:j + 1]),
                     basis.degree, rotation, Z[:, j * K:(j + 1) * K])
    return Z


def searchsorted_windows(knots, degree, xs):
    """The padded knot vector, each point's first window index and the
    clamped points of one knot vector, by ``np.searchsorted``: the
    half-open interval ``[t_mu, t_{mu+1})`` holding the point, or at the
    right boundary the last nonempty one."""
    lo, hi = knots[0], knots[-1]
    x = np.clip(xs, lo, hi)
    mu = np.searchsorted(knots, x, side="right") - 1
    mu[x >= hi] = np.nonzero(knots[1:] > knots[:-1])[0][-1]
    padded = np.concatenate([np.full(degree, lo), knots,
                             np.full(degree + 1, hi)])
    return padded, mu, x


def reference_loocv(X, y, lambdas, max_components, n_basis, rotated=True):
    """Mean LOO errors and early-stop counts, one fold at a time.

    With ``rotated``, as ``loocv`` fits: each fold's design is rotated to
    the preconditioner's eigenbasis (``rotated_design``), and the fold's
    fits at every lambda run on its cross-products
    (``reference_fold_fits``), predicting the held-out row from their steps
    (``held_out_predictions``).  Without, the plain design and one
    ``reference_pls_fit`` per lambda with ``Preconditioner.apply``,
    predicting from its coefficient path, the same fits but for rounding.

    A fold whose centered response is zero to rounding predicts its mean,
    and a fold whose training rows leave a predictor fewer than two
    distinct values raises, naming the fold and the column, as ``loocv``
    does.
    """
    n, p = X.shape
    cfg = FitConfig(max_components)
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
        if rotated:
            V = make_preconditioner(PenaltySpec.shared(0.0, p, n_basis)).basis
            Z = rotated_design(X[keep], bases, V)
            z_held = rotated_design(X[i:i + 1], bases, V)[0]
        else:
            expansion = BasisExpansion(bases)
            Z = transform(X[keep], expansion)
            z_held = transform(X[i:i + 1], expansion)[0]
        z_means = Z.mean(axis=0)
        y_mean = y[keep].mean()
        if np.max(np.abs(y[keep] - y_mean)) <= 1e-14 * np.max(np.abs(y[keep])):
            errors += np.square(y[i] - y_mean)  # not pow(), as loocv
            early_stops += 1
            continue
        z_held = z_held - z_means
        if rotated:
            e, fits = reference_fold_fits(
                Z - z_means, y[keep] - y_mean, make_preconditioner(
                    PenaltySpec(np.repeat(lambdas, p), 2, n_basis)), cfg)
            for li, (wt, _, steps) in enumerate(fits):
                preds = held_out_predictions(wt, steps, z_held)
                errors[li] += (y[i] - y_mean - np.ldexp(preds, e)) ** 2
                early_stops[li] += len(wt) < max_components
            continue
        for li, lam in enumerate(lambdas):
            fit = reference_pls_fit(Z - z_means, y[keep] - y_mean,
                                    make_preconditioner(PenaltySpec.shared(
                                        lam, p, n_basis)), cfg)
            err = (y[i] - y_mean - z_held @ fit.beta_path) ** 2
            early_stops[li] += fit.early_stopped
            errors[li] += np.pad(err, (0, max_components - err.size),
                                 mode="edge")
    return errors / n, early_stops


def exact_loocv(X, y, lambdas, max_components, n_basis, rotated=True,
                digits=60):
    """``reference_loocv``'s errors with every fold's fits run exactly, in
    ``digits``-digit arithmetic, on the float inputs the fits get: the
    fold's centered design, its centered response and held-out row, and M.

    With ``rotated``, the design rotated as ``loocv`` builds it, where M is
    the float ``Preconditioner.diagonal``; without, the plain design, with
    each block of M the product V diag V' of the float rotation and
    diagonal.  Neither needs an inverse.
    """
    import mpmath

    from penpls.pls import _NORM_TOL

    n, p = X.shape
    d, L = p * n_basis, len(lambdas)
    V = make_preconditioner(PenaltySpec.shared(0.0, p, n_basis)).basis
    diagonal = make_preconditioner(PenaltySpec(
        np.repeat(lambdas, p), 2, n_basis)).diagonal.reshape(L, p, n_basis)
    exact = np.vectorize(mpmath.mpf, otypes=[object])
    errors = np.zeros((len(lambdas), max_components))
    with mpmath.workdps(digits):
        Ms = []
        for blocks in exact(diagonal):
            M = np.full((d, d), mpmath.mpf(0), dtype=object)
            for j, block in enumerate(blocks):
                at = slice(j * n_basis, (j + 1) * n_basis)
                M[at, at] = np.diag(block) if rotated else \
                    exact(V) @ (block[:, None] * exact(V.T))
            Ms.append(M)
        for i in range(n):
            keep = np.arange(n) != i
            bases = [make_basis(X[keep, j], n_basis, 3) for j in range(p)]
            if rotated:
                Z = rotated_design(X[keep], bases, V)
                z_held = rotated_design(X[i:i + 1], bases, V)[0]
            else:
                Z = transform(X[keep], BasisExpansion(bases))
                z_held = transform(X[i:i + 1], BasisExpansion(bases))[0]
            z_means, y_mean = Z.mean(axis=0), y[keep].mean()
            residual = exact(y[i] - y_mean)
            if np.max(np.abs(y[keep] - y_mean)) <= \
                    1e-14 * np.max(np.abs(y[keep])):
                errors += float(residual ** 2)
                continue
            S, held = exact(Z - z_means), exact(z_held - z_means)
            gram_matrix, b = S.T @ S, S.T @ exact(y[keep] - y_mean)
            for li, M in enumerate(Ms):
                # one Gram-Schmidt pass is exact here
                g, beta, kept, pred = b, 0 * b, [], mpmath.mpf(0)
                for k in range(max_components):
                    wt = M @ g
                    u = gram_matrix @ wt
                    if k == 0:
                        tol = _NORM_TOL ** 2 * (wt @ u)
                    for wt_j, u_j, gram_j in kept:
                        coef = (u_j @ wt) / gram_j
                        wt, u = wt - coef * wt_j, u - coef * u_j
                    gram = wt @ u
                    if gram > tol:
                        step = (wt @ g) / gram
                        beta, g = beta + step * wt, g - step * u
                        kept.append((wt, u, gram))
                        pred = beta @ held
                    errors[li, k] += float((residual - pred) ** 2)
    return errors / n


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
        # every fold at every lambda runs in one cross-product pass per
        # chunk of F folds, F * L fits, in fold order; the fold holding out
        # row 3 is intercept-only and runs with the others
        X, _ = small_dataset(11, n=10)
        y = np.zeros(10)
        y[3] = 1.0
        calls = []
        real = selection._fold_fits

        def counted(S, Y, M, cfg):
            calls.append((S.shape[0], M.dim // S.shape[2]))
            return real(S, Y, M, cfg)

        monkeypatch.setattr(selection, "_fold_fits", counted)
        kw = dict(lambdas=[0.1, 1.0, 10.0], max_components=2, n_basis=5)
        loocv(X, y, **kw)
        assert calls == [(10, 3)]  # the default bound holds every fold
        calls.clear()
        monkeypatch.setattr(selection, "_FOLD_CHUNK_BYTES", 10_000)
        loocv(X, y, **kw)
        per_chunk = calls[0][0]
        assert 1 < per_chunk < 10
        assert len(calls) == math.ceil(10 / per_chunk)
        assert [f for f, _ in calls[:-1]] == [per_chunk] * (len(calls) - 1)
        assert sum(f for f, _ in calls) == 10
        assert all(n_lambdas == 3 for _, n_lambdas in calls)

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

    def test_one_dimensional_x_rejected(self):
        X, y = small_dataset(9, n=8)
        with pytest.raises(ConfigurationError, match="X must be 2-D"):
            loocv(X[:, 0], y, lambdas=[1.0], max_components=2, n_basis=5)

    def test_zero_columns_rejected(self):
        with pytest.raises(ConfigurationError, match="predictor column"):
            loocv(np.zeros((5, 0)), np.arange(5.0), lambdas=[1.0],
                  max_components=1)

    @pytest.mark.parametrize("count", [2.5, True, 0])
    def test_bad_component_count_rejected(self, count):
        X, y = small_dataset(9, n=8)
        with pytest.raises(ConfigurationError):
            loocv(X, y, lambdas=[1.0], max_components=count, n_basis=5)

    def test_numpy_integer_component_count_accepted(self):
        X, y = small_dataset(9, n=8)
        kw = dict(lambdas=[1.0, 10.0], n_basis=5)
        grid, _ = loocv(X, y, max_components=np.int64(2), **kw)
        np.testing.assert_array_equal(
            grid.errors, loocv(X, y, max_components=2, **kw)[0].errors)

    def test_non_finite_weights_raise(self, monkeypatch):
        # the rotated weight step checks S'r before it scales, so a design
        # gone non-finite fails loudly instead of giving NaN errors
        real = selection._fold_designs

        def broken(*args):
            Z = real(*args)
            Z[0, 2, 1] = np.nan
            return Z

        monkeypatch.setattr(selection, "_fold_designs", broken)
        X, y = small_dataset(9, n=8)
        with pytest.raises(NumericalError, match="non-finite"):
            loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 12),
           st.sampled_from(["near the rule", "spike", "one row off"]),
           st.floats(-15.5, -12.5))
    def test_fold_levels_match_fit_gam(self, seed, n, response, log_spread):
        # each fold's intercept, bit for bit, and whether it is its
        # intercept alone are fit_gam's on the fold's rows, for responses
        # that vary by about the 1e-14 rule, above it and below it
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 2))
        level, spread = rng.uniform(-10.0, 10.0), 10.0 ** log_spread
        if response == "near the rule":
            y = level * (1.0 + spread * rng.integers(-1, 2, size=n))
        elif response == "spike":
            y = np.zeros(n)
            y[rng.integers(n)] = rng.uniform(0.5, 2.0)
        else:
            y = np.full(n, level)
            y[rng.integers(n)] *= 1.0 + spread
        levels = []
        real = selection._centered_response

        def recorded(Y):
            intercepts, Yc, varies = real(Y)
            levels.append((intercepts, varies))
            return intercepts, Yc, varies

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selection, "_centered_response", recorded)
            try:
                loocv(X, y, lambdas=[1.0], max_components=1, n_basis=4)
            except DegenerateResponseError:
                pass  # a varying fold that extracts nothing
        intercepts, varies = map(np.concatenate, zip(*levels))
        assert len(intercepts) == n
        spec = PenaltySpec.shared(1.0, 2, 4)
        for i in range(n):
            keep = np.arange(n) != i
            try:
                model = fit_gam(X[keep], y[keep], spec, 1)
            except DegenerateResponseError:
                # fit_gam found the fold varying and its fit extracted no
                # component
                assert varies[i]
                continue
            assert bits(intercepts[i]) == bits(model.intercept)
            assert varies[i] == (model.n_components > 0)

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
        # doubles, 25.6 MB; the 60 wide folds (59 rows, d = 400)
        # 60 * 60 * 400 doubles and their fits 60 * 9 * 3 * 400, 17.1 MB.
        # At K = 40, with one lambda and one component, a chunk's fold
        # designs hold about 3,300 points, and the spline table's gathered
        # terms for them would be 4 * 3,300 * 40 doubles, 4.2 MB, were they
        # not bounded (5.6 MiB peak then, 2.5 MiB bounded)
        for n, p, n_basis, lambdas, m, bound in (
                (400, 2, 10, [0.1, 1.0, 10.0], 3, 8 << 20),
                (60, 20, 20, [0.1, 1.0, 10.0], 3, 8 << 20),
                (80, 4, 40, [1.0], 1, 4 << 20)):
            X, y = gen_additive(SyntheticSpec(
                17, n, p, 0.3, ("sine", "linear") * (p // 2)))[:2]
            tracemalloc.start()
            try:
                loocv(X, y, lambdas=lambdas, max_components=m,
                      n_basis=n_basis)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound


def fold_design_case(seed, n, p, decimals, degree, extra):
    """A random generator, an (n, p) X (rounded draws tie), every fold's
    knot vectors per column and the folds whose bases exist."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    if decimals is not None:
        X = np.round(X, decimals)
    n_basis = degree + 1 + extra
    knots = [_fold_knots(X[:, j], n_basis, degree)[0] for j in range(p)]
    usable = [i for i in range(n)
              if all(np.unique(np.delete(X[:, j], i)).size >= 2
                     for j in range(p))]
    return rng, X, knots, usable


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
            mp.setattr(selection, "_FOLD_CHUNK_BYTES", chunk_bytes)
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
            mp.setattr(selection, "_FOLD_CHUNK_BYTES", chunk_bytes)
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
        # the folds' windows laid end to end give each fold's rotated
        # design, as its own windows and the table times the rotation do
        rng, X, knots, usable = fold_design_case(seed, n, p, decimals,
                                                 degree, extra)
        n_basis = degree + 1 + extra
        rotation = rng.standard_normal((n_basis, n_basis))
        fold_knots = [k[usable] for k in knots]
        Z = _fold_designs(X, fold_knots, degree, rotation)
        # each fold's own order of the rows gives the same rows
        order = np.array([rng.permutation(n) for _ in usable],
                         dtype=int).reshape(-1, n)
        Z_ordered = _fold_designs(X[order], fold_knots, degree, rotation)
        for f, i in enumerate(usable):
            bases = [SplineBasis(degree, k[i]) for k in knots]
            np.testing.assert_array_equal(bits(Z[f]),
                                          bits(rotated_design(X, bases,
                                                              rotation)))
            np.testing.assert_array_equal(bits(Z_ordered[f]),
                                          bits(Z[f][order[f]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 25), st.integers(1, 3),
           st.sampled_from([None, 1]), st.integers(0, 4), st.integers(0, 8))
    def test_rotated_designs_are_transform_times_rotation(
            self, seed, n, p, decimals, degree, extra):
        rng, X, knots, usable = fold_design_case(seed, n, p, decimals,
                                                 degree, extra)
        n_basis = degree + 1 + extra
        V = np.linalg.qr(rng.standard_normal((n_basis, n_basis)))[0]
        Z = _fold_designs(X, [k[usable] for k in knots], degree, V)
        for f, i in enumerate(usable):
            dense = transform(X, BasisExpansion(
                [SplineBasis(degree, k[i]) for k in knots]))
            expect = (dense.reshape(n, p, n_basis) @ V).reshape(n, -1)
            np.testing.assert_allclose(Z[f], expect, rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 3),
           st.sampled_from([None, 1, 2]), st.integers(0, 4),
           st.integers(0, 8), st.integers(1, 6), st.booleans(),
           st.integers(1, 64))
    def test_fold_windows_match_windows(self, seed, n, p, decimals, degree,
                                        extra, n_folds, per_fold_points,
                                        slice_len):
        # points beyond both ends and on every knot are clamped and placed
        # as one ``searchsorted`` per fold and variable places them, in
        # comparison slices of any size
        rng = np.random.default_rng(seed)
        n_basis = degree + 1 + extra
        cols = rng.uniform(size=(n + 2, p))
        if decimals is not None:
            cols = np.round(cols, decimals)
        cols[:3] = [[0.0], [0.5], [1.0]]  # at least 3 distinct values
        knots = np.stack([_fold_knots(cols[:, j], n_basis, degree)[0]
                          for j in range(p)], axis=1)[:n_folds]
        F = len(knots)
        X = np.concatenate([rng.uniform(-0.5, 1.5, size=(n, p)),
                            np.broadcast_to(knots[0].T, (knots.shape[2], p))])
        if per_fold_points:
            X = np.stack([rng.permutation(X) for _ in range(F)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splines, "_SLICE", slice_len)
            padded, start, clamped = _windows(knots, degree, X)
        width = padded.shape[1]
        rows = X.shape[-2]
        at = np.arange(F * rows * p).reshape(F, rows, p)
        X = np.broadcast_to(X, (F, rows, p))
        for f in range(F):
            for j in range(p):
                pad, mu, x = searchsorted_windows(knots[f, j], degree,
                                                  X[f, :, j])
                block = f * p + j
                np.testing.assert_array_equal(padded[block], pad)
                np.testing.assert_array_equal(start[at[f, :, j]],
                                              mu + block * width)
                np.testing.assert_array_equal(bits(clamped[at[f, :, j]]),
                                              bits(x))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 6),
           st.integers(1, 3), st.integers(4, 8),
           st.sampled_from(["collinear", "tied"]), st.integers(0, 8),
           st.sampled_from(["noise", "spike", "two spikes"]))
    def test_stop_rule_on_tiny_scores(self, seed, tall, extra, p, n_basis,
                                      predictors, beyond_rank, response):
        # lambda = 0 on near-collinear or tied predictors and spiky
        # responses, with m beyond the fold's rank: the last scores are
        # rounding noise, and the cross-product fits stop where the plain
        # fits do, on tall (n - 1 >= d) and wide folds
        rng = np.random.default_rng(seed)
        d = p * n_basis
        n = d + 1 + extra if tall else max(5, d - extra)
        X = np.repeat(rng.uniform(size=(n, 1)), p, axis=1)
        if predictors == "collinear":
            X[:, 1:] += 1e-9 * rng.standard_normal((n, p - 1))
        else:
            X = np.round(X + 0.1 * rng.uniform(size=(n, p)), 1)
        y = rng.standard_normal(n)
        if response != "noise":
            y = np.zeros(n)
            spikes = 1 if response == "spike" else 2
            y[rng.choice(n, spikes, replace=False)] = rng.uniform(0.5, 2.0,
                                                                  spikes)
        m = min(n - 1, d) + beyond_rank
        lambdas = [0.0, 1.0]
        got = outcome(lambda: loocv(X, y, lambdas=lambdas, max_components=m,
                                    n_basis=n_basis))
        expect = outcome(lambda: reference_loocv(X, y, lambdas, m, n_basis,
                                                 rotated=False))
        if isinstance(expect[0], type):
            assert got == expect
            return
        np.testing.assert_array_equal(got[0].early_stops, expect[1])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 24), st.integers(1, 3),
           st.sampled_from([None, 1, 2]), st.integers(4, 8),
           st.integers(1, 8),
           st.lists(st.sampled_from([0.0, 1e-2, 1.0, 1e3, 1e6, 1e10]),
                    min_size=1, max_size=4),
           st.sampled_from(["noise", "spike"]))
    @example(159, 24, 1, 1, 4, 1, [1e10], "spike")  # 1.3e-8 apart
    @example(548, 4, 2, 1, 7, 2, [1e10], "spike")  # wide folds
    def test_rotation_changes_errors_only_by_rounding(
            self, seed, n, p, decimals, n_basis, m, lambdas, response):
        # loocv fits in the rotated basis; the plain-basis fits agree but
        # for rounding, stop at the same step, and choose the same cell
        # unless the best two cells are within rounding of each other.
        # Mostly they agree to 1e-10.  Where not (seen only at lambda =
        # 1e10, where M spans ten decades, with spike responses), the cell
        # is ill-conditioned, and both are held to its exact value
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, p))
        if decimals is not None:
            X = np.round(X, decimals)
        y = rng.standard_normal(n)
        if response == "spike":
            y = np.zeros(n)
            y[rng.integers(n)] = rng.uniform(0.5, 2.0)
        got = outcome(lambda: loocv(X, y, lambdas=lambdas, max_components=m,
                                    n_basis=n_basis))
        expect = outcome(lambda: reference_loocv(X, y, lambdas, m, n_basis,
                                                 rotated=False))
        if isinstance(expect[0], type):
            assert got == expect
            return
        (grid, choice), (errors, early_stops) = got, expect
        np.testing.assert_array_equal(grid.early_stops, early_stops)
        best, second = np.partition(errors.ravel(), 1)[:2] \
            if errors.size > 1 else (errors.min(), np.inf)
        close = np.isclose(grid.errors, errors, rtol=1e-10, atol=0)
        tie = 1e-10 * best
        if not close.all():
            # E, the exact errors of loocv's float inputs; the plain path's
            # distance from E, and the change its other rounding of the
            # design makes in E, measure one rounding of each input at
            # this conditioning.  loocv's products (S'y, S w, S't) sum at
            # most max(n - 1, d) terms, whose first-order rounding bound is
            # that many times one rounding per term: within that factor
            # of the measure, loocv is no less accurate than the plain path
            exact = exact_loocv(X, y, lambdas, m, n_basis)
            measure = np.maximum(
                np.abs(errors - exact),
                np.abs(exact_loocv(X, y, lambdas, m, n_basis,
                                   rotated=False) - exact))
            far = ~close
            terms = max(n - 1, p * n_basis)
            assert np.all(np.abs(grid.errors - exact)[far] <=
                          terms * measure[far])
            tie = 2 * np.max(np.abs(grid.errors - errors))
        if second - best > tie:
            expect_choice = _choose(np.asarray(lambdas, dtype=float), errors)
            assert (choice.lambda_opt, choice.m_opt) == \
                (expect_choice.lambda_opt, expect_choice.m_opt)
