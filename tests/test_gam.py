import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penpls import (BasisExpansion, ConfigurationError, DataError,
                    DegenerateVariableError, FitConfig, GamModel, PenaltySpec,
                    SplineBasis, eval_basis_grid, fit_gam, fitted_function,
                    loocv, make_basis, make_preconditioner,
                    penalized_pls_fit, predict, splines, transform)
from penpls.testkit import SyntheticSpec, dense_predict, gen_additive


def fit_fixture(seed=0, n=40, p=2, lam=10.0, n_basis=10, m=4, **kw):
    X, y, _ = gen_additive(SyntheticSpec(seed, n, p, 0.2,
                                         ("sine", "linear")[:p] or ("sine",)))
    penalty = PenaltySpec.shared(lam, p, n_basis)
    return X, y, fit_gam(X, y, penalty, m, **kw)


class TestFitGam:
    def test_training_predictions_reproduce_fitted(self):
        X, y, model = fit_fixture()
        np.testing.assert_allclose(predict(model, X), model.fitted, atol=1e-10)

    def test_heavy_penalty_straightens_linear_truth(self):
        # stronger smoothing shrinks the curvature of the fitted function.
        # curvature is measured away from the domain ends: the repeated
        # boundary knots leave a fixed kink there that no amount of
        # coefficient smoothing can remove
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 1.0, 60)[:, None]
        y = 2.0 * x[:, 0] + 0.05 * rng.standard_normal(60)
        # one component: later components would re-absorb unsmoothed signal
        roughness = []
        for lam in (1.0, 100.0, 10000.0):
            model = fit_gam(x, y, PenaltySpec.shared(lam, 1, 12), 1)
            fn = fitted_function(model, 0, 100)
            mid = (fn.grid >= 0.25) & (fn.grid <= 0.75)
            roughness.append(np.max(np.abs(np.diff(fn.values[mid], 2))))
        assert roughness[0] >= roughness[1] >= roughness[2]

    def test_unpenalized_no_interior_knots_is_cubic_ls(self):
        # K = degree + 1 on one variable spans exactly the cubic polynomials
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(30, 1))
        y = np.sin(3.0 * x[:, 0]) + 0.1 * rng.standard_normal(30)
        model = fit_gam(x, y, PenaltySpec.shared(0.0, 1, 4, order=1), 4)
        V = np.vander(x[:, 0], 4, increasing=True)
        coef, *_ = np.linalg.lstsq(V, y, rcond=None)
        np.testing.assert_allclose(predict(model, x), V @ coef, atol=1e-8)

    def test_constant_response(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(10, 2))
        y = np.full(10, 7.5)
        model = fit_gam(X, y, PenaltySpec.shared(1.0, 2, 6), 3)
        assert model.intercept == 7.5
        assert model.n_components == 0
        np.testing.assert_array_equal(model.beta, 0.0)
        np.testing.assert_allclose(predict(model, X), 7.5)

    def test_response_constant_up_to_rounding(self):
        # 0.3 - 0.2 is 0.1 up to rounding, so the centered response is
        # rounding noise; scaling it by a power of two must not make it signal
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(7, 2))
        y = np.full(7, 0.1)
        y[::2] = 0.3 - 0.2
        assert (y - y.mean()).std() > 0.0
        model = fit_gam(X, y, PenaltySpec.shared(1.0, 2, 5), 3)
        assert model.n_components == 0
        np.testing.assert_array_equal(model.beta, 0.0)
        np.testing.assert_array_equal(model.fitted, model.intercept)

    def test_tiny_response_is_fit_to_scale(self):
        # constancy is judged relative to the response itself, so a response
        # of order 1e-15 is signal, not rounding noise
        X, y, model = fit_fixture()
        tiny = fit_gam(X, y * 1e-15, model.penalty, 4)
        assert tiny.n_components == model.n_components == 4
        np.testing.assert_allclose(tiny.beta, model.beta * 1e-15, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(tiny.beta)))

    def test_constant_predictor_rejected_with_column(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(10, 2))
        X[:, 1] = 3.0
        with pytest.raises(DegenerateVariableError, match="column 1"):
            fit_gam(X, rng.standard_normal(10),
                    PenaltySpec.shared(1.0, 2, 6), 2)

    def test_too_many_components_flags_early_stop(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(12, 1))
        y = x[:, 0] + 0.01 * rng.standard_normal(12)
        model = fit_gam(x, y, PenaltySpec.shared(0.0, 1, 8, order=1), 30)
        assert model.early_stopped
        assert model.n_components < 30

    def test_internal_centering(self):
        X, y, model = fit_fixture()
        from penpls import transform
        Z = transform(X, model.expansion)
        centered = Z - model.z_means
        assert np.max(np.abs(centered.mean(axis=0))) <= 1e-10


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestPrimalFit:
    """``fit_gam`` is the public primal fit on the public expansion:
    ``penalized_pls_fit`` on ``transform``'s design and the response, both
    centered, gives its component count, early stop and beta, bit for
    bit, on tall (n > d) and wide (n < d) designs at every lambda."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 8),
           st.integers(1, 3), st.integers(4, 8), st.integers(1, 8),
           st.sampled_from([0.0, 1e-2, 1.0, 1e3, 1e6, 1e10]),
           st.sampled_from([None, 1, 2]))
    def test_matches_penalized_pls_fit_on_the_plain_design(
            self, seed, tall, extra, p, n_basis, m, lam, decimals):
        # tall (n > d) and wide (n < d) designs, rounded draws tie
        rng = np.random.default_rng(seed)
        d = p * n_basis
        n = d + 1 + extra if tall else max(5, d - extra)
        X = rng.uniform(size=(n, p))
        if decimals is not None:
            X = np.round(X, decimals)
        y = rng.standard_normal(n)
        spec = PenaltySpec.shared(lam, p, n_basis)
        try:
            bases = [make_basis(X[:, j], n_basis) for j in range(p)]
        except DegenerateVariableError:
            with pytest.raises(DegenerateVariableError):
                fit_gam(X, y, spec, m)
            return
        model = fit_gam(X, y, spec, m)
        Z = transform(X, BasisExpansion(bases))
        Zc, yc = Z - Z.mean(axis=0), y - y.mean()
        fit = penalized_pls_fit(Zc, yc, make_preconditioner(spec),
                                FitConfig(m))
        assert model.n_components == fit.n_components
        assert model.early_stopped == fit.early_stopped
        np.testing.assert_array_equal(model.beta, fit.beta)
        assert rel_err(model.fitted - model.intercept, Zc @ fit.beta) <= 1e-8


class TestInputShape:
    def test_one_dimensional_x_rejected(self):
        X, y, _ = gen_additive(SyntheticSpec(0, 20, 1, 0.2, ("sine",)))
        with pytest.raises(ConfigurationError, match="X must be 2-D"):
            fit_gam(X[:, 0], y, PenaltySpec.shared(1.0, 1, 6), 2)

    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_integer_component_count_rejected(self, count):
        X, y, _ = gen_additive(SyntheticSpec(0, 20, 1, 0.2, ("sine",)))
        with pytest.raises(ConfigurationError, match="integer"):
            fit_gam(X, y, PenaltySpec.shared(1.0, 1, 6), count)

    def test_zero_columns_rejected(self):
        with pytest.raises(ConfigurationError, match="predictor column"):
            fit_gam(np.zeros((5, 0)), np.arange(5.0),
                    PenaltySpec.shared(1.0, 1, 6), 1)

    @pytest.mark.parametrize("shape", [(1, 1, 2), (2, 3, 2), (1, 1, 1, 2)])
    def test_predict_refuses_more_than_two_dimensions(self, shape):
        # refused for its dimension count, before any column count is read
        _, _, model = fit_fixture()
        with pytest.raises(ConfigurationError,
                           match=f"X_new must be 2-D, got {len(shape)} "
                                 f"dimensions"):
            predict(model, np.zeros(shape))


class TestResponseScale:
    """PLS is scale-equivariant in y, at any scale a double can hold."""

    @pytest.mark.parametrize("scale", [1e154, 1e-165])
    def test_beta_scales_with_the_response(self, scale):
        X, y, model = fit_fixture()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = fit_gam(X, y * scale, model.penalty, 4)
        assert scaled.n_components == model.n_components == 4
        expect = scale * model.beta
        # max norms: a 2-norm would square 1e154 and overflow
        assert np.max(np.abs(scaled.beta - expect)) <= \
            1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("power", [-600, -1, 1, 600])
    def test_power_of_two_scales_exactly(self, power):
        X, y, model = fit_fixture()
        scaled = fit_gam(X, np.ldexp(y, power), model.penalty, 4)
        np.testing.assert_array_equal(scaled.beta,
                                      np.ldexp(model.beta, power))


class TestNearConstantResponse:
    """A response that varies by far less than its level is centered once
    more where y less its mean is still off center; the intercept stays
    the mean of y."""

    def test_response_varying_by_1e_12_of_its_level_fits(self):
        X = np.random.default_rng(3).uniform(size=(8, 2))
        y = 3.0 * (1.0 + 1e-12 * np.array([-1, 0, 1, -1, 0, 1, -1, 1]))
        spec = PenaltySpec.shared(1.0, 2, 5)
        model = fit_gam(X, y, spec, 2)
        assert model.intercept == y.mean()
        yc = y - y.mean()
        assert abs(yc.mean()) > 1e-8 * np.max(np.abs(yc))  # off center
        Z = transform(X, model.expansion)
        fit = penalized_pls_fit(Z - Z.mean(axis=0), yc - yc.mean(),
                                make_preconditioner(spec), FitConfig(2))
        np.testing.assert_array_equal(model.beta, fit.beta)
        loocv(X, y, lambdas=[1.0], max_components=2, n_basis=5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 30),
           st.floats(-15.5, -7.0), st.booleans())
    def test_no_near_constant_response_is_refused(self, seed, n, log_spread,
                                                 ternary):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 2))
        noise = rng.integers(-1, 2, size=n) if ternary else \
            rng.standard_normal(n)
        y = rng.uniform(-10.0, 10.0) * (1.0 + 10.0 ** log_spread * noise)
        model = fit_gam(X, y, PenaltySpec.shared(1.0, 2, 5), 2)
        assert model.intercept == y.mean()


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_rejects_non_finite_predictor(self, bad):
        X, y, _ = fit_fixture()
        X[5, 1] = bad
        with pytest.raises(DataError, match="predictor column 1"):
            fit_gam(X, y, PenaltySpec.shared(10.0, 2, 10), 4)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_fit_rejects_non_finite_response(self, bad):
        X, y, _ = fit_fixture()
        y[3] = bad
        with pytest.raises(DataError, match="y has non-finite"):
            fit_gam(X, y, PenaltySpec.shared(10.0, 2, 10), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_rejects_non_finite_predictor(self, bad):
        X, _, model = fit_fixture()
        X_new = X[:3].copy()
        X_new[1, 0] = bad
        with pytest.raises(DataError, match=r"columns \[0\]"):
            predict(model, X_new)


class TestPredict:
    def test_single_row_matches_training_row(self):
        X, _, model = fit_fixture()
        np.testing.assert_allclose(predict(model, X[4:5]),
                                   model.fitted[4:5], atol=1e-10)

    def test_row_order_invariance(self):
        X, _, model = fit_fixture()
        perm = np.random.default_rng(7).permutation(len(X))
        np.testing.assert_array_equal(predict(model, X[perm]),
                                      predict(model, X)[perm])

    def test_out_of_domain_clamped(self):
        X, _, model = fit_fixture()
        inside = np.array([[X[:, 0].min(), X[:, 1].max()]])
        outside = np.array([[-100.0, 100.0]])
        np.testing.assert_allclose(predict(model, outside),
                                   predict(model, inside))

    def test_column_mismatch(self):
        X, _, model = fit_fixture()
        with pytest.raises(ConfigurationError):
            predict(model, X[:, :1])


class TestFittedFunction:
    def test_additive_reconstruction(self):
        X, _, model = fit_fixture()
        total = np.full(len(X), model.intercept)
        for j in range(model.n_variables):
            grid = fitted_function(model, j, 5)  # values come from the model
            # evaluate the component exactly at training abscissae
            from penpls import eval_basis_grid
            K = model.penalty.n_basis
            B = eval_basis_grid(model.bases[j], X[:, j])
            sl = slice(j * K, (j + 1) * K)
            total += (B - model.z_means[sl]) @ model.beta[sl]
        np.testing.assert_allclose(total, model.fitted, atol=1e-8)

    def test_mean_zero_over_training_rows(self):
        from penpls import eval_basis_grid
        X, _, model = fit_fixture()
        K = model.penalty.n_basis
        for j in range(model.n_variables):
            B = eval_basis_grid(model.bases[j], X[:, j])
            sl = slice(j * K, (j + 1) * K)
            vals = (B - model.z_means[sl]) @ model.beta[sl]
            assert abs(vals.mean()) <= 1e-10 * max(1.0, np.max(np.abs(vals)))

    def test_grid_endpoints_are_training_range(self):
        X, _, model = fit_fixture()
        fn = fitted_function(model, 0, 50)
        assert fn.grid[0] == X[:, 0].min()
        assert fn.grid[-1] == X[:, 0].max()
        assert len(fn.grid) == 50

    def test_huge_penalty_yields_affine_function(self):
        # with order-2 differences, lambda -> inf forces the coefficient
        # vector into its affine null space; the resulting spline is linear
        # everywhere except near the repeated boundary knots (the interior
        # average of consecutive support midpoints is evenly spaced, the
        # boundary ones are not), so linearity is asserted on the middle of
        # the domain and the coefficients themselves are checked directly
        rng = np.random.default_rng(8)
        x = np.linspace(0.0, 1.0, 50)[:, None]
        y = np.sin(2 * np.pi * x[:, 0]) + 0.1 * rng.standard_normal(50)
        model = fit_gam(x, y, PenaltySpec.shared(1e8, 1, 12), 1)
        coef = model.beta
        scale = max(np.max(np.abs(coef)), 1e-12)
        assert np.max(np.abs(np.diff(coef, 2))) <= 1e-6 * scale
        fn = fitted_function(model, 0, 100)
        mid = (fn.grid >= 0.25) & (fn.grid <= 0.75)
        span = np.ptp(fn.values)
        assert np.max(np.abs(np.diff(fn.values[mid], 2))) <= \
            1e-3 * max(span, 1e-12)

    def test_index_out_of_range(self):
        _, _, model = fit_fixture()
        with pytest.raises(ConfigurationError):
            fitted_function(model, 5)


def random_model(seed, degrees, clamped, n_basis):
    """A model over random bases of the given degrees, each clamped or not,
    with random coefficients, means and intercept: the scorer's inputs
    without a fit."""
    rng = np.random.default_rng(seed)
    bases = []
    for degree, is_clamped in zip(degrees, clamped):
        lo = rng.uniform(-2.0, 1.0)
        hi = lo + rng.uniform(0.5, 3.0)
        # rounding ties some knots
        size = n_basis - degree - 1 if is_clamped else n_basis + degree + 1
        knots = np.sort(np.clip(np.round(rng.uniform(lo, hi, size), 1),
                                lo, hi))
        if is_clamped:
            knots = np.concatenate([np.full(degree + 1, lo), knots,
                                    np.full(degree + 1, hi)])
        else:
            knots[0], knots[-1] = lo, hi
        bases.append(SplineBasis(degree, knots))
    p = len(bases)
    return GamModel(bases=tuple(bases),
                    penalty=PenaltySpec.shared(1.0, p, n_basis),
                    beta=rng.standard_normal(p * n_basis)
                    * 10.0 ** rng.integers(-3, 4),
                    intercept=float(rng.standard_normal() * 100.0),
                    z_means=rng.uniform(0.0, 1.0, p * n_basis),
                    n_components=1, requested_components=1)


def scorer_inputs(model, seed, n):
    """n rows in and beyond each variable's domain, followed by rows on
    every knot and on both boundaries."""
    rng = np.random.default_rng(seed)
    cols = []
    for basis in model.bases:
        lo, hi = basis.domain
        cols.append(np.concatenate([
            rng.uniform(lo - 1.0, hi + 1.0, n),
            np.resize(basis.knots, n), [lo, hi]]))
    return np.column_stack(cols)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestScorer:
    """``predict`` and ``fitted_function`` score from the local-support
    table; the dense centered design is only the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1,
                    max_size=4),
           st.integers(6, 9), st.integers(1, 40))
    def test_predict_matches_dense_oracle(self, seed, kinds, n_basis, n):
        degrees, clamped = zip(*kinds)
        model = random_model(seed, degrees, clamped, n_basis)
        X = scorer_inputs(model, seed + 1, n)
        got = predict(model, X)
        # every term of the sum is at most |beta_k| (1 + z_k) in magnitude
        scale = abs(model.intercept) + np.abs(model.beta) @ (1 + model.z_means)
        np.testing.assert_allclose(got, dense_predict(model, X), rtol=0,
                                   atol=1e-12 * scale)
        K = n_basis
        for j, basis in enumerate(model.bases):
            fn = fitted_function(model, j, 9)
            sl = slice(j * K, (j + 1) * K)
            dense = (eval_basis_grid(basis, fn.grid) - model.z_means[sl]) \
                @ model.beta[sl]
            scale = np.abs(model.beta[sl]) @ (1 + model.z_means[sl])
            np.testing.assert_allclose(fn.values, dense, rtol=0,
                                       atol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1,
                    max_size=3),
           st.integers(1, 64))
    def test_slices_change_no_bit(self, seed, kinds, slice_len):
        degrees, clamped = zip(*kinds)
        model = random_model(seed, degrees, clamped, 7)
        X = scorer_inputs(model, seed + 1, 150)
        whole = predict(model, X)
        curves = [fitted_function(model, j, 150).values
                  for j in range(model.n_variables)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splines, "_SLICE", slice_len)
            np.testing.assert_array_equal(bits(predict(model, X)),
                                          bits(whole))
            for j, values in enumerate(curves):
                np.testing.assert_array_equal(
                    bits(fitted_function(model, j, 150).values), bits(values))

    def test_rows_scored_alone_match_the_batch(self):
        model = random_model(5, (3, 0, 5), (True, False, True), 8)
        X = scorer_inputs(model, 6, 30)
        whole = predict(model, X)
        for i in range(len(X)):
            assert bits(predict(model, X[i]))[0] == bits(whole[i])

    def test_memory_stays_below_the_dense_design(self):
        # 20k rows x 5 variables at K = 20: the dense design alone is
        # 20_000 * 100 doubles, 16 MB
        X = np.random.default_rng(3).uniform(size=(20_000, 5))
        model = random_model(4, (3,) * 5, (True,) * 5, 20)
        tracemalloc.start()
        try:
            predict(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000 / 4
