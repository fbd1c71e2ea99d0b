import warnings

import numpy as np
import pytest

from penpls import (ConfigurationError, DataError, DegenerateVariableError,
                    PenaltySpec, fit_gam, fitted_function, predict)
from penpls.testkit import SyntheticSpec, gen_additive


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
