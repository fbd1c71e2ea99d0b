"""The additive-model estimator: expansion, centering, fit, prediction.

A model is fit by expanding each predictor in a B-spline basis, centering the
expanded columns and the response, running penalized PLS, and storing the
centering statistics so new observations can be scored honestly.

``fit_gam`` expands with the public ``transform``, centers with
``_center`` and ``_centered_response`` and fits with the public
``penalized_pls_fit``.  ``transform`` runs the spline-table code of a
``loocv`` fold's design (``splines._fold_designs``) with the identity where
a fold has the penalty's rotation, and both centering helpers are the
folds' too; ``loocv`` fits its folds in d-space (see ``selection``).  The
PLS fit is scale-equivariant in y (``pls`` picks its working units), so
coefficients are stored on the response's own scale.

Fitting needs the dense centered design; scoring does not.  ``predict`` and
``fitted_function`` both go through ``_score``, which multiplies each
point's nonzero basis values, straight from the spline recursion's table,
by their coefficients (``splines.transform_dot``) and adds one constant.
The same code thus scores a fitted model and a reloaded one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DataError, DegenerateVariableError,
                     _as_float, _check_int)
from .penalty import PenaltySpec, make_preconditioner
from .pls import FitConfig, _check_finite, _checked_xy, penalized_pls_fit
from .splines import (BasisExpansion, SplineBasis, make_basis, transform,
                      transform_dot, DEFAULT_DEGREE)


@dataclass(frozen=True)
class GamModel:
    """A fitted additive model, immutable and self-contained for prediction."""

    bases: tuple[SplineBasis, ...]
    penalty: PenaltySpec
    beta: np.ndarray
    intercept: float
    z_means: np.ndarray
    n_components: int
    requested_components: int
    fitted: np.ndarray | None = None

    @property
    def n_variables(self) -> int:
        return len(self.bases)

    @property
    def early_stopped(self) -> bool:
        return self.n_components < self.requested_components

    @property
    def expansion(self) -> BasisExpansion:
        return BasisExpansion(self.bases)


@dataclass(frozen=True)
class FittedFunction:
    """One additive component evaluated on a grid over its training range.

    Values are centered to mean zero over the training data; the overall
    level lives in the model intercept.
    """

    variable: int
    grid: np.ndarray
    values: np.ndarray


def _training_data(X, y):
    """X as a 2-D and y as a 1-D float array, checked against each other."""
    X, y = _checked_xy(X, y)
    if X.shape[1] == 0:
        raise ConfigurationError("X needs at least one predictor column")
    _check_finite(y=y)
    if X.shape[0] < 3:
        raise ConfigurationError("need at least 3 observations")
    return X, y


def _center(Z: np.ndarray, n_train: int) -> np.ndarray:
    """Center each fold's design ``Z[f]`` (F, rows, d) in place by the
    column means of its first ``n_train`` rows, its training rows; rows
    after them, held out, are shifted by the same means.  Returns the
    means (F, d)."""
    means = Z[:, :n_train].mean(axis=1)
    Z -= means[:, None]
    return means


def _centered_response(y):
    """Intercepts of responses along the last axis, the responses less
    them, and whether each varies beyond rounding.  A response that does
    not vary is its intercept alone, and its centered response is zero.
    Where y less its mean still has a mean that ``pls._check_centered``
    refuses (a spread near 1e-12 of the level), it is centered once more;
    the intercept stays the mean of y.
    """
    intercept = y.mean(axis=-1)
    yc = y - intercept[..., None]
    varies = np.max(np.abs(yc), axis=-1) > 1e-14 * np.max(np.abs(y), axis=-1)
    yc = np.where(varies[..., None], yc, 0.0)
    mean = yc.mean(axis=-1)
    off = np.abs(mean) > 1e-8 * np.max(np.abs(yc), axis=-1)
    yc = np.where(off[..., None], yc - mean[..., None], yc)
    return intercept, yc, varies


def _score(X, bases, beta, z_means, level: float) -> np.ndarray:
    """``level + (transform(X) - z_means) @ beta``, to rounding: the
    uncentered products from ``transform_dot`` plus the one constant
    ``level - z_means @ beta``, so neither the dense design nor its
    centered copy is built."""
    return transform_dot(X, BasisExpansion(bases), beta) + \
        (level - z_means @ beta)


def fit_gam(X, y, penalty: PenaltySpec, n_components: int,
            degree: int = DEFAULT_DEGREE) -> GamModel:
    """Fit the additive model on raw predictors X and response y.

    Parameters
    ----------
    penalty : PenaltySpec
        Carries the per-variable weights, difference order, and basis size.
    n_components : int
        Requested number of PLS components; the achieved count may be lower
        and is recorded on the model.
    """
    X, y = _training_data(X, y)
    if X.shape[1] != penalty.n_variables:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns but the penalty covers "
            f"{penalty.n_variables} variables")
    cfg = FitConfig(n_components)

    bases = []
    for j in range(X.shape[1]):
        try:
            bases.append(make_basis(X[:, j], penalty.n_basis, degree))
        except (DataError, DegenerateVariableError) as exc:
            raise type(exc)(f"predictor column {j}: {exc}") from exc
    M = make_preconditioner(penalty)
    Zc = transform(X, BasisExpansion(bases))
    z_means = _center(Zc[None], len(X))[0]

    intercept, yc, varies = _centered_response(y)
    intercept = float(intercept)
    beta, k = np.zeros(penalty.dim), 0
    if varies:  # else intercept-only: zero components
        fit = penalized_pls_fit(Zc, yc, M, cfg)
        # contiguous, as a reloaded model's, so predict rounds alike
        beta, k = fit.beta.copy(), fit.n_components
    fitted = intercept + Zc @ beta
    return GamModel(bases=tuple(bases), penalty=penalty, beta=beta,
                    intercept=intercept, z_means=z_means, n_components=k,
                    requested_components=n_components, fitted=fitted)


def predict(model: GamModel, X_new) -> np.ndarray:
    """Score new observations; out-of-domain values are clamped to the
    training range of each variable."""
    X_new = np.atleast_2d(_as_float(X_new, "X_new"))
    if X_new.ndim != 2:
        raise ConfigurationError(
            f"X_new must be 2-D, got {X_new.ndim} dimensions")
    if X_new.shape[1] != model.n_variables:
        raise ConfigurationError(
            f"expected {model.n_variables} predictor columns, "
            f"got {X_new.shape[1]}")
    return _score(X_new, model.bases, model.beta, model.z_means,
                  model.intercept)


def fitted_function(model: GamModel, variable: int,
                    grid_size: int = 200) -> FittedFunction:
    """Evaluate one additive component on an equispaced grid over its
    training range."""
    _check_int(variable, "variable")
    _check_int(grid_size, "grid_size", 2)
    if not 0 <= variable < model.n_variables:
        raise ConfigurationError(
            f"variable index {variable} out of range for "
            f"{model.n_variables} predictors")
    basis = model.bases[variable]
    lo, hi = basis.domain
    grid = np.linspace(lo, hi, grid_size)
    K = model.penalty.n_basis
    sl = slice(variable * K, (variable + 1) * K)
    values = _score(grid[:, None], (basis,), model.beta[sl],
                    model.z_means[sl], 0.0)
    return FittedFunction(variable=variable, grid=grid, values=values)
