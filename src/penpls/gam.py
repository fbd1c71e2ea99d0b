"""The additive-model estimator: expansion, centering, fit, prediction.

A model is fit by expanding each predictor in a B-spline basis, centering the
expanded columns and the response, running penalized PLS, and storing the
centering statistics so new observations can be scored honestly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateVariableError
from .penalty import PenaltySpec, make_preconditioner
from .pls import FitConfig, penalized_pls_fit, DEFAULT_NORM_TOL
from .splines import (BasisExpansion, SplineBasis, eval_basis_grid, make_basis,
                      transform, DEFAULT_DEGREE)


@dataclass(frozen=True)
class GamModel:
    """A fitted additive model, immutable and self-contained for prediction."""

    bases: tuple[SplineBasis, ...]
    penalty: PenaltySpec
    beta: np.ndarray
    intercept: float
    z_means: np.ndarray
    response_scale: float | None
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


def _build_bases(X: np.ndarray, n_basis: int, degree: int):
    bases = []
    for j in range(X.shape[1]):
        try:
            bases.append(make_basis(X[:, j], n_basis, degree))
        except (DataError, DegenerateVariableError) as exc:
            raise type(exc)(f"predictor column {j}: {exc}") from exc
    return tuple(bases)


def _training_data(X, y):
    """X as a 2-D and y as a 1-D float array, checked against each other."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ConfigurationError("X and y row counts differ")
    if not np.all(np.isfinite(y)):
        raise DataError("y has non-finite values (NaN or inf)")
    if X.shape[0] < 3:
        raise ConfigurationError("need at least 3 observations")
    return X, y


def fit_gam(X, y, penalty: PenaltySpec, n_components: int,
            degree: int = DEFAULT_DEGREE, normalize_response: bool = False,
            norm_tol: float = DEFAULT_NORM_TOL) -> GamModel:
    """Fit the additive model on raw predictors X and response y.

    Parameters
    ----------
    penalty : PenaltySpec
        Carries the per-variable weights, difference order, and basis size.
    n_components : int
        Requested number of PLS components; the achieved count may be lower
        and is recorded on the model.
    normalize_response : bool
        Scale the centered response to unit variance before fitting; the
        scale is stored and undone at prediction time.
    """
    X, y = _training_data(X, y)
    if X.shape[1] != penalty.n_variables:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns but the penalty covers "
            f"{penalty.n_variables} variables")
    if n_components < 1:
        raise ConfigurationError("n_components must be at least 1")

    bases = _build_bases(X, penalty.n_basis, degree)
    Z = transform(X, BasisExpansion(bases))
    z_means = Z.mean(axis=0)
    Zc = Z - z_means

    intercept = float(y.mean())
    yc = y - intercept
    scale = None
    if normalize_response:
        sd = float(yc.std())
        if sd > 0.0:
            scale = sd
            yc = yc / sd

    y_span = np.max(np.abs(yc)) if yc.size else 0.0
    if y_span <= 1e-14 * max(1.0, abs(intercept)):
        # constant response: intercept-only model, zero components
        return GamModel(bases=bases, penalty=penalty,
                        beta=np.zeros(Z.shape[1]), intercept=intercept,
                        z_means=z_means, response_scale=scale,
                        n_components=0, requested_components=n_components,
                        fitted=np.full_like(y, intercept))

    preconditioner = make_preconditioner(penalty)
    fit = penalized_pls_fit(Zc, yc, preconditioner,
                            FitConfig(n_components, norm_tol))
    beta = fit.beta
    fitted = intercept + (scale or 1.0) * (Zc @ beta)
    return GamModel(bases=bases, penalty=penalty, beta=beta,
                    intercept=intercept, z_means=z_means,
                    response_scale=scale, n_components=fit.n_components,
                    requested_components=n_components, fitted=fitted)


def predict(model: GamModel, X_new) -> np.ndarray:
    """Score new observations; out-of-domain values are clamped to the
    training range of each variable."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    if X_new.shape[1] != model.n_variables:
        raise ConfigurationError(
            f"expected {model.n_variables} predictor columns, "
            f"got {X_new.shape[1]}")
    Z = transform(X_new, model.expansion)
    centered = Z - model.z_means
    return model.intercept + (model.response_scale or 1.0) * (centered @ model.beta)


def fitted_function(model: GamModel, variable: int,
                    grid_size: int = 200) -> FittedFunction:
    """Evaluate one additive component on an equispaced grid over its
    training range."""
    if not 0 <= variable < model.n_variables:
        raise ConfigurationError(
            f"variable index {variable} out of range for "
            f"{model.n_variables} predictors")
    if grid_size < 2:
        raise ConfigurationError("grid_size must be at least 2")
    basis = model.bases[variable]
    lo, hi = basis.domain
    grid = np.linspace(lo, hi, grid_size)
    B = eval_basis_grid(basis, grid)
    K = model.penalty.n_basis
    sl = slice(variable * K, (variable + 1) * K)
    values = (model.response_scale or 1.0) * (
        (B - model.z_means[sl]) @ model.beta[sl])
    return FittedFunction(variable=variable, grid=grid, values=values)
