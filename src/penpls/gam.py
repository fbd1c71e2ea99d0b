"""The additive-model estimator: expansion, centering, fit, prediction.

A model is fit by expanding each predictor in a B-spline basis, centering the
expanded columns and the response, running penalized PLS, and storing the
centering statistics so new observations can be scored honestly.
``_design`` does this preprocessing for ``fit_gam``; ``loocv`` builds the
bases and designs of all its folds together (see ``selection``).
The fit is scale-equivariant in y, so coefficients are stored on the
response's own scale; ``_design``'s exact power of two is the one rescaling.

Fitting needs the dense centered design; scoring does not.  ``predict`` and
``fitted_function`` both go through ``_score``, which multiplies each
point's nonzero basis values, straight from the spline recursion's table,
by their coefficients (``splines.transform_dot``) and adds one constant.
The same code thus scores a fitted model and a reloaded one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateVariableError
from .penalty import PenaltySpec, make_preconditioner
from .pls import FitConfig, penalized_pls_fit
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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ConfigurationError("X and y row counts differ")
    if not np.all(np.isfinite(y)):
        raise DataError("y has non-finite values (NaN or inf)")
    if X.shape[0] < 3:
        raise ConfigurationError("need at least 3 observations")
    return X, y


def _design(X, y, n_basis: int, degree: int):
    """Bases, expansion means, centered expansion, intercept, working
    response and its binary exponent e of one training set.  ``yc`` is None
    when the response is constant to rounding: the model is then its
    intercept alone.

    The working response is the centered response times 2^-e, chosen so
    that its largest magnitude lies in [0.5, 1), so the scale of y cannot
    push the squares and norms of the PLS loop out of floating-point range.
    The loop is linear in y and a power of two scales exactly, so a
    coefficient fitted to ``yc`` times 2^e is bit for bit the one fitted to
    the unscaled response."""
    bases = []
    for j in range(X.shape[1]):
        try:
            bases.append(make_basis(X[:, j], n_basis, degree))
        except (DataError, DegenerateVariableError) as exc:
            raise type(exc)(f"predictor column {j}: {exc}") from exc
    bases = tuple(bases)
    Zc = transform(X, BasisExpansion(bases))
    z_means = Zc.mean(axis=0)
    Zc -= z_means

    intercept, exponent = _response_scale(y)
    if exponent is None:
        return bases, z_means, Zc, intercept, None, 0
    return bases, z_means, Zc, intercept, np.ldexp(y - intercept, -exponent), \
        exponent


def _response_scale(y):
    """Intercept and the binary exponent e of the centered response's peak
    (see ``_design``); e is None when the response is constant to
    rounding."""
    intercept = float(y.mean())
    peak = np.max(np.abs(y - intercept))
    if peak <= 1e-14 * np.max(np.abs(y)):
        return intercept, None
    return intercept, int(np.frexp(peak)[1])


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

    bases, z_means, Zc, intercept, yc, exponent = _design(
        X, y, penalty.n_basis, degree)
    if yc is None:  # constant response: intercept-only model, zero components
        beta, k = np.zeros(Zc.shape[1]), 0
    else:
        fit = penalized_pls_fit(Zc, yc, make_preconditioner(penalty), cfg)
        beta, k = np.ldexp(fit.beta, exponent), fit.n_components
    fitted = intercept + Zc @ beta
    return GamModel(bases=bases, penalty=penalty, beta=beta,
                    intercept=intercept, z_means=z_means, n_components=k,
                    requested_components=n_components, fitted=fitted)


def predict(model: GamModel, X_new) -> np.ndarray:
    """Score new observations; out-of-domain values are clamped to the
    training range of each variable."""
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
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
    if not 0 <= variable < model.n_variables:
        raise ConfigurationError(
            f"variable index {variable} out of range for "
            f"{model.n_variables} predictors")
    if grid_size < 2:
        raise ConfigurationError("grid_size must be at least 2")
    basis = model.bases[variable]
    lo, hi = basis.domain
    grid = np.linspace(lo, hi, grid_size)
    K = model.penalty.n_basis
    sl = slice(variable * K, (variable + 1) * K)
    values = _score(grid[:, None], (basis,), model.beta[sl],
                    model.z_means[sl], 0.0)
    return FittedFunction(variable=variable, grid=grid, values=values)
