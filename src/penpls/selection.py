"""Leave-one-out cross-validation over a shared-lambda grid.

All preprocessing (knot placement, centering, optional response scaling) is
recomputed from each fold's training rows only, so the held-out row never
leaks into the fitted model.  One fit per (fold, lambda) at the maximum
component count scores every smaller component count from the coefficient
path in the same pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateVariableError
from .gam import _build_bases, _training_data
from .penalty import DEFAULT_DIFF_ORDER, PenaltySpec, make_preconditioner
from .pls import DEFAULT_NORM_TOL, FitConfig, penalized_pls_fit
from .splines import BasisExpansion, DEFAULT_DEGREE, DEFAULT_N_BASIS, transform


def default_lambda_grid() -> np.ndarray:
    """Logarithmic 20-point grid spanning 1e-2 .. 1e6."""
    return np.logspace(-2, 6, 20)


@dataclass(frozen=True)
class CvGrid:
    lambdas: np.ndarray
    max_components: int
    errors: np.ndarray  # (len(lambdas), max_components) mean LOO squared errors


@dataclass(frozen=True)
class CvChoice:
    lambda_opt: float
    m_opt: int
    loo_error: float


def score_path(beta_path, held_row, held_response) -> np.ndarray:
    """Squared prediction errors of every coefficient vector in a path.

    ``held_row`` must already be expanded and centered with the training
    statistics, and ``held_response`` expressed on the model's working scale.
    """
    beta_path = np.atleast_2d(np.asarray(beta_path, dtype=float))
    if beta_path.size == 0:
        raise ConfigurationError("empty coefficient path")
    preds = np.asarray(held_row, dtype=float) @ beta_path
    return (float(held_response) - preds) ** 2


def _choose(lambdas, errors) -> CvChoice:
    # smallest error, then smallest m, then largest lambda
    best = errors.min()
    cells = np.argwhere(errors == best)
    cells = cells[np.lexsort((-lambdas[cells[:, 0]], cells[:, 1]))]
    li, mi = cells[0]
    return CvChoice(lambda_opt=float(lambdas[li]), m_opt=int(mi) + 1,
                    loo_error=float(errors[li, mi]))


def loocv(X, y, lambdas=None, max_components: int = 10,
          n_basis: int = DEFAULT_N_BASIS, degree: int = DEFAULT_DEGREE,
          diff_order: int = DEFAULT_DIFF_ORDER,
          normalize_response: bool = False,
          norm_tol: float = DEFAULT_NORM_TOL) -> tuple[CvGrid, CvChoice]:
    """Leave-one-out error for every (lambda, m) cell plus the chosen cell."""
    X, y = _training_data(X, y)
    n, p = X.shape
    if max_components < 1:
        raise ConfigurationError("max_components must be at least 1")
    lambdas = default_lambda_grid() if lambdas is None else \
        np.asarray(lambdas, dtype=float).ravel()
    if lambdas.size == 0:
        raise ConfigurationError("lambda grid is empty")
    if np.any(lambdas < 0):
        raise ConfigurationError("lambda values must be nonnegative")

    preconditioners = [
        make_preconditioner(PenaltySpec.shared(lam, p, n_basis, diff_order))
        for lam in lambdas]

    errors = np.zeros((lambdas.size, max_components))
    for i in range(n):
        keep = np.arange(n) != i
        X_tr, y_tr = X[keep], y[keep]
        try:
            bases = _build_bases(X_tr, n_basis, degree)
        except DegenerateVariableError as exc:
            raise DegenerateVariableError(
                f"fold holding out row {i}: {exc}") from exc
        expansion = BasisExpansion(bases)
        Z_tr = transform(X_tr, expansion)
        z_means = Z_tr.mean(axis=0)
        Zc = Z_tr - z_means
        y_mean = y_tr.mean()
        yc = y_tr - y_mean
        scale = 1.0
        if normalize_response:
            sd = float(yc.std())
            if sd > 0.0:
                scale = sd
                yc = yc / sd
        z_held = transform(X[i:i + 1], expansion)[0] - z_means
        y_held = (y[i] - y_mean) / scale

        for li in range(lambdas.size):
            fit = penalized_pls_fit(Zc, yc, preconditioners[li],
                                    FitConfig(max_components, norm_tol))
            fold_err = score_path(fit.beta_path, z_held, y_held)
            if fold_err.size < max_components:  # early stop: path is final
                fold_err = np.concatenate([
                    fold_err,
                    np.full(max_components - fold_err.size, fold_err[-1])])
            errors[li] += fold_err

    errors /= n
    grid = CvGrid(lambdas=lambdas, max_components=max_components,
                  errors=errors)
    return grid, _choose(lambdas, errors)
