"""Leave-one-out cross-validation over a shared-lambda grid.

Each fold is a ``fit_gam`` of its training rows: ``gam._design`` preprocesses
those rows only, so the held-out row never leaks into the fitted model, and a
fold with a constant response is its intercept alone (an early stop at every
lambda).  Errors are on the response's scale, as ``predict`` scores: a
fold's working response is its centered response times an exact power of
two, so the held-out response and the squared errors rescale exactly.  Each
fold fits every lambda at the maximum component count in one stacked
penalized-PLS pass (``penalized_pls_fits``) on its one centered design; each
fit is bit-identical to a lone ``penalized_pls_fit``.  One fit scores every
smaller component count from its coefficient path.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DegenerateVariableError
from .gam import _centered_rows, _design, _training_data
from .penalty import DEFAULT_DIFF_ORDER, PenaltySpec, make_preconditioner
from .pls import FitConfig, penalized_pls_fits
from .splines import DEFAULT_DEGREE, DEFAULT_N_BASIS

def default_lambda_grid() -> np.ndarray:
    """Logarithmic 20-point grid spanning 1e-2 .. 1e6."""
    return np.logspace(-2, 6, 20)


@dataclass(frozen=True)
class CvGrid:
    lambdas: np.ndarray
    max_components: int
    errors: np.ndarray  # (len(lambdas), max_components) mean LOO squared errors
    early_stops: np.ndarray  # (len(lambdas),) folds stopped before max_components


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
          diff_order: int = DEFAULT_DIFF_ORDER) -> tuple[CvGrid, CvChoice]:
    """Leave-one-out error for every (lambda, m) cell plus the chosen cell."""
    X, y = _training_data(X, y)
    n, p = X.shape
    if max_components < 1:
        raise ConfigurationError("max_components must be at least 1")
    lambdas = default_lambda_grid() if lambdas is None else \
        np.asarray(lambdas, dtype=float).ravel()
    if lambdas.size == 0:
        raise ConfigurationError("lambda grid is empty")

    M = make_preconditioner(PenaltySpec(np.repeat(lambdas, p), diff_order,
                                        n_basis))
    cfg = FitConfig(max_components)

    # errors add up in units of 2^ref, near the centered response's peak,
    # so no square overflows; a power of two rescales exactly at the end
    ref = int(np.frexp(np.max(np.abs(y - y.mean())))[1])
    errors = np.zeros((lambdas.size, max_components))
    early_stops = np.zeros(lambdas.size, dtype=int)
    for i in range(n):
        keep = np.arange(n) != i
        try:
            bases, z_means, Zc, intercept, yc, exponent = _design(
                X[keep], y[keep], n_basis, degree)
        except DegenerateVariableError as exc:
            raise DegenerateVariableError(
                f"fold holding out row {i}: {exc}") from exc
        z_held = _centered_rows(X[i:i + 1], bases, z_means)[0]
        if yc is None:  # intercept-only fold: predicts its mean at every cell
            errors += np.ldexp(y[i] - intercept, -ref) ** 2
            early_stops += 1
            continue
        y_held = np.ldexp(y[i] - intercept, -exponent)  # on yc's scale

        for li, fit in enumerate(penalized_pls_fits(Zc, yc, M, cfg)):
            fold_err = score_path(fit.beta_path, z_held, y_held)
            if fit.early_stopped:  # the path is final: pad with its end
                early_stops[li] += 1
                pad = max_components - fold_err.size
                fold_err = np.pad(fold_err, (0, pad), "edge")
            errors[li] += np.ldexp(fold_err, 2 * (exponent - ref))

    errors /= n
    choice = _choose(lambdas, errors)  # in units of 2^ref: no cell is inf
    errors = np.ldexp(errors, 2 * ref)  # on the response's scale
    grid = CvGrid(lambdas=lambdas, max_components=max_components,
                  errors=errors, early_stops=early_stops)
    return grid, replace(choice, loo_error=float(np.ldexp(choice.loo_error,
                                                          2 * ref)))
