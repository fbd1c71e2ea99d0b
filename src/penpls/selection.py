"""Leave-one-out cross-validation over a shared-lambda grid.

Fold i is the ``fit_gam`` of every row but i: its bases, expansion means,
intercept and working response come from its training rows only, so the
held-out row never leaks into the fitted model, and a fold with a constant
response is its intercept alone (an early stop at every lambda).  Errors
are on the response's scale, as ``predict`` scores: a fold's working
response is its centered response times an exact power of two, so the
held-out response and the squared errors rescale exactly.

The folds are computed together, not one by one, and every result is bit
for bit the one-fold-at-a-time computation's:

* knots: per variable, one ``np.unique`` of the column gives every fold's
  distinct values (``_fold_knots``), so the folds' knots take at most two
  ``np.quantile`` calls, not n ``make_basis`` calls;
* designs: per variable, one ``splines._eval_windows`` call evaluates all n
  rows in every fold's basis, the folds' padded knot vectors laid end to
  end (``_fold_designs``); a fold's design is its training rows, centered
  by their own means, and its held-out row is sliced from the same
  evaluation;
* fits: every fold at every lambda runs in one ``pls._pls_loop`` pass on
  the stacked fold designs, each fit bit-identical to a lone one;
* scores: one stacked product scores every fit's whole coefficient path.

The folds run in chunks whose designs and fit results stay within
``_CHUNK_BYTES``, so memory does not grow with n times the work of a fold.
Errors are added up fold by fold, in fold order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DegenerateVariableError
from .gam import _response_scale, _training_data
from .penalty import DEFAULT_DIFF_ORDER, PenaltySpec, make_preconditioner
from .pls import FitConfig, _columns, _pls_loop, _primal_weights
from .splines import (DEFAULT_DEGREE, DEFAULT_N_BASIS, _check_basis_size,
                      _check_finite, _eval_windows, _knots, _windows)

# bytes of one chunk of folds: their designs and their fits' stacked results
_CHUNK_BYTES = 2 << 20


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


def _choose(lambdas, errors) -> CvChoice:
    # smallest error, then smallest m, then largest lambda
    best = errors.min()
    cells = np.argwhere(errors == best)
    cells = cells[np.lexsort((-lambdas[cells[:, 0]], cells[:, 1]))]
    li, mi = cells[0]
    return CvChoice(lambda_opt=float(lambdas[li]), m_opt=int(mi) + 1,
                    loo_error=float(errors[li, mi]))


def _fold_knots(col: np.ndarray, n_basis: int, degree: int):
    """Every leave-one-out fold's knot vector for one predictor column, and
    each fold's count of distinct values.

    Row i of the (n, n_basis + degree + 1) knot matrix is
    ``make_basis(col without row i, n_basis, degree).knots`` bit for bit,
    except that a column holding both -0.0 and 0.0 can give a zero knot
    the other sign (``np.unique`` keeps one of two equal values).
    A fold that holds out a repeated value keeps all U distinct values of
    the column, so those folds share one knot vector.  A fold that holds
    out a value seen once keeps the other U - 1; those sets are the rows of
    one matrix, given to ``splines._knots`` (``make_basis``'s knot rule) in
    blocks of at most ``_CHUNK_BYTES``.
    """
    distinct, inverse, counts = np.unique(col, return_inverse=True,
                                          return_counts=True)
    knots = np.empty((col.size, n_basis + degree + 1))
    single = counts[inverse] == 1
    if not single.all():
        knots[~single] = _knots(distinct, n_basis, degree)
    rows = np.flatnonzero(single)
    block = max(1, _CHUNK_BYTES // (8 * distinct.size))
    kept = np.arange(distinct.size - 1)
    for lo in range(0, rows.size, block):
        held = inverse[rows[lo:lo + block], None]
        values = np.where(kept < held, distinct[:-1], distinct[1:])
        knots[rows[lo:lo + block]] = _knots(values, n_basis, degree)
    return knots, distinct.size - single


def _fold_designs(X: np.ndarray, knots: list[np.ndarray],
                  degree: int) -> np.ndarray:
    """All n rows of X expanded in each of F folds' bases, (F, n, p * K);
    ``knots[j]`` holds the F folds' knot vectors of column j.

    Per column, one ``_eval_windows`` call evaluates every fold: the folds'
    padded knot vectors are laid end to end and each fold's window indices
    offset into its own vector.
    """
    n, p = X.shape
    F, width = knots[0].shape
    n_basis = width - degree - 1
    Z = np.empty((F, n, p * n_basis))
    for j in range(p):
        padded, first, x = (np.concatenate(part) for part in zip(
            *(_windows(t, degree, X[:, j]) for t in knots[j])))
        start = first + np.repeat(np.arange(F) * (padded.size // F), n)
        Z[:, :, j * n_basis:(j + 1) * n_basis] = _eval_windows(
            padded, start, first, x, degree, n_basis).reshape(F, n, n_basis)
    return Z


def _chunk_errors(X, y, folds, intercepts, exponents, knots, M, cfg,
                  degree: int, ref: int):
    """Squared held-out errors (F, L, m), of residuals in units of 2^ref,
    and early-stop flags (F, L) of the F folds holding out rows ``folds``
    (none of them intercept-only), at each of the L lambdas whose blocks
    ``M`` holds."""
    n, p = X.shape
    F, m = len(folds), cfg.n_components
    Z = _fold_designs(X, [k[folds] for k in knots], degree)
    d = Z.shape[2]
    L = M.dim // (F * d)
    at = np.arange(F), folds
    train = np.ones((F, n), dtype=bool)
    train[at] = False
    S = Z[train].reshape(F, n - 1, d)
    held = Z[at]
    del Z
    for f in range(F):
        means = S[f].mean(axis=0)
        S[f] -= means
        held[f] -= means
    intercepts, exponents = intercepts[folds], exponents[folds]
    Y = np.broadcast_to(y, (F, n))[train].reshape(F, n - 1)
    Y = np.ldexp(Y - intercepts[:, None], -exponents[:, None])
    y_held = np.ldexp(y[folds] - intercepts, -exponents)  # on Y's scale

    *_, betas, _, count = _pls_loop(S, Y, cfg, _primal_weights(S, M), F * L)
    paths = np.ascontiguousarray(
        betas.reshape(F, L, m, d).transpose(0, 1, 3, 2))
    errors = (y_held[:, None, None] -
              (held[:, None, None] @ paths)[:, :, 0]) ** 2
    # an early-stopped path is final: scored at its own length (a product's
    # rounding depends on its column count), then padded with its end
    stopped = count < m
    for fl in np.flatnonzero(stopped):
        f, k = fl // L, count[fl]
        err = (y_held[f] - held[f] @ _columns(betas[fl], k)) ** 2
        errors[f, fl % L] = np.pad(err, (0, m - k), "edge")
    return (np.ldexp(errors, 2 * (exponents - ref)[:, None, None]),
            stopped.reshape(F, L))


def loocv(X, y, lambdas=None, max_components: int = 10,
          n_basis: int = DEFAULT_N_BASIS, degree: int = DEFAULT_DEGREE,
          diff_order: int = DEFAULT_DIFF_ORDER) -> tuple[CvGrid, CvChoice]:
    """Leave-one-out error for every (lambda, m) cell plus the chosen cell.

    Raises
    ------
    DataError
        If X or y holds NaN or an infinity.
    ConfigurationError
        For a bad grid, component count, basis size, degree or order.
    DegenerateVariableError
        If some fold's training rows give a predictor fewer than two
        distinct values; the message names the first such fold, then the
        first such column.
    """
    X, y = _training_data(X, y)
    n, p = X.shape
    if max_components < 1:
        raise ConfigurationError("max_components must be at least 1")
    lambdas = default_lambda_grid() if lambdas is None else \
        np.asarray(lambdas, dtype=float).ravel()
    if lambdas.size == 0:
        raise ConfigurationError("lambda grid is empty")

    scales = [_response_scale(y[np.arange(n) != i]) for i in range(n)]
    intercepts = np.array([c for c, _ in scales])
    live = np.array([e is not None for _, e in scales])
    exponents = np.array([0 if e is None else e for _, e in scales])
    live_folds = np.flatnonzero(live)

    # the grid, order and basis size are checked before the chunk size is
    # reckoned from them
    spec = PenaltySpec(np.repeat(lambdas, p), diff_order, n_basis)
    _check_finite(X)
    _check_basis_size(n_basis, degree)

    def preconditioner(n_folds):  # one block per (fold, lambda, variable)
        return make_preconditioner(
            replace(spec, lambdas=np.tile(spec.lambdas, n_folds)))

    # a fold's share of a chunk: its design over all rows and over its
    # training rows, and per fit the weights, effective weights,
    # coefficient path, its scoring copy and the scores
    d, L, m = p * n_basis, lambdas.size, max_components
    chunk = _CHUNK_BYTES // (8 * (2 * n * d + L * m * (4 * d + n)))
    chunk = max(1, min(chunk, live_folds.size))
    M = preconditioner(chunk)
    cfg = FitConfig(max_components)

    knots, n_distinct = zip(*(_fold_knots(X[:, j], n_basis, degree)
                              for j in range(p)))
    degenerate = np.array(n_distinct) < 2  # (p, n)
    if degenerate.any():
        i = int(np.flatnonzero(degenerate.any(axis=0))[0])
        j = int(np.flatnonzero(degenerate[:, i])[0])
        raise DegenerateVariableError(
            f"fold holding out row {i}: predictor column {j}: variable has "
            f"fewer than 2 distinct values")

    # errors add up in units of 2^ref, near the centered response's peak,
    # so no square overflows; a power of two rescales exactly at the end
    ref = int(np.frexp(np.max(np.abs(y - y.mean())))[1])

    def live_errors():
        for lo in range(0, live_folds.size, chunk):
            folds = live_folds[lo:lo + chunk]
            yield from zip(*_chunk_errors(
                X, y, folds, intercepts, exponents, knots,
                M if folds.size == chunk else preconditioner(folds.size),
                cfg, degree, ref))

    errors = np.zeros((L, m))
    early_stops = np.zeros(L, dtype=int)
    fits = live_errors()
    for i in range(n):
        if live[i]:
            fold_err, stopped = next(fits)
            errors += fold_err
            early_stops += stopped
        else:  # intercept-only fold: predicts its mean at every cell
            errors += np.ldexp(y[i] - intercepts[i], -ref) ** 2
            early_stops += 1

    errors /= n
    choice = _choose(lambdas, errors)  # in units of 2^ref: no cell is inf
    errors = np.ldexp(errors, 2 * ref)  # on the response's scale
    grid = CvGrid(lambdas=lambdas, max_components=max_components,
                  errors=errors, early_stops=early_stops)
    return grid, replace(choice, loo_error=float(np.ldexp(choice.loo_error,
                                                          2 * ref)))
