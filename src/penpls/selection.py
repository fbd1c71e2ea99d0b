"""Leave-one-out cross-validation over a shared-lambda grid.

Fold i is the ``fit_gam`` of every row but i: its bases, expansion means,
intercept and centered response come from its training rows only, so the
held-out row never leaks into the fitted model.  A fold whose response
does not vary (``gam._centered_response``, ``fit_gam``'s rule) is its
intercept alone: it runs with the other folds, with a zero response, so
its fits extract nothing (an early stop at every lambda).  Its basis rows
come from the code that writes ``fit_gam``'s, ``splines._basis_rows``,
rotated by the V below, where ``fit_gam``'s are not, and centered by
``gam._center``.  Errors are on the response's scale, as ``predict``
scores: the PLS loop fits a fold in units of an exact power of two and
reports them, so the held-out response is put in the same units and the
squared errors rescale exactly.

The folds are computed together, not one by one, and in the preconditioner's
Demmler-Reinsch basis: with V the K x K rotation of ``Preconditioner.basis``,
a fold's design Z is replaced by its rotation Z blockdiag(V), where
M = (I + P)^-1 is the diagonal ``Preconditioner.scale``.  The scores Z w,
the fitted paths and the held-out predictions are the same numbers up to
rounding:

* knots: per variable, one ``np.unique`` of the column gives every fold's
  distinct values (``_fold_knots``), so the folds' knots take one
  ``np.quantile`` per ``_FOLD_CHUNK_BYTES // (8 U)`` folds holding out a
  value seen once, of U distinct ones (3,334 calls at U = 20,000, 1 at
  100), and one for the rest, not n ``make_basis`` calls;
* designs: ``splines._fold_designs`` writes a chunk's basis rows, with one
  window search for all its folds, and rotates them in one product.  A
  fold's rows are its training rows, centered by their own means
  (``gam._center``), then its held-out row;
* fits: every fold at every lambda runs in one pass of ``pls._fold_fits``,
  the PLS recursion in d-space, two products per fold and step for all
  its lambdas; the weight step w = M S'r is one scaling of S'r;
* scores: after the fits, the held-out predictions are the running sums
  of each fit's steps times w~'held, in the rotated basis, so nothing is
  rotated back and no coefficient is formed.

All n folds run in one pass, in chunks whose designs and fit results
stay within ``_FOLD_CHUNK_BYTES``, so memory does not grow with n times
the work of a fold.  Errors are added up fold by fold, in fold order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DegenerateVariableError, _as_float
from .gam import _center, _centered_response, _training_data
from .penalty import DEFAULT_DIFF_ORDER, PenaltySpec, make_preconditioner
from .pls import FitConfig, _fold_fits
from .splines import (DEFAULT_DEGREE, DEFAULT_N_BASIS, _check_basis_size,
                      _check_finite, _fold_designs, _knots)

# bytes of one chunk of folds: their designs and fit arrays, or one block
# of ``_fold_knots``' leave-one-out value sets.  The time per fold falls
# only slowly with the chunk: at n = 100, p = 3, K = 20 and 20 lambdas,
# 1 MiB holds 3 folds, and 2 MiB held 6 for about 15% less time and 1 MB
# more peak RSS
_FOLD_CHUNK_BYTES = 1 << 20


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
    blocks of at most ``_FOLD_CHUNK_BYTES``.
    """
    distinct, inverse, counts = np.unique(col, return_inverse=True,
                                          return_counts=True)
    knots = np.empty((col.size, n_basis + degree + 1))
    single = counts[inverse] == 1
    if not single.all():
        knots[~single] = _knots(distinct, n_basis, degree)
    rows = np.flatnonzero(single)
    block = max(1, _FOLD_CHUNK_BYTES // (8 * distinct.size))
    kept = np.arange(distinct.size - 1)
    for lo in range(0, rows.size, block):
        held = inverse[rows[lo:lo + block], None]
        values = np.where(kept < held, distinct[:-1], distinct[1:])
        knots[rows[lo:lo + block]] = _knots(values, n_basis, degree)
    return knots, distinct.size - single


def _chunk_errors(X, y, folds, knots, M, cfg, degree: int, ref: int,
                  wu_rows):
    """Squared held-out errors (F, L, m), of residuals in units of 2^ref,
    and early-stop flags (F, L) of the F folds holding out rows ``folds``,
    at each of the L lambdas whose blocks ``M`` holds; ``knots[i]`` holds
    fold i's p knot vectors, m ``_fold_fits``' count, and ``wu_rows`` the
    (F, L, m, 2d) rows it fills.  A fit is flagged if it stops before the
    requested count.

    Each fold's intercept, and whether its response varies, come from its
    own training responses, as ``fit_gam``'s do.  A fold whose response
    does not vary is its intercept alone: its centered response is zero,
    so its fits extract nothing and predict 0, and its residual is in
    units of 2^ref.  The fits run on the fold designs rotated by
    ``M.basis``, where M is the diagonal ``M.scale``, and score the
    held-out rows in that basis.
    """
    n, F = len(X), len(folds)
    # fold f's rows: its training rows, then the row it holds out
    train = np.arange(n) != folds[:, None]
    order = np.column_stack([np.nonzero(train)[1].reshape(F, n - 1), folds])
    Z = _fold_designs(X[order], knots[folds], degree, M.basis)
    _center(Z, n - 1)
    intercepts, Y, varies = _centered_response(y[order[:, :-1]])

    Wt, _, steps, count, exps = _fold_fits(Z[:, :-1], Y, M, cfg, wu_rows)
    preds = np.cumsum(steps * (Wt @ Z[:, -1, None, :, None])[..., 0], axis=-1)
    exps = np.where(varies, exps, ref)
    y_held = np.ldexp(y[folds] - intercepts, -exps)  # in the fits' units
    errors = (y_held[:, None, None] - preds) ** 2
    return (np.ldexp(errors, 2 * (exps - ref)[:, None, None]),
            count < cfg.n_components)


def loocv(X, y, lambdas=None, max_components: int = 10,
          n_basis: int = DEFAULT_N_BASIS, degree: int = DEFAULT_DEGREE,
          diff_order: int = DEFAULT_DIFF_ORDER) -> tuple[CvGrid, CvChoice]:
    """Leave-one-out error for every (lambda, m) cell plus the chosen cell.

    Raises
    ------
    DataError
        If X or y holds NaN or an infinity.
    ConfigurationError
        For a bad grid, component count, basis size, degree or order, or
        a component count whose error grid cannot be allocated.
    DegenerateVariableError
        If some fold's training rows give a predictor fewer than two
        distinct values; the message names the first such fold, then the
        first such column.
    """
    X, y = _training_data(X, y)
    n, p = X.shape
    cfg = FitConfig(max_components)
    lambdas = default_lambda_grid() if lambdas is None else \
        _as_float(lambdas, "lambdas").ravel()
    if lambdas.size == 0:
        raise ConfigurationError("lambda grid is empty")

    # the grid, order and basis size are checked before the chunk size is
    # reckoned from them
    spec = PenaltySpec(np.repeat(lambdas, p), diff_order, n_basis)
    _check_finite(X)
    _check_basis_size(n_basis, degree)

    d, L = p * n_basis, lambdas.size
    try:
        errors = np.zeros((L, max_components))
    except (ValueError, MemoryError):
        raise ConfigurationError(f"max_components={max_components}: cannot "
                                 f"allocate its ({L}, {max_components}) error "
                                 f"grid") from None
    # no fold fit has more components than n - 1 rows or d columns hold,
    # so the grid's later columns repeat its m-th.  A fold's share of a
    # chunk: its design (training rows and held-out row), and per fit the
    # effective weights and their images, and a step's g, weight, S w,
    # image and two-row products
    m = min(max_components, n - 1, d)
    fold_doubles = n * d + L * ((2 * m + 5) * d + n)
    chunk = max(1, _FOLD_CHUNK_BYTES // (8 * fold_doubles))
    M = make_preconditioner(spec)  # one block per (lambda, variable)

    knots, n_distinct = zip(*(_fold_knots(X[:, j], n_basis, degree)
                              for j in range(p)))
    knots = np.stack(knots, axis=1)  # (n, p, width)
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

    early_stops = np.zeros(L, dtype=int)
    # one block of fit rows for every chunk (``_fold_fits``)
    wu_rows = np.empty((min(chunk, n), L, m, 2 * d))
    for lo in range(0, n, chunk):
        folds = np.arange(lo, min(lo + chunk, n))
        for fold_err, stopped in zip(*_chunk_errors(
                X, y, folds, knots, M, cfg, degree, ref,
                wu_rows[:len(folds)])):
            errors[:, :m] += fold_err
            early_stops += stopped

    errors[:, m:] = errors[:, m - 1:m]
    errors /= n
    choice = _choose(lambdas, errors)  # in units of 2^ref: no cell is inf
    errors = np.ldexp(errors, 2 * ref)  # on the response's scale
    grid = CvGrid(lambdas=lambdas, max_components=max_components,
                  errors=errors, early_stops=early_stops)
    return grid, replace(choice, loo_error=float(np.ldexp(choice.loo_error,
                                                          2 * ref)))
