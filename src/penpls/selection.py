"""Leave-one-out cross-validation over a shared-lambda grid.

Fold i is the ``fit_gam`` of every row but i: its bases, expansion means,
intercept and centered response come from its training rows only, so the
held-out row never leaks into the fitted model, and a fold with a constant
response is its intercept alone (an early stop at every lambda).  Errors
are on the response's scale, as ``predict`` scores: the PLS loop fits a
fold in units of an exact power of two and reports them, so the held-out
response is put in the same units and the squared errors rescale exactly.

The folds are computed together, not one by one, and in the preconditioner's
Demmler-Reinsch basis: with V the K x K rotation of ``Preconditioner.basis``,
a fold's design Z is replaced by its rotation Z blockdiag(V), where
M = (I + P)^-1 is the diagonal ``Preconditioner.scale``.  The scores Z w,
the fitted paths and the held-out predictions are the same numbers up to
rounding:

* knots: per variable, one ``np.unique`` of the column gives every fold's
  distinct values (``_fold_knots``), so the folds' knots take at most two
  ``np.quantile`` calls, not n ``make_basis`` calls;
* designs: one vectorised search finds the knot windows of every point in
  every fold's bases of a chunk (``_fold_windows``, the same integers as
  ``splines._windows``), and one ``splines._dot_windows`` pass multiplies
  each point's nonzero B-spline values by their rows of V, so the rotated
  designs are built straight from the spline table, with no dense basis
  matrix and no separate rotation (``_fold_designs``).  A fold's rows are
  its training rows, centered by their own means, then its held-out row;
* fits: every fold at every lambda runs in one pass of ``_fold_fits``, the
  PLS recursion in d-space on the fold's S'y and the images S'(S w) of
  its weights, so each step costs two products per fold for all its
  lambdas; the weight step w = M S'r is one scaling of S'r by the
  lambda's diagonal, which is checked to be finite first;
* scores: each step predicts every fit's held-out row from its
  coefficients, both in the rotated basis, so nothing is rotated back and
  no coefficient path is kept.

The folds run in chunks whose designs and fit results stay within
``_FOLD_CHUNK_BYTES``, so memory does not grow with n times the work of a
fold.  Errors are added up fold by fold, in fold order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, DegenerateResponseError,
                     DegenerateVariableError)
from .gam import _response_level, _training_data
from .penalty import (DEFAULT_DIFF_ORDER, PenaltySpec, Preconditioner,
                      make_preconditioner)
from .pls import _NORM_TOL, FitConfig
from .splines import (DEFAULT_DEGREE, DEFAULT_N_BASIS, _check_basis_size,
                      _check_finite, _dot_windows, _knots)

# bytes of one block of leave-one-out value sets in ``_fold_knots``
_CHUNK_BYTES = 2 << 20
# bytes of one chunk of folds: their designs and fit arrays.  The time per
# fold falls only slowly with the chunk: at n = 100, p = 3, K = 20 and 20
# lambdas, 1 MiB holds 3 folds, and 2 MiB held 6 for about 15% less time
# and 1 MB more peak RSS
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


def _fold_windows(knots: np.ndarray, degree: int, X: np.ndarray):
    """``splines._windows`` of every point in its own fold's knot vectors,
    all in one vectorised search.

    ``knots`` is (F, p, width), the knot vector of each fold and variable;
    X is (n, p), the same points for every fold, or (F, n, p), fold f's
    points ``X[f]``.  Returns the F * p padded knot vectors end to end,
    and per point, in (fold, row, variable) order, the entry of that array
    where its window starts, its first window index in its own vector, and
    the clamped point.  The first index is the number of knots at or below
    the clamped point, less one, as ``searchsorted(side="right")`` gives
    it, or at the right boundary the last nonempty knot interval, so it
    equals ``_windows``' exactly.
    """
    F, p, width = knots.shape
    lo, hi = knots[:, None, :, 0], knots[:, None, :, -1]  # (F, 1, p)
    x = np.clip(X, lo, hi)  # (F, n, p)
    # compared with the points innermost, the counts add whole rows
    below = knots[..., None] <= x.transpose(0, 2, 1)[:, :, None]
    first = below.sum(axis=2).transpose(0, 2, 1) - 1
    nonempty = knots[..., 1:] > knots[..., :-1]
    last = width - 2 - np.argmax(nonempty[..., ::-1], axis=-1)  # (F, p)
    first = np.where(x >= hi, last[:, None], first)
    padded = np.concatenate([np.repeat(knots[..., :1], degree, axis=-1),
                             knots,
                             np.repeat(knots[..., -1:], degree + 1, axis=-1)],
                            axis=-1)
    start = first + padded.shape[-1] * np.arange(F * p).reshape(F, 1, p)
    return padded.ravel(), start.ravel(), first.ravel(), x.ravel()


def _fold_designs(X: np.ndarray, knots: list[np.ndarray], degree: int,
                  rotation: np.ndarray) -> np.ndarray:
    """The rows of X expanded in each of F folds' bases and rotated,
    (F, n, p * K): block j of fold f is B V, with B fold f's (n, K) basis
    matrix of column j and V the K x K ``rotation``.  X is (n, p), the
    same rows for every fold, or (F, n, p), fold f's rows ``X[f]``;
    ``knots[j]`` holds the F folds' knot vectors of column j.

    One ``_fold_windows`` search finds every point's window and one
    ``_dot_windows`` pass adds each point's ``degree + 1`` nonzero basis
    values times their rows of V, straight into the design, so B is never
    formed.
    """
    n, p = X.shape[-2:]
    F, width = knots[0].shape
    n_basis = width - degree - 1
    Z = np.zeros((F, n, p * n_basis))
    # row (f, i, j) of this view is block j of fold f's row i
    _dot_windows(*_fold_windows(np.stack(knots, axis=1), degree, X), degree,
                 rotation, Z.reshape(F * n * p, n_basis))
    return Z


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products ``a[..., :] @ b[..., :]``, one BLAS dot each, the call
    ``a[f, l] @ b[f, l]`` on 1-D operands makes."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _fold_fits(S: np.ndarray, y: np.ndarray, held: np.ndarray,
               M: Preconditioner, cfg: FitConfig) -> tuple[np.ndarray, ...]:
    """Penalized PLS fits of F fold designs S (F, n, d), rotated to M's
    eigenbasis, with centered responses y (F, n), at each of the L lambdas
    whose blocks M holds, scored on the held-out rows ``held`` (F, d): fit
    (f, l) is fold f at lambda l.

    Returns the effective weights and their images (each (F, L, m, d)),
    the held-out predictions (F, L, m), each fit's component count k
    (F, L) and each fold's exponent e (F,).  Fit (f, l)'s weights and
    images are its first k[f, l] rows; its predictions are one per
    component, the last repeated after an early stop.  All are in units of
    2^e[f], e[f] the binary exponent of fold f's response peak.

    This is ``pls._pls_loop``'s recursion run in d-space: PLS needs a design
    only through S'y and the images S't of its scores.  With g = S'r for
    the residual r, the weight is w = M g (the diagonal ``M.scale``, which
    checks g is finite) and the score t = S w enters only through its
    image u = S't.  Orthogonalising t against the earlier scores
    t_j = S wt_j takes t_j't = u_j'wt, and updates the effective weight wt
    and its image u with the same coefficients (twice); then t't = wt'u,
    t'r = wt'g, beta += step * wt and g -= step * u with step = t'r / t't,
    until t't <= (``_NORM_TOL`` |t_1|)^2.  Each step predicts the held-out
    row as held'beta.  A fit that stops has g zeroed, so its later
    products are exact zeros and its beta and prediction stay put.

    The images are two products per fold and step for all L lambdas,
    (w S') S: the scores S w, then S' times them.  A gemm rounds a row
    depending on its row count, so a fit is bit for bit the same fit run
    with its fold alone, not with its lambda alone; every other product is
    one BLAS call per fit, as the same fit run alone makes it.
    """
    if not y.any(axis=-1).all():
        raise DegenerateResponseError("centered response is identically zero")
    F, _, d = S.shape
    L, m = M.dim // d, cfg.n_components
    exps = np.frexp(np.max(np.abs(y), axis=-1))[1]
    St = S.transpose(0, 2, 1)
    b = (St @ np.ldexp(y, -exps[:, None])[..., None])[..., 0]
    held = held[:, None, :, None]  # one column per fold, for all L fits

    # row i of fit (f, l): its effective weight, then the weight's image
    wu_rows = np.empty((F, L, m, 2 * d))
    grams = np.empty((F, L, m))  # t't of each kept score (1 where stopped)
    preds = np.empty((F, L, m))
    beta = np.zeros((F, L, d))
    g = np.repeat(b[:, None], L, axis=1)
    active = np.ones((F, L), dtype=bool)
    count = np.zeros((F, L), dtype=int)

    for i in range(m):
        w = M.scale(g.reshape(F, L * d)).reshape(F, L, d)
        wu = wu_rows[:, :, i]
        wu[..., :d] = w
        t = w @ St  # the scores S w
        wu[..., d:] = t @ S
        if i == 0:
            tol = _NORM_TOL * np.sqrt(_dots(t, t))
            gram_tol = tol * tol
        prev = wu_rows[:, :, :i]
        for _ in range(2 if i else 0):
            # Gram-Schmidt twice keeps the scores orthogonal; one gemv per
            # fit each, as a lone fit's 2-D by 1-D products make them
            coef = (prev[..., d:] @ wu[..., :d, None])[..., 0] / grams[..., :i]
            wu -= (coef[..., None, :] @ prev)[..., 0, :]
        wt, u = wu[..., :d], wu[..., d:]
        gram = _dots(wt, u)
        active &= ~(gram <= gram_tol)
        gram = np.where(active, gram, 1.0)
        step = np.where(active, _dots(wt, g), 0.0) / gram
        beta += step[..., None] * wt
        g -= step[..., None] * u
        g[~active] = 0.0

        grams[..., i] = gram
        preds[..., i] = (beta[..., None, :] @ held)[..., 0, 0]
        count += active
        if not active.any():
            preds[..., i + 1:] = preds[..., i, None]
            break

    if not count.all():
        raise DegenerateResponseError("no component could be extracted")
    return wu_rows[..., :d], wu_rows[..., d:], preds, count, exps


def _chunk_errors(X, y, folds, intercepts, knots, M, cfg, degree: int,
                  ref: int):
    """Squared held-out errors (F, L, m), of residuals in units of 2^ref,
    and early-stop flags (F, L) of the F folds holding out rows ``folds``
    (none of them intercept-only), at each of the L lambdas whose blocks
    ``M`` holds.

    The fits run on the fold designs rotated by ``M.basis``, where M is
    the diagonal ``M.scale``, and score the held-out rows in that basis.
    """
    n, p = X.shape
    F, m = len(folds), cfg.n_components
    # fold f's rows: its training rows, then the row it holds out
    train = np.arange(n) != folds[:, None]
    order = np.column_stack([np.nonzero(train)[1].reshape(F, n - 1), folds])
    Z = _fold_designs(X[order], [k[folds] for k in knots], degree, M.basis)
    S, held = Z[:, :-1], Z[:, -1]
    for f in range(F):
        means = S[f].mean(axis=0)
        S[f] -= means
        held[f] -= means
    intercepts = intercepts[folds]
    Y = y[order[:, :-1]]

    *_, preds, count, exps = _fold_fits(S, Y - intercepts[:, None], held, M,
                                        cfg)
    y_held = np.ldexp(y[folds] - intercepts, -exps)  # in the fits' units
    errors = (y_held[:, None, None] - preds) ** 2
    return np.ldexp(errors, 2 * (exps - ref)[:, None, None]), count < m


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
    cfg = FitConfig(max_components)
    lambdas = default_lambda_grid() if lambdas is None else \
        np.asarray(lambdas, dtype=float).ravel()
    if lambdas.size == 0:
        raise ConfigurationError("lambda grid is empty")

    intercepts, live = map(np.array, zip(
        *(_response_level(y[np.arange(n) != i]) for i in range(n))))
    live_folds = np.flatnonzero(live)

    # the grid, order and basis size are checked before the chunk size is
    # reckoned from them
    spec = PenaltySpec(np.repeat(lambdas, p), diff_order, n_basis)
    _check_finite(X)
    _check_basis_size(n_basis, degree)

    # a fold's share of a chunk: its design (training rows and held-out
    # row), and per fit the effective weights and their images, and a
    # step's g, beta, weight, S w, image and two-row products
    d, L, m = p * n_basis, lambdas.size, max_components
    fold_doubles = n * d + L * ((2 * m + 6) * d + n)
    chunk = _FOLD_CHUNK_BYTES // (8 * fold_doubles)
    chunk = max(1, min(chunk, live_folds.size))
    M = make_preconditioner(spec)  # one block per (lambda, variable)

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
            yield from zip(*_chunk_errors(X, y, folds, intercepts, knots, M,
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
            # squared by np.square, rounded like the fits' errors: a scalar
            # ** 2 calls pow(), which can be a unit in the last place off
            errors += np.square(np.ldexp(y[i] - intercepts[i], -ref))
            early_stops += 1

    errors /= n
    choice = _choose(lambdas, errors)  # in units of 2^ref: no cell is inf
    errors = np.ldexp(errors, 2 * ref)  # on the response's scale
    grid = CvGrid(lambdas=lambdas, max_components=max_components,
                  errors=errors, early_stops=early_stops)
    return grid, replace(choice, loo_error=float(np.ldexp(choice.loo_error,
                                                          2 * ref)))
