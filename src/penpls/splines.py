"""B-spline bases and the expansion of a raw data matrix into basis features.

Each predictor variable gets its own basis.  A data matrix with p columns is
mapped to a matrix with p*K columns, grouped contiguously by variable, where
K is the number of basis functions per variable.

One Cox-de Boor recursion, ``_tables``, evaluates all points of a column
at once and computes, per point, only the ``degree + 1`` basis functions
that are nonzero there (local support).  Its work is ``degree`` array
passes over a ``(degree + 1, len(xs))`` table, not over every knot
interval, run in cache-sized slices of points.  The table has two
consumers:

* ``_eval_windows`` scatters it into the dense basis matrix.  This is
  ``eval_basis_grid`` (one column) and ``transform`` (a whole data matrix),
  which the fit uses; ``loocv`` calls it on every fold's basis at once.
* ``_dot_windows`` multiplies it by the gathered coefficients of each
  point's nonzero functions.  This is ``transform_dot``, the product
  ``transform(X) @ coef`` without the dense matrix, from which prediction
  and fitted curves are scored.

Non-finite data are rejected where they enter, in ``make_basis``,
``transform`` and ``transform_dot``, rather than given an all-zero basis
row; ``eval_basis_grid`` clamps infinities to the boundary and rejects NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateVariableError

DEFAULT_N_BASIS = 20
DEFAULT_DEGREE = 3
# points per pass of the recursion in ``_tables``: a pass's
# temporaries stay in a 2 MB L2 cache
_SLICE = 4096


@dataclass(frozen=True)
class SplineBasis:
    """A univariate B-spline basis defined by a degree and a padded knot vector.

    The knot vector contains the boundary knots repeated ``degree + 1`` times
    (open / clamped convention), so the basis interpolates at the boundaries
    and sums to one everywhere inside ``[knots[0], knots[-1]]``.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        knots.setflags(write=False)
        if self.degree < 0:
            raise ConfigurationError("degree must be nonnegative")
        if not np.isfinite(knots).all():
            raise ConfigurationError("knots must be finite")
        if np.any(np.diff(knots) < 0):
            raise ConfigurationError("knots must be nondecreasing")
        if len(knots) < self.degree + 2:
            raise ConfigurationError("too few knots for the given degree")

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])


@dataclass(frozen=True)
class BasisExpansion:
    """One SplineBasis per predictor; column blocks follow the variable order."""

    bases: tuple[SplineBasis, ...]

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(self.bases))
        if not self.bases:
            raise ConfigurationError("expansion needs at least one basis")

    @property
    def n_variables(self) -> int:
        return len(self.bases)


def make_basis(values, n_basis: int = DEFAULT_N_BASIS,
               degree: int = DEFAULT_DEGREE) -> SplineBasis:
    """Build a clamped B-spline basis from observed values of one variable.

    Boundary knots sit at the min and max of ``values``; the
    ``n_basis - degree - 1`` interior knots are placed at equally spaced
    quantiles of the distinct values.

    Raises
    ------
    ConfigurationError
        If ``n_basis < degree + 1``.
    DataError
        If ``values`` contains NaN or an infinity.
    DegenerateVariableError
        If ``values`` has fewer than two distinct entries.
    """
    values = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(values)):
        raise DataError("variable has non-finite values (NaN or inf)")
    _check_basis_size(n_basis, degree)
    distinct = np.unique(values)
    if distinct.size < 2:
        raise DegenerateVariableError(
            "variable has fewer than 2 distinct values")
    return SplineBasis(degree=degree, knots=_knots(distinct, n_basis, degree))


def _knots(distinct: np.ndarray, n_basis: int, degree: int) -> np.ndarray:
    """The clamped knot vector of sorted distinct values, along the last
    axis: ``degree + 1`` copies of the min, the ``n_basis - degree - 1``
    interior knots at equally spaced quantiles, ``degree + 1`` copies of
    the max.  ``make_basis`` passes one value set; ``loocv`` a matrix of
    them, one row per fold, for one ``np.quantile`` over all rows.
    """
    n_interior = n_basis - degree - 1
    probs = np.arange(1, n_interior + 1) / (n_interior + 1)
    interior = np.moveaxis(np.quantile(distinct, probs, axis=-1), 0, -1)
    edge = distinct.shape[:-1] + (degree + 1,)
    return np.concatenate([np.broadcast_to(distinct[..., :1], edge), interior,
                           np.broadcast_to(distinct[..., -1:], edge)],
                          axis=-1)


def _check_basis_size(n_basis: int, degree: int):
    if degree < 0:
        raise ConfigurationError("degree must be nonnegative")
    if n_basis < degree + 1:
        raise ConfigurationError(
            f"n_basis={n_basis} is too small for degree {degree} "
            f"(need at least {degree + 1})")


def eval_basis_grid(basis: SplineBasis, xs) -> np.ndarray:
    """Evaluate every basis function at many points; returns a (len(xs), K)
    matrix whose row i is the basis at ``xs[i]``.

    Only the ``degree + 1`` functions that are nonzero at a point are
    evaluated (local support; de Boor's BSPLVB).  ``_windows`` locates each
    point's knot window; ``_eval_windows`` runs the recursion on those
    windows and scatters the result.  The two parts work on plain arrays,
    so ``loocv`` feeds ``_eval_windows`` the windows of many knot vectors
    at once.

    Points are clamped to the boundary-knot interval first, so out-of-domain
    points are evaluated at the nearest boundary.  The right boundary, which
    no half-open interval contains, is assigned to the last nonempty one.

    Raises
    ------
    DataError
        If ``xs`` contains NaN.
    """
    padded, mu, x = _windows(basis.knots, basis.degree, xs)
    return _eval_windows(padded, mu, mu, x, basis.degree, basis.n_basis)


def _windows(knots: np.ndarray, degree: int, xs):
    """The padded knot vector, each point's first window index and the
    clamped points, for the knot vector ``knots``.

    One ``searchsorted`` finds each point's half-open knot interval
    ``[t_mu, t_{mu+1})``.  Entry q of the padded vector is knot q - degree,
    so the ``2 * degree + 2`` knots around point i are entries
    ``mu[i] .. mu[i] + 2 * degree + 1``; the padding (``degree`` copies of
    the left boundary, ``degree + 1`` of the right) keeps every such index
    in range.  Its values reach only functions outside [0, K), which an
    unclamped knot vector's windows hold and which ``_eval_windows`` cuts
    off.
    """
    t, d = knots, degree
    lo, hi = t[0], t[-1]
    x = np.clip(np.asarray(xs, dtype=float).ravel(), lo, hi)
    if np.isnan(x).any():
        raise DataError("points to evaluate include NaN")
    mu = np.searchsorted(t, x, side="right") - 1
    at_end = x >= hi
    if at_end.any():
        mu[at_end] = np.nonzero(t[1:] > t[:-1])[0][-1]
    padded = np.concatenate([np.full(d, lo), t, np.full(d + 1, hi)])
    return padded, mu, x


def _eval_windows(padded: np.ndarray, start: np.ndarray, first: np.ndarray,
                  x: np.ndarray, degree: int, n_basis: int) -> np.ndarray:
    """The (len(x), n_basis) basis matrix of points x whose knot windows
    begin at entries ``start`` of ``padded``.

    Point i's nonzero functions are ``first[i] - degree .. first[i]``.  For
    one knot vector ``start`` is ``first``; ``padded`` may also be several
    padded vectors end to end, each point's ``start`` offset to its own
    vector, as long as no window crosses into the next one.

    ``_tables`` evaluates the nonzero functions and this scatters them into
    the dense result; entries for columns outside ``[0, K)``, which only
    unclamped knot vectors produce, are dropped.
    """
    d = degree
    # column c of the wide matrix is basis function c - d, so the columns
    # of functions that do not exist (unclamped knots) are cut off
    wide = np.zeros((len(x), n_basis + 2 * d))
    rows = np.arange(d + 1)[:, None]
    for lo, b in _tables(padded, start, x, d):
        m = b.shape[1]
        wide[lo:lo + m][np.arange(m), rows + first[lo:lo + m]] = b
    return wide[:, d:d + n_basis]


def _dot_windows(padded: np.ndarray, first: np.ndarray, x: np.ndarray,
                 degree: int, coef: np.ndarray, out: np.ndarray):
    """Add ``sum_k B_k(x[i]) * coef[k]`` to ``out[i]`` for each point, where
    ``B_k`` are the functions of the one knot vector ``padded`` and the
    points' knot windows begin at ``first``.

    Only the ``degree + 1`` nonzero functions of each point are multiplied
    by their gathered coefficients ``coef[first[i] - degree + r]``, summed
    in the order r = 0 .. degree, so each point's value is independent of
    the slicing and of every other point.  Functions outside ``[0, K)``
    (unclamped knots) get a zero coefficient.
    """
    d = degree
    wide = np.concatenate([np.zeros(d), coef, np.zeros(d)])
    rows = np.arange(d + 1)[:, None]
    for lo, b in _tables(padded, first, x, d):
        m = b.shape[1]
        # entry first + r of wide is the coefficient of function
        # first - d + r
        terms = np.take(wide, rows + first[lo:lo + m])
        terms *= b
        acc = out[lo:lo + m]
        for term in terms:
            acc += term


def _tables(padded: np.ndarray, start: np.ndarray, x: np.ndarray,
            degree: int):
    """Yield ``(lo, table)`` per slice of at most ``_SLICE`` points from
    ``lo``: row r of the ``(degree + 1, len(slice))`` table holds, for each
    point, basis function ``first - degree + r``, evaluated on the
    ``2 * degree + 2`` knots at entries ``start .. start + 2 * degree + 1``
    of ``padded``.  This is the one Cox-de Boor recursion; a table is
    overwritten by the next slice.

    Degree 0 is the indicator of the point's interval; each of the
    ``degree`` passes then combines neighbouring rows with the knot-ratio
    weights ``(x - t_j) / (t_{j+k} - t_j)`` and
    ``(t_{j+k+1} - x) / (t_{j+k+1} - t_{j+1})``, a weight being zero where
    its knot span is empty.  Each table entry comes from the same
    floating-point operations on the same operands as in the Cox-de Boor
    recursion over all ``len(knots) - 1`` intervals, whose other terms are
    exact zeros, so it is that recursion's bit for bit.

    Slicing keeps a pass's temporaries cache-sized.  Every operation is per
    point, so the slicing changes no value.

    Each weight is clipped to [0, 1].  Wherever the lower-degree function it
    multiplies is nonzero the weight already lies in [0, 1], so the clip
    changes no value; elsewhere it keeps a ratio that overflows on a
    subnormal knot span from turning ``0 * inf`` into NaN; that overflow is
    expected and not warned about.
    """
    d = degree
    # entry q of dens[k - 1] is t[q + k] - t[q] in padded terms; an empty
    # span divides by inf, which gives a zero weight
    dens = []
    for k in range(1, d + 1):
        span = padded[k:] - padded[:-k]
        dens.append(np.where(span > 0, span, np.inf))
    window = np.arange(2 * d + 2)[:, None]
    for lo in range(0, len(x), _SLICE):
        xs = x[lo:lo + _SLICE]
        # row r of idx, and of the gathered knots tw, belongs to knot
        # first - d + r
        idx = window + start[lo:lo + _SLICE]
        tw = np.take(padded, idx)
        # row i holds basis function first - d + i; rows no pass has
        # reached yet, and row d + 1, are zero
        b = np.zeros((d + 2, len(xs)))
        b[d] = 1.0
        with np.errstate(over="ignore"):
            for k in range(1, d + 1):
                rows = slice(d - k, d + 1)
                den = np.take(dens[k - 1], idx[d - k:d + 2])
                w1 = xs - tw[rows]
                np.divide(w1, den[:-1], out=w1)
                np.clip(w1, 0.0, 1.0, out=w1)
                w2 = tw[d + 1:d + k + 2] - xs
                np.divide(w2, den[1:], out=w2)
                np.clip(w2, 0.0, 1.0, out=w2)
                w2 *= b[d - k + 1:d + 2]
                b[rows] *= w1
                b[rows] += w2
        yield lo, b[:d + 1]


def transform(X, expansion: BasisExpansion) -> np.ndarray:
    """Expand an n x p matrix into the n x (p*K) B-spline feature matrix.

    Row i is the concatenation of the per-variable basis evaluations at
    ``X[i, :]``, in the block order of ``expansion.bases``.  Each block is
    one ``eval_basis_grid`` call over the whole column.

    Raises
    ------
    ConfigurationError
        If the column count of X differs from the number of bases.
    DataError
        If X contains NaN or an infinity.
    """
    X = _checked_matrix(X, expansion)
    # each block is written as soon as it is evaluated, so no more than one
    # block's evaluation is held beside the result
    Z = np.empty((X.shape[0], sum(b.n_basis for b in expansion.bases)))
    start = 0
    for j, basis in enumerate(expansion.bases):
        Z[:, start:start + basis.n_basis] = eval_basis_grid(basis, X[:, j])
        start += basis.n_basis
    return Z


def transform_dot(X, expansion: BasisExpansion, coef) -> np.ndarray:
    """``transform(X, expansion) @ coef``, to rounding, without the dense
    matrix: per variable, each point's ``degree + 1`` nonzero basis values
    are multiplied by their coefficients straight from the recursion's
    table (``_dot_windows``).  Memory is O(n) beside X, not O(n * p * K).

    Row i's value is the sum over variables in block order, each
    variable's terms summed in basis order, so it depends on ``X[i]``
    alone, not on the other rows or the slicing.

    Raises
    ------
    ConfigurationError
        If the column count of X differs from the number of bases, or the
        length of ``coef`` from the number of basis functions.
    DataError
        If X contains NaN or an infinity.
    """
    X = _checked_matrix(X, expansion)
    coef = np.asarray(coef, dtype=float)
    n_total = sum(b.n_basis for b in expansion.bases)
    if coef.shape != (n_total,):
        raise ConfigurationError(
            f"coef has shape {coef.shape}; the expansion has {n_total} "
            f"basis functions")
    out = np.zeros(X.shape[0])
    start = 0
    for j, basis in enumerate(expansion.bases):
        padded, first, x = _windows(basis.knots, basis.degree, X[:, j])
        _dot_windows(padded, first, x, basis.degree,
                     coef[start:start + basis.n_basis], out)
        start += basis.n_basis
    return out


def _checked_matrix(X, expansion: BasisExpansion) -> np.ndarray:
    """X as a finite 2-D float array with one column per basis."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != expansion.n_variables:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns but the expansion was built "
            f"for {expansion.n_variables} variables")
    _check_finite(X)
    return X


def _check_finite(X: np.ndarray):
    finite = np.isfinite(X)
    if not finite.all():
        bad = np.nonzero(~finite.all(axis=0))[0].tolist()
        raise DataError(f"X has non-finite values (NaN or inf) in columns {bad}")
