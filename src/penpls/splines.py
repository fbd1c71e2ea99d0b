"""B-spline bases and the expansion of a raw data matrix into basis features.

Each predictor variable gets its own basis.  A data matrix with p columns is
mapped to a matrix with p*K columns, grouped contiguously by variable, where
K is the number of basis functions per variable.

``eval_basis_grid`` is the one evaluator: a Cox-de Boor recursion over all
points of a column at once that computes, per point, only the ``degree + 1``
basis functions that are nonzero there (local support).  Its work is
``degree`` array passes over a ``(degree + 1, len(xs))`` table, not over
every knot interval.  ``transform`` (a whole data matrix) and, through it,
prediction and fitted curves all use it.  Non-finite data are rejected where
they enter, in ``make_basis`` and ``transform``, rather than given an
all-zero basis row; ``eval_basis_grid`` clamps infinities to the boundary
and rejects NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateVariableError

DEFAULT_N_BASIS = 20
DEFAULT_DEGREE = 3


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
    if n_basis < degree + 1:
        raise ConfigurationError(
            f"n_basis={n_basis} is too small for degree {degree} "
            f"(need at least {degree + 1})")
    distinct = np.unique(values)
    if distinct.size < 2:
        raise DegenerateVariableError(
            "variable has fewer than 2 distinct values")
    lo, hi = distinct[0], distinct[-1]
    n_interior = n_basis - degree - 1
    if n_interior > 0:
        probs = np.arange(1, n_interior + 1) / (n_interior + 1)
        interior = np.quantile(distinct, probs)
    else:
        interior = np.empty(0)
    knots = np.concatenate([
        np.full(degree + 1, lo), interior, np.full(degree + 1, hi)])
    return SplineBasis(degree=degree, knots=knots)


def eval_basis_grid(basis: SplineBasis, xs) -> np.ndarray:
    """Evaluate every basis function at many points; returns a (len(xs), K)
    matrix whose row i is the basis at ``xs[i]``.

    Only the ``degree + 1`` functions that are nonzero at a point are
    evaluated (local support; de Boor's BSPLVB).  One ``searchsorted`` finds
    each point's half-open knot interval ``[t_mu, t_{mu+1})``, and the
    ``2 * degree + 2`` knots around it are gathered once.  Degree 0 is the
    indicator of that interval; each of the ``degree`` passes then combines
    neighbouring rows of a ``(degree + 1, len(xs))`` table with the
    knot-ratio weights ``(x - t_j) / (t_{j+k} - t_j)`` and
    ``(t_{j+k+1} - x) / (t_{j+k+1} - t_{j+1})``, a weight being zero where its
    knot span is empty.  The table is scattered into the dense result; its
    entries for columns outside ``[0, K)``, which only unclamped knot vectors
    produce, are dropped.  Each kept entry comes from the same floating-point
    operations on the same operands as in the Cox-de Boor recursion over all
    ``len(knots) - 1`` intervals, whose other terms are exact zeros, so the
    result is that recursion's bit for bit.

    Points are clamped to the boundary-knot interval first, so out-of-domain
    points are evaluated at the nearest boundary.  The right boundary, which
    no half-open interval contains, is assigned to the last nonempty one.

    Each weight is clipped to [0, 1].  Wherever the lower-degree function it
    multiplies is nonzero the weight already lies in [0, 1], so the clip
    changes no value; elsewhere it keeps a ratio that overflows on a
    subnormal knot span from turning ``0 * inf`` into NaN; that overflow is
    expected and not warned about.

    Raises
    ------
    DataError
        If ``xs`` contains NaN.
    """
    t = basis.knots
    d = basis.degree
    lo, hi = t[0], t[-1]
    x = np.clip(np.asarray(xs, dtype=float).ravel(), lo, hi)
    if np.isnan(x).any():
        raise DataError("points to evaluate include NaN")
    mu = np.searchsorted(t, x, side="right") - 1
    at_end = x >= hi
    if at_end.any():
        mu[at_end] = np.nonzero(t[1:] > t[:-1])[0][-1]
    # entry p of the padded vector is knot p - d.  The padding keeps every
    # window index in range; its values reach only functions outside
    # [0, K), which an unclamped knot vector's windows hold and which are
    # cut off below
    padded = np.concatenate([np.full(d, lo), t, np.full(d + 1, hi)])
    # row r of idx, and of the gathered knots tw, belongs to knot mu - d + r
    idx = np.arange(2 * d + 2)[:, None] + mu
    tw = np.take(padded, idx)
    # row i holds basis function mu - d + i; rows no pass has reached yet,
    # and row d + 1, are zero
    b = np.zeros((d + 2, len(x)))
    b[d] = 1.0
    with np.errstate(over="ignore"):
        for k in range(1, d + 1):
            rows = slice(d - k, d + 1)
            # t[j + k] - t[j] for j = mu - k .. mu + 1; an empty span
            # divides by inf, which gives a zero weight
            span = padded[k:] - padded[:-k]
            den = np.take(np.where(span > 0, span, np.inf), idx[d - k:d + 2])
            w1 = x - tw[rows]
            np.divide(w1, den[:-1], out=w1)
            np.clip(w1, 0.0, 1.0, out=w1)
            w2 = tw[d + 1:d + k + 2] - x
            np.divide(w2, den[1:], out=w2)
            np.clip(w2, 0.0, 1.0, out=w2)
            w2 *= b[d - k + 1:d + 2]
            b[rows] *= w1
            b[rows] += w2
    # column c of the wide matrix is basis function c - d, so the columns
    # of functions that do not exist (unclamped knots) are cut off
    wide = np.zeros((len(x), basis.n_basis + 2 * d))
    wide[np.arange(len(x)), idx[:d + 1]] = b[:d + 1]
    return wide[:, d:d + basis.n_basis]


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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != expansion.n_variables:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns but the expansion was built "
            f"for {expansion.n_variables} variables")
    finite = np.isfinite(X)
    if not finite.all():
        bad = np.nonzero(~finite.all(axis=0))[0].tolist()
        raise DataError(f"X has non-finite values (NaN or inf) in columns {bad}")
    # each block is written as soon as it is evaluated, so no more than one
    # block's evaluation is held beside the result
    Z = np.empty((X.shape[0], sum(b.n_basis for b in expansion.bases)))
    start = 0
    for j, basis in enumerate(expansion.bases):
        Z[:, start:start + basis.n_basis] = eval_basis_grid(basis, X[:, j])
        start += basis.n_basis
    return Z
