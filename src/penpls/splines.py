"""B-spline bases and the expansion of a raw data matrix into basis features.

Each predictor variable gets its own basis.  A data matrix with p columns is
mapped to a matrix with p*K columns, grouped contiguously by variable, where
K is the number of basis functions per variable.

``eval_basis_grid`` is the one evaluator: a Cox-de Boor recursion over all
points of a column at once.  ``eval_basis`` (one point), ``transform`` (a
whole data matrix) and, through them, prediction and fitted curves all use
it.  Non-finite data are rejected where they enter, in ``make_basis`` and
``transform``, rather than given an all-zero basis row.
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

    The Cox-de Boor recursion runs on all points at once.  Degree 0 is the
    indicator of the half-open knot interval ``[t_j, t_{j+1})`` holding each
    point; each of the ``degree`` passes then combines neighbouring columns
    with the knot-ratio weights ``(x - t_j) / (t_{j+k} - t_j)`` and
    ``(t_{j+k+1} - x) / (t_{j+k+1} - t_{j+1})``, a weight being zero where its
    knot span is empty.  The work is ``degree`` array passes over an
    ``(len(xs), len(knots) - 1)`` array rather than a loop over points.

    Points are clamped to the boundary-knot interval first, so out-of-domain
    points are evaluated at the nearest boundary.  The right boundary, which
    no half-open interval contains, is assigned to the last nonempty one.

    Each weight is clipped to [0, 1].  Wherever the lower-degree function it
    multiplies is nonzero the weight already lies in [0, 1], so the clip
    changes no value; elsewhere it keeps a ratio that overflows on a
    subnormal knot span from turning ``0 * inf`` into NaN; that overflow is
    expected and not warned about.
    """
    t = basis.knots
    lo, hi = t[0], t[-1]
    x = np.clip(np.asarray(xs, dtype=float).ravel(), lo, hi)[:, None]

    left = t[:-1]
    right = t[1:]
    b = ((left <= x) & (x < right)).astype(float)
    at_end = x[:, 0] >= hi
    if at_end.any():
        b[at_end] = 0.0
        b[at_end, np.nonzero(right > left)[0][-1]] = 1.0
    with np.errstate(over="ignore"):
        for k in range(1, basis.degree + 1):
            nb = b.shape[1] - 1
            # an empty span divides by inf, which gives a zero weight
            den1 = t[k:k + nb] - t[:nb]
            den2 = t[k + 1:k + 1 + nb] - t[1:1 + nb]
            w1 = x - t[:nb]
            np.divide(w1, np.where(den1 > 0, den1, np.inf), out=w1)
            np.clip(w1, 0.0, 1.0, out=w1)
            w2 = t[k + 1:k + 1 + nb] - x
            np.divide(w2, np.where(den2 > 0, den2, np.inf), out=w2)
            np.clip(w2, 0.0, 1.0, out=w2)
            w1 *= b[:, :-1]
            w2 *= b[:, 1:]
            w1 += w2
            b = w1
    return b


def eval_basis(basis: SplineBasis, x: float) -> np.ndarray:
    """Evaluate all basis functions at one point (one row of
    ``eval_basis_grid``)."""
    return eval_basis_grid(basis, [x])[0]


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
    blocks = [eval_basis_grid(b, X[:, j]) for j, b in enumerate(expansion.bases)]
    return np.hstack(blocks)
