"""B-spline bases and the expansion of a raw data matrix into basis features.

Each predictor variable gets its own basis, and the bases of an expansion
share one degree and one size K, so their knots form one (p, K + degree + 1)
matrix.  A data matrix with p columns is mapped to a matrix with p*K
columns, grouped contiguously by variable.

One search, ``_windows``, finds each point's knot window, in one knot
vector or in every fold's at once.  One recurrence, de Boor's BSPLVB
(``_bsplvb``), gives from a window the ``degree + 1`` B-splines nonzero
at a point (local support), one array pass per degree.  Its two users:

* the basis matrix.  ``_basis_rows`` writes the last pass, in cache-sized
  slices of points, into its columns of a zeroed matrix, the basis rows
  of every point in its own knot vector.  This is every basis matrix:
  ``eval_basis_grid`` is its one-vector case, ``transform`` (``fit_gam``'s
  design) makes one such call per column of a data matrix, and
  ``_fold_designs``, the rotated designs B V of a chunk of ``loocv``'s
  folds, multiplies the rows of all folds by the preconditioner's
  Demmler-Reinsch rotation V in one product;
* the fitted curves.  A spline ``sum_k coef[k] B_k`` is one polynomial of
  degree ``degree`` on each knot interval.  ``_pp_table`` converts it to
  that piecewise-polynomial form (de Boor's BSPLPP), taking every pass of
  the recurrence at each interval's left knot, and ``pp_dot`` scores a
  point from it, ``transform(X) @ coef`` without the dense matrix and
  without the recurrence at the point: its interval's ``degree + 1``
  coefficients and ``degree`` Horner steps.  One table call serves every
  variable of an expansion.  This scores prediction and fitted curves.

Every basis is clamped, so a point's window of knots and functions lies
in its own knot vector.  A vector wider than the largest double is
evaluated on halved knots and points (``_halved``), so no span overflows.
Non-finite data are rejected where they enter, in ``make_basis``,
``transform`` and ``pp_dot``, rather than given an all-zero basis row;
``eval_basis_grid`` clamps infinities to the boundary and rejects NaN.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import (ConfigurationError, DataError, DegenerateVariableError,
                     _as_float, _check_int)

DEFAULT_N_BASIS = 20
DEFAULT_DEGREE = 3
# points per slice of ``_basis_rows`` and ``_windows``: a pass's
# temporaries stay in a 2 MB L2 cache
_SLICE = 4096


@dataclass(frozen=True)
class SplineBasis:
    """A univariate B-spline basis defined by a degree and a clamped knot vector.

    The knot vector contains the boundary knots repeated ``degree + 1`` times
    (de Boor's open / clamped convention), so the basis interpolates at the
    boundaries and sums to one everywhere inside ``[knots[0], knots[-1]]``.
    ``make_basis`` and model files give such vectors.

    Raises
    ------
    ConfigurationError
        If ``knots`` is not a finite nondecreasing vector, or not clamped:
        each end repeated ``degree + 1`` times, ``knots[0] < knots[-1]``.
    """

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        knots = _as_float(self.knots, "knots")
        object.__setattr__(self, "knots", knots)
        knots.setflags(write=False)
        _check_int(self.degree, "degree", 0)
        if knots.ndim != 1:
            raise ConfigurationError("knots must be a vector")
        if not np.isfinite(knots).all():
            raise ConfigurationError("knots must be finite")
        if np.any(knots[1:] < knots[:-1]):
            raise ConfigurationError("knots must be nondecreasing")
        d = self.degree
        if len(knots) < 2 * d + 2:
            raise ConfigurationError("too few knots for the given degree")
        if (knots[:d + 1] != knots[0]).any() or (
                knots[-d - 1:] != knots[-1]).any() or knots[0] == knots[-1]:
            raise ConfigurationError(
                f"knots must be clamped: each end repeated degree + 1 = "
                f"{d + 1} times, with knots[0] < knots[-1]")

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])


@dataclass(frozen=True)
class BasisExpansion:
    """One SplineBasis per predictor, all of one degree and size K; column
    blocks follow the variable order.  ``knots`` is the read-only
    ``(p, K + degree + 1)`` matrix of the bases' knot vectors.  Raises
    ``ConfigurationError`` for no bases, a non-basis, or mixed shapes.
    """

    bases: tuple[SplineBasis, ...]
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "bases", tuple(self.bases))
        except TypeError:
            raise ConfigurationError(
                "bases must be a sequence of SplineBasis") from None
        if not self.bases:
            raise ConfigurationError("expansion needs at least one basis")
        for j, basis in enumerate(self.bases):
            _check_type(basis, SplineBasis, f"bases[{j}]")
        shapes = [(b.degree, b.n_basis) for b in self.bases]
        if len(set(shapes)) > 1:
            raise ConfigurationError(
                f"bases of (degree, size) {shapes}: an expansion's bases "
                f"share one degree and one size")
        knots = np.stack([b.knots for b in self.bases])
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def n_variables(self) -> int:
        return len(self.bases)

    @property
    def degree(self) -> int:
        return self.bases[0].degree

    @property
    def n_basis(self) -> int:
        return self.bases[0].n_basis


def make_basis(values, n_basis: int = DEFAULT_N_BASIS,
               degree: int = DEFAULT_DEGREE) -> SplineBasis:
    """Build a clamped B-spline basis from observed values of one variable.

    Boundary knots sit at the min and max of ``values``; the
    ``n_basis - degree - 1`` interior knots are placed at equally spaced
    quantiles of the distinct values.

    Raises
    ------
    ConfigurationError
        If ``n_basis < degree + 1``, or no array can hold its knots.
    DataError
        If ``values`` contains NaN or an infinity.
    DegenerateVariableError
        If ``values`` has fewer than two distinct entries.
    """
    values = _as_float(values, "values").ravel()
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
    try:
        probs = np.arange(1, n_interior + 1) / (n_interior + 1)
    except (ValueError, MemoryError):
        raise ConfigurationError(f"n_basis={n_basis}: cannot allocate its "
                                 f"{n_interior} interior knots") from None
    interior = np.moveaxis(np.quantile(distinct, probs, axis=-1), 0, -1)
    edge = distinct.shape[:-1] + (degree + 1,)
    return np.concatenate([np.broadcast_to(distinct[..., :1], edge), interior,
                           np.broadcast_to(distinct[..., -1:], edge)],
                          axis=-1)


def _check_basis_size(n_basis: int, degree: int):
    _check_int(n_basis, "n_basis")
    _check_int(degree, "degree", 0)
    if n_basis < degree + 1:
        raise ConfigurationError(
            f"n_basis={n_basis} is too small for degree {degree} "
            f"(need at least {degree + 1})")


def eval_basis_grid(basis: SplineBasis, xs) -> np.ndarray:
    """Evaluate every basis function at many points; returns a (n, K)
    matrix whose row i is the basis at point i of ``xs`` flattened (so n is
    ``xs``' size, whatever its shape).

    Only the ``degree + 1`` functions that are nonzero at a point are
    evaluated (local support; de Boor's BSPLVB): this is ``_basis_rows`` of
    the one knot vector.

    Points are clamped to the boundary-knot interval first, so out-of-domain
    points are evaluated at the nearest boundary.  The right boundary, which
    no half-open interval contains, is assigned to the last nonempty one.

    Raises
    ------
    ConfigurationError
        If ``basis`` is not a ``SplineBasis``.
    DataError
        If ``xs`` contains NaN.
    """
    _check_type(basis, SplineBasis, "basis")
    x = _as_float(xs, "xs").ravel()
    if np.isnan(x).any():
        raise DataError("points to evaluate include NaN")
    return _basis_rows(basis.knots[None, None], basis.degree, x[:, None])


def _basis_rows(knots: np.ndarray, degree: int, X: np.ndarray) -> np.ndarray:
    """The basis rows of every point in its own knot vector, (F * n * p, K)
    in (set, row, column) order: ``knots`` and X are ``_windows``' (F sets
    of p vectors of one width, and (n, p) or (F, n, p) points), and K is
    the vectors' basis size.

    ``_windows`` locates each point's window and the last ``_bsplvb`` pass
    is written into its columns of a zeroed matrix, plus +0.0, so a
    table's -0.0 reads +0.0.  Each entry is one table value or +0.0.
    """
    d = degree
    n_basis = knots.shape[-1] - d - 1
    knots, X = _halved(knots, X)
    start, first, x = _windows(knots, d, X)
    knots = knots.ravel()
    out = np.zeros((len(x), n_basis))
    # row r of point i's table is function first - d + r, entry
    # K * i + first - d + r of out flattened
    cells = first - d + n_basis * np.arange(len(x))
    window, rows = np.arange(2 * d + 2)[:, None], np.arange(d + 1)[:, None]
    # every operation is per point, so the slicing changes no value
    for lo in range(0, len(x), _SLICE):
        points = slice(lo, lo + _SLICE)
        # row r of the window is knot first - d + r
        *_, table = _bsplvb(knots[window + start[points]], x[points], d)
        out.put(cells[points] + rows, table + 0.0)
    return out


def _halved(knots: np.ndarray, X: np.ndarray):
    """Knot vectors along the last axis of ``knots`` and their points, the
    columns of X, with each vector whose width ``hi - lo`` overflows halved,
    and its points.  A basis is unchanged by one scale of its knots and
    points, and halving a normal number is exact; no span or distance of a
    halved vector overflows.  Other vectors and points are as given.
    """
    with np.errstate(over="ignore"):
        wide = np.isinf(knots[..., -1] - knots[..., 0])
    if not wide.any():
        return knots, X
    return (np.where(wide[..., None], knots / 2, knots),
            np.where(np.expand_dims(wide, -2), X / 2, X))


def _windows(knots: np.ndarray, degree: int, X: np.ndarray):
    """Every point's knot window in its own knot vector, in one search.

    ``knots`` is (F, p, width), F sets (folds) of one clamped knot vector
    per column; X is (n, p), the same points for every set, or (F, n, p).
    Returns per point, in (set, row, column) order, the entry of
    ``knots.ravel()`` where its window, knots ``mu - degree .. mu + degree
    + 1``, starts, its first window index mu within its own vector, and
    the point clamped to its vector's boundaries.

    mu is the number of knots at or below the point, less one, so the
    point lies in ``[t_mu, t_{mu+1})``; at the right boundary, which no
    half-open interval holds, it is the last nonempty interval.  Below
    that boundary a clamped point is at or above the ``degree + 1`` low
    end knots and below the high ones, so mu is ``degree`` plus the count
    of interior knots at or below it, and the window lies in the vector.
    Points are counted capped at the largest double below the boundary, so
    a point on it counts the interior knots below it and lands in the last
    nonempty interval.  The interior knots are compared with at most
    ``_SLICE`` points at a time.  The counts are summed as bytes, several
    times faster than as integers, when there are at most 255 interior
    knots, so no count can overflow.  NaN points are the callers' to reject.
    """
    F, p, width = knots.shape
    lo, hi = knots[:, None, :, 0], knots[:, None, :, -1]  # (F, 1, p)
    x = np.clip(X, lo, hi)  # (F, n, p)
    cap = np.nextafter(hi, -np.inf)
    interior = knots[..., degree + 1:width - degree - 1, None]
    first = np.empty(x.shape, dtype=np.intp)
    rows = max(1, _SLICE // max(F * p, 1))
    count = np.uint8 if interior.shape[2] < 256 else np.intp
    for a in range(0, x.shape[1], rows):
        # compared with the points innermost, the counts add whole rows
        xs = np.minimum(x[:, a:a + rows], cap).transpose(0, 2, 1)
        below = interior <= xs[:, :, None]
        first[:, a:a + rows] = np.add.reduce(
            below.view(np.uint8), axis=2, dtype=count).transpose(0, 2, 1)
    first += degree
    start = first - degree + width * np.arange(F * p).reshape(F, 1, p)
    return start.ravel(), first.ravel(), x.ravel()


def _fold_designs(X: np.ndarray, knots: np.ndarray, degree: int,
                  rotation: np.ndarray) -> np.ndarray:
    """The rows of X expanded in each of F folds' bases and rotated,
    (F, n, p * K): block j of fold f is B V, with B fold f's (n, K) basis
    matrix of column j and V the K x K ``rotation``.  X is (n, p), the
    same rows for every fold, or (F, n, p), fold f's rows ``X[f]``;
    ``knots[f, j]`` is fold f's knot vector of column j.  One
    ``_basis_rows`` call writes every fold's basis rows, and one product
    rotates them all.  With the identity for V this is the basis matrix
    that ``eval_basis_grid`` writes, bit for bit.
    """
    n, p = X.shape[-2:]
    rows = _basis_rows(knots, degree, X)
    # row (f, i, j) of rows is block j of fold f's row i
    return (rows @ rotation).reshape(len(knots), n, p * len(rotation))


def _bsplvb(tw: np.ndarray, x: np.ndarray, degree: int):
    """de Boor's BSPLVB recurrence, the one B-spline recursion.  Rows ``0 ..
    2 * degree + 1`` of ``tw`` are each point's window knots ``mu - degree
    .. mu + degree + 1``, with x in ``[t_mu, t_{mu+1}]``; pass q = 0 ..
    ``degree`` yields the degree-q B-splines ``mu - q .. mu`` at x, a
    ``(q + 1, len(x))`` array that the next pass overwrites.  The last pass
    is the basis table.

    Degree 0 is the indicator of the point's interval; each pass combines
    neighbouring functions with the weights ``(x - t_j) / (t_{j+q} - t_j)``
    and ``(t_{j+q+1} - x) / (t_{j+q+1} - t_{j+1})``, zero where the span is
    empty.  Each value comes from the same floating-point operations on the
    same operands as in the Cox-de Boor recursion over every interval of
    the vector, whose other terms are exact zeros, so it is that
    recursion's bit for bit.

    Each weight is clipped to [0, 1].  Wherever the lower-degree function it
    multiplies is nonzero the weight already lies in [0, 1], so the clip
    changes no value; elsewhere it keeps a ratio that overflows on a
    subnormal knot span from turning ``0 * inf`` into NaN; that overflow is
    expected and not warned about.
    """
    d = degree
    # the weights' numerators: x - t_j for the first d + 1 knots and
    # t_j - x for the rest, the same in every pass
    left = x - tw[:d + 1]
    right = tw[d + 1:] - x
    # row i holds function mu - d + i; rows no pass has reached yet, and
    # row d + 1, are zero
    b = np.zeros((d + 2, len(x)))
    b[d] = 1.0
    yield b[d:d + 1]
    for q in range(1, d + 1):
        rows = slice(d - q, d + 1)
        # row i is t_{j+q} - t_j for window knot j = d - q + i; an empty
        # span divides by inf, which gives a zero weight
        span = tw[d:d + q + 2] - tw[d - q:d + 2]
        span[span <= 0] = np.inf
        with np.errstate(over="ignore"):
            w1 = np.divide(left[rows], span[:-1])
            w2 = np.divide(right[:q + 1], span[1:])
        w1.clip(0.0, 1.0, out=w1)
        w2.clip(0.0, 1.0, out=w2)
        w2 *= b[d - q + 1:d + 2]
        b[rows] *= w1
        b[rows] += w2
        yield b[rows]


def transform(X, expansion: BasisExpansion) -> np.ndarray:
    """Expand an n x p matrix into the n x (p*K) B-spline feature matrix.

    Row i is the concatenation of the per-variable basis evaluations at
    ``X[i, :]``, in the block order of ``expansion.bases``, K columns each.
    Each block is one ``eval_basis_grid`` call over the whole column.

    Raises
    ------
    ConfigurationError
        If ``expansion`` is not a ``BasisExpansion``, or the column count of
        X differs from the number of bases.
    DataError
        If X contains NaN or an infinity.
    """
    X = _checked_matrix(X, expansion)
    # each block is written as soon as it is evaluated, so no more than one
    # block's evaluation is held beside the result
    K = expansion.n_basis
    Z = np.empty((X.shape[0], expansion.n_variables * K))
    for j, basis in enumerate(expansion.bases):
        Z[:, j * K:(j + 1) * K] = eval_basis_grid(basis, X[:, j])
    return Z


def pp_dot(X, expansion: BasisExpansion, coef) -> np.ndarray:
    """``transform(X, expansion) @ coef``, to rounding, without the dense
    matrix and without the recurrence at X: one piecewise-polynomial table
    ``_pp_table`` of every variable, then per variable each point's knot
    window from ``_windows``, its interval's ``degree + 1`` coefficients
    from the table, and ``degree`` Horner steps in the interval's local
    coordinate.  Memory is O(n) beside X, not O(n * p * K).

    Row i's value is the sum over variables in block order, so it depends
    on ``X[i]`` alone, not on the other rows.  Points are clamped to each
    basis's domain, so each lies in a nonempty interval.

    Raises
    ------
    ConfigurationError
        If ``expansion`` is not a ``BasisExpansion``, the column count of X
        differs from the number of bases, or the length of ``coef`` from the
        number of basis functions.
    DataError
        If X contains NaN or an infinity.
    """
    X = _checked_matrix(X, expansion)
    coef = _as_float(coef, "coef")
    p, d = expansion.n_variables, expansion.degree
    if coef.shape != (p * expansion.n_basis,):
        raise ConfigurationError(
            f"coef has shape {coef.shape}; the expansion has "
            f"{p * expansion.n_basis} basis functions")
    knots, X = _halved(expansion.knots, X)
    tables = _pp_table(knots, d, coef.reshape(p, -1))
    out = np.zeros(X.shape[0])
    for j, (t, table) in enumerate(zip(knots, tables)):
        _, first, x = _windows(knots[None, j:j + 1], d, X[:, j:j + 1])
        value = table[d].take(first)
        if d:
            left = t.take(first)
            s = x - left
            s /= t.take(first + 1) - left
            for r in range(d - 1, -1, -1):
                value *= s
                value += table[r].take(first)
        out += value
    return out


def _pp_table(knots: np.ndarray, degree: int, coef: np.ndarray) -> np.ndarray:
    """The piecewise-polynomial (pp) form of each spline ``sum_k coef[j, k]
    B_k`` on knot vector ``knots[j]``, for (p, width) ``knots`` and (p, K)
    ``coef``: a ``(p, degree + 1, width - 1)`` table whose column mu of
    block j holds, for a nonempty interval ``[t_mu, t_{mu+1})`` of width h,
    the Taylor coefficients ``a_r h^r`` of spline j's piece there, so that
    the piece is ``sum_r table[j, r, mu] s^r`` in the local coordinate
    ``s = (x - t_mu) / h`` in [0, 1].  Columns of empty intervals are zero.

    This is de Boor's B-form to pp-form conversion (BSPLPP, *A Practical
    Guide to Splines*, 1978), vectorised over the intervals and restricted
    to the ``degree + 1`` coefficients and the knot spans that reach each
    interval: the derivative coefficients' differences are taken in units
    of h, and the lower-degree B-splines at ``t_mu`` are the passes of
    ``_bsplvb``, the recurrence that writes the basis rows, on the
    interval's window.  Every span that weighs a nonzero value covers the
    interval, so each such ratio, ``h / span`` or a knot's distance from
    ``t_mu`` over the span, lies in [0, 1]; ``_bsplvb`` clips the weights
    of the zero values, so a subnormal span gives neither inf nor NaN.
    The vector is clamped, so the knots ``mu - degree .. mu + degree + 1``
    and the functions ``mu - degree .. mu`` of a nonempty interval mu are
    all the vector's own.  Every step is per interval, so one table of p
    vectors is each vector's own table, bit for bit.
    """
    d = degree
    table = np.zeros((len(knots), d + 1, knots.shape[1] - 1))
    j, mu = np.nonzero(knots[:, 1:] > knots[:, :-1])
    # row k of t is knot mu - d + k of each nonempty interval's; row d is
    # t_mu, row d + 1 is t_{mu+1}
    t = knots[j, mu + np.arange(-d, d + 2)[:, None]]
    h = t[d + 1] - t[d]
    # level r holds, on functions mu - d + r .. mu, h^r times the
    # coefficients of the r-th derivative less their factor d! / (d - r)!;
    # row i of level 0 is the coefficient of function mu - d + i
    levels = [coef[j, mu - d + np.arange(d + 1)[:, None]]]
    for r in range(1, d + 1):
        span = t[d + 1:2 * d + 2 - r] - t[r:d + 1]
        levels.append((levels[-1][1:] - levels[-1][:-1]) * (h / span))
    # v holds the degree-(d - r) B-splines at t_mu, functions mu - d + r
    # .. mu, and a_r h^r = h^r f^(r)(t_mu) / r!
    for r, v in zip(range(d, -1, -1), _bsplvb(t, t[d], d)):
        table[j, r, mu] = comb(d, r) * (levels[r] * v).sum(axis=0)
    return table


def _checked_matrix(X, expansion: BasisExpansion) -> np.ndarray:
    """X as a finite 2-D float array with one column per basis."""
    _check_type(expansion, BasisExpansion, "expansion")
    X = np.atleast_2d(_as_float(X, "X"))
    if X.ndim != 2:
        raise ConfigurationError(f"X must be 2-D, got {X.ndim} dimensions")
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


def _check_type(value, kind: type, name: str):
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"{name} must be a {kind.__name__}, got {type(value).__name__}")
