"""Primal partial least squares: plain NIPALS and the penalized variant.

Both fits record the weight vectors, the effective weights expressing each
component in original coordinates, the components and the coefficient vector
after every step.  Vectors are left unnormalised, so downstream checks use
relative tolerances.  Each fit runs in units of 2^e, e the binary exponent
of its response's peak, so no square overflows, and scales back by 2^e
exactly: every fit is scale-equivariant in y.

One loop computes every lone fit, primal or dual: a residual recursion on
a score matrix S with a weight step.  The primal runs it on the one centered
X with w = M X'r, so X is never deflated; the dual (``kernel``) on
K = X M X' with w = r.  The scores t = S w, each less its mean (rounding
alone on a centered S), are the same vectors, so the two stop at the same
component.  The loop keeps no coefficient: each caller
sums its path after it, steps times effective weights.

``_fold_fits`` runs the same recursion in d-space, on a stack of designs
rotated to M's eigenbasis, through their S'y and the images S'(S w) of
their weights; there M is the diagonal ``Preconditioner.scale``.  It fits
``selection.loocv``'s folds, a chunk of them at every lambda at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigurationError, DataError, DegenerateResponseError,
                     _as_float, _check_int)
from .penalty import Preconditioner

# a fit stops at an orthogonalised score no longer than this times the first
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Requested component count."""

    n_components: int

    def __post_init__(self):
        _check_int(self.n_components, "n_components", 1)


@dataclass(frozen=True)
class PlsFit:
    """Result of a (penalized) PLS run.

    Attributes
    ----------
    weights : (d, m) array
        Weight vectors w_i, one column per extracted component.
    effective_weights : (d, m) array
        Vectors with ``X @ effective_weights[:, i] == components[:, i]``.
    components : (n, m) array
        Mutually orthogonal score vectors.
    beta_path : (d, m) array
        Coefficient vector after 1, 2, ..., m components.
    """

    weights: np.ndarray
    effective_weights: np.ndarray
    components: np.ndarray
    beta_path: np.ndarray
    requested_components: int

    @property
    def n_components(self) -> int:
        return self.beta_path.shape[1]

    @property
    def early_stopped(self) -> bool:
        return self.n_components < self.requested_components

    @property
    def beta(self) -> np.ndarray:
        return self.beta_path[:, -1]


def _check_finite(**arrays: np.ndarray):
    """DataError on NaN or inf, which ``_pls_loop``'s units cannot hold."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise DataError(f"{name} has non-finite values (NaN or inf)")


def _checked_xy(X, y):
    """X as a 2-D and y as a 1-D float array, with the same number of rows,
    at least one."""
    X, y = _as_float(X, "X"), _as_float(y, "y").ravel()
    if X.ndim != 2:
        raise ConfigurationError(f"X must be 2-D, got {X.ndim} dimensions")
    if X.shape[0] != y.shape[0]:
        raise ConfigurationError("X and y row counts differ")
    if X.shape[0] == 0:
        raise ConfigurationError("need at least one observation")
    return X, y


def _check_centered(X: np.ndarray, y: np.ndarray):
    col_scale, y_scale = np.max(np.abs(X), axis=0), np.max(np.abs(y))
    _check_finite(X=col_scale, y=y_scale)  # a NaN or inf sets its peak
    if np.any(np.abs(X.mean(axis=0)) > 1e-8 * col_scale):
        raise ConfigurationError("X must be column-centered")
    if abs(y.mean()) > 1e-8 * y_scale:
        raise ConfigurationError("y must be centered")


def _pls_loop(S: np.ndarray, y: np.ndarray, cfg: FitConfig,
              weigh: Callable[[np.ndarray], np.ndarray]
              ) -> tuple[np.ndarray, ...]:
    """Run one PLS fit on an n x d score matrix S with centered response y.

    Returns the weights W and effective weights Wt (each (k, d)), scores
    T (k, n), steps (k,) and the exponent e, for the k components
    extracted; ``_path`` sums the coefficients.  The fit runs on y times
    2^-e, e the binary exponent of y's peak, so all but the (unitless)
    steps are in units of 2^e.

    The fit keeps a residual r: w = weigh(r), t = S w less its mean,
    orthogonalised twice against the earlier scores with the same
    coefficients applied to the effective weight (so S wt = t), then
    r -= step * t with step = t'r / t't, until t't <= (``_NORM_TOL``
    |t_1|)^2 (a score too short before the orthogonalisation is too short
    after it).  S is centered, so a score's mean is rounding alone; an
    ill-conditioned S (a stiff penalty's K) would amplify it until Krylov
    exhaustion left the fitted values short of y.
    """
    if not y.any():
        raise DegenerateResponseError("centered response is identically zero")
    n, d = S.shape
    m = cfg.n_components
    e = int(np.frexp(np.max(np.abs(y)))[1])
    weights, eff_weights = np.empty((m, d)), np.empty((m, d))
    components = np.empty((m, n))
    grams, steps = np.empty(m), np.empty(m)
    r = np.ldexp(y, -e)
    k = 0
    for i in range(m):
        w = weigh(r)
        t = S @ w
        t -= t.mean()
        if i == 0:
            tol = _NORM_TOL * float(np.sqrt(t @ t))
        wt = w
        for _ in range(2):  # Gram-Schmidt twice keeps the scores orthogonal
            coef = (components[:i] @ t) / grams[:i]
            t = t - coef @ components[:i]
            wt = wt - coef @ eff_weights[:i]
        gram = t @ t
        if gram <= tol * tol:
            break
        steps[i] = (t @ r) / gram
        r = r - steps[i] * t
        weights[i], eff_weights[i], components[i], grams[i] = w, wt, t, gram
        k = i + 1

    if not k:
        raise DegenerateResponseError("no component could be extracted")
    return weights[:k], eff_weights[:k], components[:k], steps[:k], e


def _columns(a: np.ndarray, e: int) -> np.ndarray:
    """A ``_pls_loop`` result's rows times 2^e, as the contiguous columns
    of its (., k) result matrix."""
    return np.ldexp(a.T, e, order="C")


def _path(rows: np.ndarray, steps: np.ndarray, e: int) -> np.ndarray:
    """``_columns`` of the running sum of step times row, from +0.0 as the
    loop's coefficient was (a first term of -0.0 reads +0.0)."""
    return _columns(np.cumsum(steps[:, None] * rows, axis=0) + 0.0, e)


def _check_preconditioner(preconditioner, n_columns: int):
    """``ConfigurationError`` unless ``preconditioner`` is a
    ``Preconditioner`` for ``n_columns`` columns."""
    if not isinstance(preconditioner, Preconditioner):
        raise ConfigurationError(
            f"preconditioner must be a Preconditioner, got "
            f"{type(preconditioner).__name__}")
    if preconditioner.dim != n_columns:
        raise ConfigurationError(
            f"X has {n_columns} columns, preconditioner expects "
            f"{preconditioner.dim}")


def _primal_fit(X, y, cfg: FitConfig,
                preconditioner: Preconditioner | None) -> PlsFit:
    """``_pls_loop`` on one checked, centered (X, y) with the weight step
    w = M X'r (X'r without a preconditioner)."""
    _check_centered(X, y)

    def weigh(r):
        w = X.T @ r
        return w if preconditioner is None else preconditioner.apply(w)
    W, Wt, T, steps, e = _pls_loop(X, y, cfg, weigh)
    return PlsFit(*(_columns(a, e) for a in (W, Wt, T)),
                  beta_path=_path(Wt, steps, e),
                  requested_components=cfg.n_components)


def nipals_fit(X, y, cfg: FitConfig) -> PlsFit:
    """Ordinary PLS on centered data: w_i = X' r_i, r_i the residual."""
    return _primal_fit(*_checked_xy(X, y), cfg, None)


def penalized_pls_fit(X, y, preconditioner: Preconditioner,
                      cfg: FitConfig) -> PlsFit:
    """Penalized PLS: the weight rule becomes w_i = M X' r_i.

    ``preconditioner.dim`` must equal X's column count d.
    """
    X, y = _checked_xy(X, y)
    _check_preconditioner(preconditioner, X.shape[1])
    return _primal_fit(X, y, cfg, preconditioner)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products ``a[..., :] @ b[..., :]``, one BLAS dot each, the call
    ``a[f, l] @ b[f, l]`` on 1-D operands makes."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _fold_fits(S: np.ndarray, y: np.ndarray, M: Preconditioner,
               cfg: FitConfig) -> tuple[np.ndarray, ...]:
    """Penalized PLS fits of F fold designs S (F, n, d), rotated to M's
    eigenbasis, with centered responses y (F, n), at each of the L lambdas
    whose blocks M holds: fit (f, l) is fold f at lambda l.

    Returns the effective weights and their images (each (F, L, m, d)),
    the steps (F, L, m), each fit's component count k (F, L) and each
    fold's exponent e (F,).  Fit (f, l)'s weights and images are its first
    k[f, l] rows, and its steps are exact zeros after them, so the caller
    can sum steps times rows over all m.  All but the steps are in units
    of 2^e[f], e[f] the binary exponent of fold f's response peak.  A fold
    whose response is zero, an intercept-only fold, is an ordinary fold
    whose fits extract nothing: its first scores are zero, so every fit
    stops at once, with count 0.  Only a fit of a nonzero response that
    extracts nothing raises.

    This is ``_pls_loop``'s recursion run in d-space: PLS needs a design
    only through S'y and the images S't of its scores.  With g = S'r for
    the residual r, the weight is w = M g (the diagonal ``M.scale``, which
    checks g is finite) and the score t = S w enters only through its
    image u = S't.  Orthogonalising t against the earlier scores
    t_j = S wt_j takes t_j't = u_j'wt, and updates the effective weight wt
    and its image u with the same coefficients (twice); then t't = wt'u,
    t'r = wt'g and g -= step * u with step = t'r / t't, until
    t't <= (``_NORM_TOL`` |t_1|)^2.  A fit that stops has g zeroed, so its
    later products are exact zeros.

    The images are two products per fold and step for all L lambdas,
    (w S') S: the scores S w, then S' times them.  A gemm rounds a row
    depending on its row count, so a fit is bit for bit the same fit run
    with its fold alone, not with its lambda alone; every other product is
    one BLAS call per fit, as the same fit run alone makes it.
    """
    F, _, d = S.shape
    L, m = M.dim // d, cfg.n_components
    exps = np.frexp(np.max(np.abs(y), axis=-1))[1]
    St = S.transpose(0, 2, 1)
    b = (St @ np.ldexp(y, -exps[:, None])[..., None])[..., 0]

    # row i of fit (f, l): its effective weight, then the weight's image
    # (zeros: rows after an early break are never written, yet summed)
    wu_rows = np.zeros((F, L, m, 2 * d))
    grams = np.empty((F, L, m))  # t't of each kept score (1 where stopped)
    steps = np.zeros((F, L, m))
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
        g -= step[..., None] * u
        g[~active] = 0.0

        grams[..., i], steps[..., i] = gram, step
        count += active
        if not active.any():
            break

    if not count[y.any(axis=-1)].all():
        raise DegenerateResponseError("no component could be extracted")
    return wu_rows[..., :d], wu_rows[..., d:], steps, count, exps
