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
K = X M X' with w = r.  The scores t = S w are the same vectors, so the two
stop at the same component.  ``selection.loocv`` runs the same recursion in
d-space, on each fold's S'y and the images S'(S w) of its weights
(``selection._fold_fits``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateResponseError
from .penalty import Preconditioner

# a fit stops at an orthogonalised score no longer than this times the first
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Requested component count."""

    n_components: int

    def __post_init__(self):
        if isinstance(self.n_components, bool) or \
                not isinstance(self.n_components, (int, np.integer)):
            raise ConfigurationError(
                f"n_components must be an integer, got "
                f"{self.n_components!r}")
        if self.n_components < 1:
            raise ConfigurationError("n_components must be at least 1")


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

    Returns the weights W, effective weights Wt and coefficient path (each
    (k, d)), scores T (k, n), steps (k,) and the exponent e, for the k
    components extracted.  The fit runs on y times 2^-e, e the binary
    exponent of y's peak, so all but the (unitless) steps are in units of
    2^e.

    The fit keeps a residual r: w = weigh(r), t = S w, orthogonalised twice
    against the earlier scores with the same coefficients applied to the
    effective weight (so S wt = t), then beta += step * wt and
    r -= step * t with step = t'r / t't, until t't <= (``_NORM_TOL`` |t_1|)^2
    (a score too short before the orthogonalisation is too short after it).
    """
    if not y.any():
        raise DegenerateResponseError("centered response is identically zero")
    n, d = S.shape
    m = cfg.n_components
    e = int(np.frexp(np.max(np.abs(y)))[1])
    weights, eff_weights, betas = (np.empty((m, d)) for _ in range(3))
    components = np.empty((m, n))
    grams, steps = np.empty(m), np.empty(m)
    beta = np.zeros(d)
    r = np.ldexp(y, -e)
    k = 0
    for i in range(m):
        w = weigh(r)
        t = S @ w
        if i == 0:
            tol = _NORM_TOL * float(np.sqrt(t @ t))
        wt = w
        for _ in range(2):  # Gram-Schmidt twice keeps the scores orthogonal
            coef = (components[:i] @ t) / grams[:i]
            t = t - coef @ components[:i]
            wt = wt - coef @ eff_weights[:i]
        gram = t @ t
        if gram <= tol ** 2:
            break
        steps[i] = (t @ r) / gram
        beta = beta + steps[i] * wt
        r = r - steps[i] * t
        weights[i], eff_weights[i], components[i] = w, wt, t
        grams[i], betas[i] = gram, beta
        k = i + 1

    if not k:
        raise DegenerateResponseError("no component could be extracted")
    return weights[:k], eff_weights[:k], components[:k], betas[:k], \
        steps[:k], e


def _columns(a: np.ndarray, e: int) -> np.ndarray:
    """A ``_pls_loop`` result's rows times 2^e, as the contiguous columns
    of its (., k) result matrix."""
    return np.ldexp(a.T, e, order="C")


def _primal_fit(X, y, cfg: FitConfig,
                preconditioner: Preconditioner | None) -> PlsFit:
    """``_pls_loop`` on one centered (X, y) with the weight step
    w = M X'r (X'r without a preconditioner)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ConfigurationError(f"X must be 2-D, got {X.ndim} dimensions")
    if X.shape[0] != y.shape[0]:
        raise ConfigurationError("X and y row counts differ")
    if X.shape[0] == 0:
        raise ConfigurationError("need at least one observation")
    if preconditioner is not None and preconditioner.dim != X.shape[1]:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns, preconditioner expects "
            f"{preconditioner.dim}")
    _check_centered(X, y)

    def weigh(r):
        w = X.T @ r
        return w if preconditioner is None else preconditioner.apply(w)
    W, Wt, T, B, _, e = _pls_loop(X, y, cfg, weigh)
    return PlsFit(*(_columns(a, e) for a in (W, Wt, T, B)),
                  requested_components=cfg.n_components)


def nipals_fit(X, y, cfg: FitConfig) -> PlsFit:
    """Ordinary PLS on centered data: w_i = X' r_i, r_i the residual."""
    return _primal_fit(X, y, cfg, None)


def penalized_pls_fit(X, y, preconditioner: Preconditioner,
                      cfg: FitConfig) -> PlsFit:
    """Penalized PLS: the weight rule becomes w_i = M X' r_i.

    ``preconditioner.dim`` must equal X's column count d.
    """
    return _primal_fit(X, y, cfg, preconditioner)
