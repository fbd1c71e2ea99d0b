"""Primal partial least squares: plain NIPALS and the penalized variant.

Both fits record the weight vectors, the effective weights expressing each
component in original coordinates, the components, the coefficient vector
after every step, and the bidiagonal cross-product matrix R = T' X W.
Vectors are left unscaled, so downstream checks use relative tolerances.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DegenerateResponseError
from .penalty import Preconditioner

DEFAULT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Requested component count and the relative early-stop threshold."""

    n_components: int
    norm_tol: float = DEFAULT_NORM_TOL

    def __post_init__(self):
        if self.n_components < 1:
            raise ConfigurationError("n_components must be at least 1")
        if not 0.0 < self.norm_tol < 1.0:
            raise ConfigurationError("norm_tol must lie in (0, 1)")


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
    cross : (m, m) array
        R = T' X W; upper bidiagonal.
    """

    weights: np.ndarray
    effective_weights: np.ndarray
    components: np.ndarray
    beta_path: np.ndarray
    cross: np.ndarray
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


def _check_centered(X: np.ndarray, y: np.ndarray):
    col_scale = np.max(np.abs(X), axis=0)
    if np.any(np.abs(X.mean(axis=0)) > 1e-8 * col_scale + 1e-12):
        raise ConfigurationError("X must be column-centered")
    y_scale = np.max(np.abs(y)) if y.size else 0.0
    if abs(y.mean()) > 1e-8 * y_scale + 1e-12:
        raise ConfigurationError("y must be centered")


def _pls_loop(X: np.ndarray, y: np.ndarray, cfg: FitConfig,
              preconditioner: Preconditioner | None) -> PlsFit:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ConfigurationError("X and y row counts differ")
    _check_centered(X, y)
    if np.linalg.norm(y) == 0.0:
        raise DegenerateResponseError("centered response is identically zero")

    d = X.shape[1]
    Xi = X.copy()
    weights, eff_weights, components, betas = [], [], [], []
    beta = np.zeros(d)
    wt_prev = None
    X_wt_prev = None
    t1_norm = None

    for i in range(cfg.n_components):
        w = Xi.T @ y
        if preconditioner is not None:
            w = preconditioner.apply(w)
        t = Xi @ w
        t_norm = np.linalg.norm(t)
        if i == 0:
            t1_norm = t_norm
        if t_norm <= cfg.norm_tol * t1_norm:
            break

        if i == 0:
            wt = w
        else:
            Xw = X @ w
            coef = (X_wt_prev @ Xw) / (X_wt_prev @ X_wt_prev)
            wt = w - coef * wt_prev
        X_wt = X @ wt
        gram = X_wt @ X_wt  # wt' X'X wt, guaranteed nonnegative
        if gram <= (cfg.norm_tol * t1_norm) ** 2:
            break
        beta = beta + ((X_wt @ y) / gram) * wt

        weights.append(w)
        eff_weights.append(wt)
        components.append(t)
        betas.append(beta)

        if i + 1 < cfg.n_components:  # the last deflation is never read
            Xi = Xi - np.outer(t, t @ Xi) / (t @ t)
        wt_prev, X_wt_prev = wt, X_wt

    if not weights:
        raise DegenerateResponseError("no component could be extracted")
    W = np.column_stack(weights)
    T = np.column_stack(components)
    return PlsFit(
        weights=W,
        effective_weights=np.column_stack(eff_weights),
        components=T,
        beta_path=np.column_stack(betas),
        cross=T.T @ X @ W,
        requested_components=cfg.n_components,
    )


def nipals_fit(X, y, cfg: FitConfig) -> PlsFit:
    """Ordinary PLS on centered data: w_i = X_i' y, deflate, repeat."""
    return _pls_loop(np.asarray(X, dtype=float), np.asarray(y, dtype=float),
                     cfg, preconditioner=None)


def penalized_pls_fit(X, y, preconditioner: Preconditioner,
                      cfg: FitConfig) -> PlsFit:
    """Penalized PLS: the weight rule becomes w_i = M X_i' y."""
    return _pls_loop(np.asarray(X, dtype=float), np.asarray(y, dtype=float),
                     cfg, preconditioner=preconditioner)


def closed_form_beta(X, y, W) -> np.ndarray:
    """Coefficients as the least squares fit constrained to span(W).

    Solves W (W'X'XW)^- W'X'y; a rank-deficient Gram matrix is handled by
    dropping eigenvalues below ``1e-10 * trace``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    W = np.atleast_2d(np.asarray(W, dtype=float))
    XW = X @ W
    gram = XW.T @ XW
    rhs = XW.T @ y
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-10 * np.trace(gram)
    coef = evecs[:, keep] @ ((evecs[:, keep].T @ rhs) / evals[keep])
    return W @ coef


def fitted_values(fit: PlsFit, X) -> np.ndarray:
    """In-sample predictions X @ beta for the final component count."""
    return np.asarray(X, dtype=float) @ fit.beta
