"""Dual (kernel) penalized PLS on the n x n Gram matrix of M-inner products.

Everything here depends only on the Gram matrix and the response, so the cost
is governed by the number of observations, not the feature dimension.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidKernelError
from .penalty import Preconditioner

_PSD_TOL = 1e-8


@dataclass(frozen=True)
class KernelFit:
    """Dual coefficients, components and fitted values, one column per step.

    ``alpha_path[:, -1]`` maps back to primal coefficients as
    ``beta = M @ X.T @ alpha_path[:, -1]``.
    """

    alpha_path: np.ndarray
    components: np.ndarray
    fitted_path: np.ndarray
    requested_components: int

    @property
    def n_components(self) -> int:
        return self.alpha_path.shape[1]

    @property
    def alpha(self) -> np.ndarray:
        return self.alpha_path[:, -1]

    @property
    def fitted(self) -> np.ndarray:
        return self.fitted_path[:, -1]


def gram_matrix(X, preconditioner: Preconditioner) -> np.ndarray:
    """Gram matrix of M-inner products between observations: X M X'."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != preconditioner.dim:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns, preconditioner expects "
            f"{preconditioner.dim}")
    gram = X @ preconditioner.apply(X.T)
    return 0.5 * (gram + gram.T)  # symmetrize away round-off


def kernel_penalized_pls_fit(K, y, n_components: int,
                             norm_tol: float = 1e-10) -> KernelFit:
    """Run the dual algorithm on a PSD Gram matrix and centered response.

    Per iteration: the residual acts as the new dual weight, is projected
    against the previous dual effective weight (through K^2), updates the
    dual coefficients, and yields component t = K alpha_tilde whose projection
    of y is added to the fit.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ConfigurationError("Gram matrix must be square")
    if K.shape[0] != y.shape[0]:
        raise ConfigurationError("Gram matrix and response sizes differ")
    if n_components < 1:
        raise ConfigurationError("n_components must be at least 1")
    scale = np.max(np.abs(K)) if K.size else 0.0
    if np.max(np.abs(K - K.T)) > _PSD_TOL * (scale + 1.0):
        raise InvalidKernelError("Gram matrix is not symmetric")
    evals = np.linalg.eigvalsh(0.5 * (K + K.T))
    if evals[0] < -_PSD_TOL * max(1.0, evals[-1]):
        raise InvalidKernelError("Gram matrix is not positive semidefinite")

    y_norm = np.linalg.norm(y)
    yhat = np.zeros_like(y)
    alpha = np.zeros_like(y)
    at_prev = None
    K_at_prev = None
    Ky = K @ y

    alphas, comps, fits = [], [], []
    for _ in range(n_components):
        y_res = y - yhat
        if np.linalg.norm(y_res) <= norm_tol * y_norm:
            break
        if at_prev is None:
            at = y_res
        else:
            coef = (K_at_prev @ (K @ y_res)) / (K_at_prev @ K_at_prev)
            at = y_res - coef * at_prev
        K_at = K @ at
        gram2 = K_at @ K_at  # alpha_tilde' K^2 alpha_tilde
        if gram2 <= (norm_tol * max(y_norm, 1.0)) ** 2:
            break
        alpha = alpha + ((at @ Ky) / gram2) * at
        t = K_at
        t_sq = t @ t
        if t_sq == 0.0:
            break
        yhat = yhat + ((t @ y) / t_sq) * t

        alphas.append(alpha)
        comps.append(t)
        fits.append(yhat)
        at_prev, K_at_prev = at, K_at

    if not alphas:
        raise InvalidKernelError("no dual component could be extracted")
    return KernelFit(
        alpha_path=np.column_stack(alphas),
        components=np.column_stack(comps),
        fitted_path=np.column_stack(fits),
        requested_components=n_components,
    )
