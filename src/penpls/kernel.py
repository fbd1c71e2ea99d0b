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

    The primal loop's residual recursion with K = X M X' in place of X, M
    and X': per iteration the residual r is the new dual weight, its score
    t = K r is orthogonalised twice against the earlier scores with the same
    coefficients applied to the dual weight (so K alpha_tilde = t), and
    alpha += step * alpha_tilde, the fit += step * t and r -= step * t with
    step = t'r / t't.
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
    r = y.copy()
    yhat = np.zeros_like(y)
    alpha = np.zeros_like(y)
    comps = np.empty((n_components, y.size))  # earlier scores, one per row
    dual_weights = np.empty_like(comps)
    grams = np.empty(n_components)

    alphas, fits = [], []
    for i in range(n_components):
        if np.linalg.norm(r) <= norm_tol * y_norm:
            break
        at = r
        t = K @ r
        for _ in range(2):  # Gram-Schmidt twice keeps the scores orthogonal
            coef = (comps[:i] @ t) / grams[:i]
            t = t - coef @ comps[:i]
            at = at - coef @ dual_weights[:i]
        gram = t @ t  # alpha_tilde' K^2 alpha_tilde
        if gram <= (norm_tol * max(y_norm, 1.0)) ** 2:
            break
        step = (t @ r) / gram
        alpha = alpha + step * at
        yhat = yhat + step * t
        r = r - step * t

        comps[i], dual_weights[i], grams[i] = t, at, gram
        alphas.append(alpha)
        fits.append(yhat)

    if not alphas:
        raise InvalidKernelError("no dual component could be extracted")
    return KernelFit(
        alpha_path=np.column_stack(alphas),
        components=np.column_stack(comps[:len(alphas)]),
        fitted_path=np.column_stack(fits),
        requested_components=n_components,
    )
