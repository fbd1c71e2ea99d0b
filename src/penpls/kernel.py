"""Dual (kernel) penalized PLS on the n x n Gram matrix of M-inner products.

The fit is the primal's residual recursion (``pls._pls_loop``) run on
K = X M X' in place of X, with the residual as the weight, at a cost set by
n, not the feature dimension; both paths are summed from its steps after
it.  K is Y Y', Y = X blockdiag(V) diag(d)^(1/2) with V and d the
preconditioner's ``basis`` and ``diagonal``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidKernelError, _as_float
from .penalty import Preconditioner
from .pls import FitConfig, _check_finite, _columns, _path, _pls_loop

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
    """Gram matrix of M-inner products between observations: X M X', as
    Y Y' by one symmetric rank-k update, so exactly symmetric."""
    X = _as_float(X, "X")
    if X.ndim != 2 or X.shape[1] != preconditioner.dim:
        raise ConfigurationError(
            f"X has shape {X.shape}, preconditioner expects "
            f"{preconditioner.dim}")
    _check_finite(X=X)
    Y = X.reshape(-1, preconditioner.spec.n_basis) @ preconditioner.basis
    Y = Y.reshape(X.shape) * np.sqrt(preconditioner.diagonal).ravel()
    return Y @ Y.T


def kernel_penalized_pls_fit(K, y, n_components: int) -> KernelFit:
    """Run the dual algorithm on a PSD Gram matrix and centered response.

    This is the primal's loop with K = X M X' as the score matrix and the
    residual r as the weight, so the score t = K r is the primal's X M X'r
    and the dual stops where the primal does.  Its effective weights are
    the dual weights alpha_tilde (K alpha_tilde = t); ``alpha_path`` is the
    running sum of step * alpha_tilde and the fitted path that of step * t.
    """
    K, y = _as_float(K, "K"), _as_float(y, "y").ravel()
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ConfigurationError("Gram matrix must be square")
    if K.shape[0] != y.shape[0]:
        raise ConfigurationError("Gram matrix and response sizes differ")
    if K.shape[0] == 0:
        raise ConfigurationError("need at least one observation")
    cfg = FitConfig(n_components)
    _check_finite(y=y)
    if not np.isfinite(K).all():
        raise InvalidKernelError("Gram matrix has non-finite values")
    scale = np.max(np.abs(K)) if K.size else 0.0
    if np.max(np.abs(K - K.T)) > _PSD_TOL * (scale + 1.0):
        raise InvalidKernelError("Gram matrix is not symmetric")
    evals = np.linalg.eigvalsh(0.5 * (K + K.T))
    if evals[0] < -_PSD_TOL * max(1.0, evals[-1]):
        raise InvalidKernelError("Gram matrix is not positive semidefinite")

    _, A, T, steps, e = _pls_loop(K, y, cfg, lambda r: r)
    T = _columns(T, e)
    return KernelFit(alpha_path=_path(A, steps, e), components=T,
                     fitted_path=np.cumsum(T * steps, axis=1),
                     requested_components=n_components)
