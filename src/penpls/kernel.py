"""Dual (kernel) penalized PLS on the n x n Gram matrix of M-inner products.

The fit is the primal's residual recursion (``pls._pls_loop``) run on
K = X M X' in place of X, with the residual as the weight.  It depends only
on the Gram matrix and the response, so the cost is governed by the number
of observations, not the feature dimension.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidKernelError
from .penalty import Preconditioner
from .pls import FitConfig, _columns, _pls_loop

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


def kernel_penalized_pls_fit(K, y, n_components: int) -> KernelFit:
    """Run the dual algorithm on a PSD Gram matrix and centered response.

    This is the primal's loop with K = X M X' as the score matrix and the
    residual r as the weight, so the score t = K r is the primal's X M X'r
    and the dual stops where the primal does.  Its effective weights are
    the dual weights alpha_tilde (K alpha_tilde = t), its coefficient path
    is ``alpha_path``, and the fitted path is the running sum of step * t.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ConfigurationError("Gram matrix must be square")
    if K.shape[0] != y.shape[0]:
        raise ConfigurationError("Gram matrix and response sizes differ")
    cfg = FitConfig(n_components)
    if not np.isfinite(K).all():
        raise InvalidKernelError("Gram matrix has non-finite values")
    scale = np.max(np.abs(K)) if K.size else 0.0
    if np.max(np.abs(K - K.T)) > _PSD_TOL * (scale + 1.0):
        raise InvalidKernelError("Gram matrix is not symmetric")
    evals = np.linalg.eigvalsh(0.5 * (K + K.T))
    if evals[0] < -_PSD_TOL * max(1.0, evals[-1]):
        raise InvalidKernelError("Gram matrix is not positive semidefinite")

    _, _, T, A, steps, (k,) = _pls_loop(K, y, cfg, lambda r: r)
    T, alpha_path, steps = (_columns(a[0], k) for a in (T, A, steps))
    return KernelFit(alpha_path=alpha_path, components=T,
                     fitted_path=np.cumsum(T * steps, axis=1),
                     requested_components=n_components)
