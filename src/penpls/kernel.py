"""Dual (kernel) penalized PLS on the n x n Gram matrix of M-inner products.

The fit is the primal's residual recursion (``pls._pls_loop``) run on
K = X M X' in place of X, with the residual as the weight, at a cost set by
n, not the feature dimension; both paths are summed from its steps after
it.  K is Y Y', Y = X blockdiag(V) diag(d)^(1/2) with V and d the
preconditioner's ``basis`` and ``diagonal``.  The fit refuses a K that is
not positive semidefinite (``_check_psd``): a Cholesky factorisation
settles a K that is PSD to rounding, as every ``gram_matrix`` is, and only
a K it refuses pays for the eigenvalues.

K of a centered design has K 1 = 0, so every score K r is centered, and
the loop removes each score's mean: for such a K that mean is rounding
alone, which an ill-conditioned K (large lambda) amplifies until Krylov
exhaustion leaves the fitted values short of y.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, InvalidKernelError, NumericalError,
                     _as_float)
from .penalty import Preconditioner
from .pls import (FitConfig, _check_finite, _check_preconditioner, _columns,
                  _path, _pls_loop)

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
    Y Y' by one symmetric rank-k update, so exactly symmetric.

    Raises
    ------
    NumericalError
        If Y or Y Y' overflows: no double holds the Gram matrix.
    """
    X = _as_float(X, "X")
    if X.ndim != 2:
        raise ConfigurationError(f"X must be 2-D, got {X.ndim} dimensions")
    _check_preconditioner(preconditioner, X.shape[1])
    _check_finite(X=X)
    # an overflow is reported as NumericalError below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        Y = X.reshape(-1, preconditioner.spec.n_basis) @ preconditioner.basis
        Y = Y.reshape(X.shape) * np.sqrt(preconditioner.diagonal).ravel()
        K = Y @ Y.T
    # a non-finite entry of Y makes its row's diagonal entry, a sum of
    # squares, inf or NaN, so K alone shows an overflow of either
    if not np.isfinite(K).all():
        raise NumericalError("the Gram matrix overflows: X is too large")
    return K


def _check_psd(K: np.ndarray):
    """``InvalidKernelError`` if the symmetric part S of K has
    lambda_min < -``_PSD_TOL`` max(1, lambda_max).

    A Cholesky factorisation of S + tau I, tau = ``_PSD_TOL`` max(1, max
    diag S), settles most matrices: max diag S <= lambda_max, so one that
    succeeds proves lambda_min > -tau, inside the rule.  Only a matrix it
    refuses pays for the eigenvalues, which give the verdict.
    """
    shifted = K + K.T
    shifted *= 0.5
    diagonal = shifted.ravel()[::K.shape[0] + 1]
    diagonal += _PSD_TOL * max(1.0, diagonal.max())
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvalsh(0.5 * (K + K.T))
        if evals[0] < -_PSD_TOL * max(1.0, evals[-1]):
            raise InvalidKernelError(
                "Gram matrix is not positive semidefinite") from None


def kernel_penalized_pls_fit(K, y, n_components: int) -> KernelFit:
    """Run the dual algorithm on a PSD Gram matrix and centered response.

    This is the primal's loop with K = X M X' as the score matrix and the
    residual r as the weight, so the score t = K r is the primal's X M X'r
    and the dual stops where the primal does.  Its effective weights are
    the dual weights alpha_tilde (K alpha_tilde = t); ``alpha_path`` is the
    running sum of step * alpha_tilde and the fitted path that of step * t.
    Each score has its mean removed, as the scores of a centered design
    have none: with an uncentered K (and centered y) the fit is that of
    J K J, J = I - 11'/n, and J K alpha_tilde = t.
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
    _check_psd(K)

    _, A, T, steps, e = _pls_loop(K, y, cfg, lambda r: r)
    T = _columns(T, e)
    return KernelFit(alpha_path=_path(A, steps, e), components=T,
                     fitted_path=np.cumsum(T * steps, axis=1),
                     requested_components=n_components)
