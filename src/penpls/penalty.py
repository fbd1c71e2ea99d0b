"""Difference penalties and the block preconditioner they induce.

The penalty on the expanded coefficient vector is block diagonal: variable j
contributes ``lambda_j * K_q`` where ``K_q`` penalizes order-q differences of
adjacent coefficients.  The preconditioner is the inverse of identity plus
penalty.  It is held in the eigenbasis of ``K_q`` taken from the SVD of the
difference operator (Demmler & Reinsch 1975): one K x K rotation shared by
every variable and weight, plus a diagonal per variable.  It is never formed
as an explicit inverse, and nothing is factorised.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError

DEFAULT_DIFF_ORDER = 2


def _difference_operator(n_basis: int, order: int) -> np.ndarray:
    """Order-q difference operator D, a (K - q) x K integer matrix: q
    rounds of row i minus row i + 1, starting from the identity."""
    if not 1 <= order <= n_basis - 1:
        raise ConfigurationError(
            f"difference order {order} out of range for n_basis={n_basis}")
    diff = np.eye(n_basis)
    for _ in range(order):
        diff = diff[:-1] - diff[1:]
    return diff


def penalty_kernel(n_basis: int, order: int) -> np.ndarray:
    """Order-q difference penalty kernel, D'D with D the stacked differences.

    Symmetric positive semidefinite with rank ``n_basis - order``; its null
    space is spanned by discrete polynomials of degree below ``order``.
    """
    diff = _difference_operator(n_basis, order)
    return diff.T @ diff


@dataclass(frozen=True)
class PenaltySpec:
    """Per-variable penalty weights plus the shared difference structure.

    Parameters
    ----------
    lambdas : array of shape (p,)
        Finite nonnegative penalty weight for each variable.
    order : int
        Difference order q (default 2).
    n_basis : int
        Basis functions per variable.
    """

    lambdas: np.ndarray
    order: int
    n_basis: int

    def __post_init__(self):
        lambdas = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        object.__setattr__(self, "lambdas", lambdas)
        lambdas.setflags(write=False)
        if not np.all(np.isfinite(lambdas)):
            raise ConfigurationError("penalty weights must be finite")
        if np.any(lambdas < 0):
            raise ConfigurationError("penalty weights must be nonnegative")
        if not 1 <= self.order <= self.n_basis - 1:
            raise ConfigurationError(
                f"difference order {self.order} out of range for "
                f"n_basis={self.n_basis}")

    @classmethod
    def shared(cls, lam: float, n_variables: int, n_basis: int,
               order: int = DEFAULT_DIFF_ORDER) -> "PenaltySpec":
        """Shared-lambda configuration: one weight for all variables."""
        return cls(np.full(n_variables, float(lam)), order, n_basis)

    @property
    def n_variables(self) -> int:
        return len(self.lambdas)

    @property
    def dim(self) -> int:
        return self.n_variables * self.n_basis


class Preconditioner:
    """Blockwise inverse of (I + penalty) in the difference operator's SVD
    basis (Demmler-Reinsch), applied without ever forming it.

    With D = U diag(sigma) V' the full SVD of the (K - q) x K order-q
    difference operator, K_q = D'D = V diag(s) V' where s is sigma squared
    padded with q exact zeros for the discrete polynomials K_q annihilates.
    Block j of M is then ``V diag(1 / (1 + lambda_j s)) V'``: one K x K
    rotation shared by every variable and every weight, and a per-block
    diagonal.  The forward map (multiplication by ``I + P``) is the same
    rotation with ``1 + lambda_j s``; the conjugate-gradient oracle needs it
    for the inverse-preconditioner inner product.  No explicit inverse and no
    factorisation is formed, so a weight of any finite size whose products
    ``lambda_j s`` stay finite is accepted.
    """

    def __init__(self, spec: PenaltySpec):
        self.spec = spec
        _, sigma, vt = np.linalg.svd(
            _difference_operator(spec.n_basis, spec.order))
        s = np.zeros(spec.n_basis)
        s[:sigma.size] = sigma ** 2
        with np.errstate(over="ignore"):  # reported just below
            forward = 1.0 + np.multiply.outer(spec.lambdas, s)
        if not np.all(np.isfinite(forward)):
            raise NumericalError(f"I + {spec.lambdas.max()} * K_q overflows")
        self._basis = vt.T
        self._forward = forward[:, None, :]
        self._inverse = 1.0 / self._forward

    @property
    def dim(self) -> int:
        return self.spec.dim

    def _rotated(self, v, scale) -> np.ndarray:
        """``V diag(scale[j]) V'`` applied to every K-block j of ``v``.

        ``v`` (length pK, or pK rows) is viewed, without a copy, as p
        (columns, K) blocks; each block is one BLAS product with V, then
        scaled, then one with V'.  The per-block calls depend only on the
        block and the column count, so a block rounds the same whatever
        blocks surround it.  The caller's array is never written.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise ConfigurationError(
                f"vector of length {v.shape[0]} does not match "
                f"preconditioner dimension {self.dim}")
        if not np.isfinite(v).all():
            raise NumericalError("preconditioner input has non-finite values")
        p, K = self.spec.n_variables, self.spec.n_basis
        blocks = v.reshape(p, K, v[0].size).transpose(0, 2, 1)
        coords = blocks @ self._basis
        coords *= scale
        return (self._basis @ coords.transpose(0, 2, 1)).reshape(v.shape)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Multiply by M, i.e. solve (I + P) x = v blockwise.

        Accepts a vector of length pK or a matrix with pK rows.
        """
        return self._rotated(v, self._inverse)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """Multiply by M^{-1} = I + P, blockwise."""
        return self._rotated(v, self._forward)


def make_preconditioner(spec: PenaltySpec) -> Preconditioner:
    return Preconditioner(spec)
