"""Difference penalties and the block preconditioner they induce.

The penalty on the expanded coefficient vector is block diagonal: variable j
contributes ``lambda_j * K_q`` where ``K_q`` penalizes order-q differences of
adjacent coefficients.  The preconditioner is the inverse of identity plus
penalty.  It is held in the eigenbasis of ``K_q`` taken from the SVD of the
difference operator (Demmler & Reinsch 1975): one K x K rotation V shared
by every variable and weight, plus a diagonal per variable.  It is never
formed as an explicit inverse, and nothing is factorised.

``Preconditioner.basis`` and ``Preconditioner.diagonal`` expose V and the
per-block diagonals read-only.  In a design rotated once by blockdiag(V) the
preconditioner is that diagonal alone, and ``Preconditioner.scale`` applies
it; ``loocv`` runs its fits that way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, _as_float, _check_int

DEFAULT_DIFF_ORDER = 2


def _check_order(n_basis: int, order: int):
    _check_int(n_basis, "n_basis")
    _check_int(order, "difference order")
    if not 1 <= order <= n_basis - 1:
        raise ConfigurationError(
            f"difference order {order} out of range for n_basis={n_basis}")


def _difference_operator(n_basis: int, order: int) -> np.ndarray:
    """Order-q difference operator D, a (K - q) x K integer matrix: q
    rounds of row i minus row i + 1, starting from the identity."""
    _check_order(n_basis, order)
    diff = np.eye(n_basis)
    for _ in range(order):
        diff = diff[:-1] - diff[1:]
    return diff


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
        lambdas = np.atleast_1d(_as_float(self.lambdas, "lambdas"))
        object.__setattr__(self, "lambdas", lambdas)
        lambdas.setflags(write=False)
        if lambdas.ndim != 1:
            raise ConfigurationError("penalty weights must be a vector")
        if not np.all(np.isfinite(lambdas)):
            raise ConfigurationError("penalty weights must be finite")
        if np.any(lambdas < 0):
            raise ConfigurationError("penalty weights must be nonnegative")
        _check_order(self.n_basis, self.order)

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
        for a in (self._basis, self._forward, self._inverse):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def basis(self) -> np.ndarray:
        """The K x K rotation V, read-only: column k is the k-th eigenvector
        of K_q, with eigenvalue ``s[k]``."""
        return self._basis

    @property
    def diagonal(self) -> np.ndarray:
        """Block j of M in the basis V, read-only: row j of this (p, K)
        array is ``1 / (1 + lambda_j s)``."""
        return self._inverse[:, 0]

    def _rotated(self, v, scale) -> np.ndarray:
        """``V diag(scale[j]) V'`` applied to every K-block j of ``v``.

        ``v`` (length pK, or pK rows) is viewed, without a copy, as p
        (columns, K) blocks; each block is one BLAS product with V, then
        scaled, then one with V'.  The per-block calls depend only on the
        block and the column count, so a block rounds the same whatever
        blocks surround it.  The caller's array is never written.
        """
        v = _as_float(v, "v")
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise ConfigurationError(
                f"array of shape {v.shape} does not match "
                f"preconditioner dimension {self.dim}")
        _check_finite(v)
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

    def scale(self, c: np.ndarray) -> np.ndarray:
        """Multiply by M in the rotated coordinates blockdiag(V)' v: each
        K-block j of the last axis of ``c`` (shape (..., dim)) times row j
        of ``diagonal``.  Each entry is one product, so a row rounds the
        same whatever rows are stacked with it.
        """
        c = _as_float(c, "c")
        if c.ndim == 0 or c.shape[-1] != self.dim:
            raise ConfigurationError(
                f"coordinates of shape {c.shape} do not match "
                f"preconditioner dimension {self.dim}")
        _check_finite(c)
        return c * self.diagonal.reshape(self.dim)


def _check_finite(v: np.ndarray):
    if not np.isfinite(v).all():
        raise NumericalError("preconditioner input has non-finite values")


def make_preconditioner(spec: PenaltySpec) -> Preconditioner:
    return Preconditioner(spec)
