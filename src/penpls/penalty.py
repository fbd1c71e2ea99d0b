"""Difference penalties and the block preconditioner they induce.

The penalty on the expanded coefficient vector is block diagonal: variable j
contributes ``lambda_j * K_q`` where ``K_q`` penalizes order-q differences of
adjacent coefficients.  The preconditioner is the inverse of identity plus
penalty.  It is held as one Cholesky factor per distinct weight and applied
with one LAPACK solve per distinct weight, never as an explicit inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ConfigurationError, NumericalError

DEFAULT_DIFF_ORDER = 2


def difference_matrix(n_basis: int) -> np.ndarray:
    """First-order difference operator as a (K-1) x K matrix."""
    if n_basis < 2:
        raise ConfigurationError("difference matrix needs n_basis >= 2")
    return np.eye(n_basis - 1, n_basis) - np.eye(n_basis - 1, n_basis, k=1)


def penalty_kernel(n_basis: int, order: int) -> np.ndarray:
    """Order-q difference penalty kernel, D'D with D the stacked differences.

    Symmetric positive semidefinite with rank ``n_basis - order``; its null
    space is spanned by discrete polynomials of degree below ``order``.
    """
    if not 1 <= order <= n_basis - 1:
        raise ConfigurationError(
            f"difference order {order} out of range for n_basis={n_basis}")
    diff = np.eye(n_basis)
    for size in range(n_basis, n_basis - order, -1):
        diff = difference_matrix(size) @ diff
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


def assemble_penalty(spec: PenaltySpec) -> np.ndarray:
    """Materialize the full block-diagonal penalty matrix (pK x pK)."""
    kernel = penalty_kernel(spec.n_basis, spec.order)
    return np.kron(np.diag(spec.lambdas), kernel)


class _Group(NamedTuple):
    """The blocks that share one penalty weight, and their two K x K maps."""

    index: np.ndarray | slice  # block numbers j with lambdas[j] == this weight
    factor: np.ndarray         # upper Cholesky factor of I + lambda K_q
    forward: np.ndarray        # I + lambda K_q itself


class Preconditioner:
    """Blockwise inverse of (I + penalty), applied without ever forming it.

    Block j is ``(I_K + lambda_j K_q)^{-1}``.  Blocks that share a weight
    share one upper Cholesky factor (LAPACK ``potrf``), so a vector or matrix
    is solved with one ``potrs`` call per distinct weight: all the K-vectors
    of a group are the columns of a single right-hand side.  With the shared
    weight that ``fit_gam`` and ``loocv`` use this is one LAPACK call per
    ``apply``.  The forward map (multiplication by ``I + P``) is also exposed
    since the conjugate-gradient oracle needs the inverse-preconditioner
    inner product.  No explicit inverse is formed.
    """

    def __init__(self, spec: PenaltySpec):
        self.spec = spec
        kernel = penalty_kernel(spec.n_basis, spec.order)
        eye = np.eye(spec.n_basis)
        lams, which = np.unique(spec.lambdas, return_inverse=True)
        self._groups = []
        for g, lam in enumerate(lams):
            with np.errstate(over="ignore"):  # reported just below
                block = eye + lam * kernel
            if not np.all(np.isfinite(block)):
                raise NumericalError(f"I + {lam} * K_q overflows")
            factor, info = dpotrf(block)
            if info != 0:
                raise NumericalError(
                    f"I + {lam} * K_q is not positive definite "
                    f"(potrf info {info})")
            index = (slice(None) if len(lams) == 1
                     else np.flatnonzero(which == g))
            self._groups.append(_Group(index, factor, block))

    @property
    def dim(self) -> int:
        return self.spec.dim

    def _blockwise(self, v, op) -> np.ndarray:
        """Apply ``op(group, rhs)`` to every group of blocks of ``v``.

        ``v`` (length pK, or pK rows) is copied once into a C-ordered
        (columns, p, K) work array, so each block's K-vector is contiguous
        and a group is the F-ordered (K, n_rhs) matrix ``op`` receives.
        ``op`` returns the mapped matrix, possibly ``rhs`` itself overwritten;
        the caller's array is never written.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise ConfigurationError(
                f"vector of length {v.shape[0]} does not match "
                f"preconditioner dimension {self.dim}")
        p, K = self.spec.n_variables, self.spec.n_basis
        work = np.array(v.reshape(p, K, -1).transpose(2, 0, 1), order="C")
        if not np.isfinite(work).all():
            raise NumericalError("preconditioner input has non-finite values")
        for group in self._groups:
            rows = work[:, group.index]
            mapped = op(group, rows.reshape(-1, K).T)
            if not np.may_share_memory(mapped, work):
                work[:, group.index] = mapped.T.reshape(rows.shape)
        return work.reshape(-1, self.dim).T.reshape(v.shape)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Multiply by M, i.e. solve (I + P) x = v blockwise.

        Accepts a vector of length pK or a matrix with pK rows.
        """
        return self._blockwise(v, _solve)

    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """Multiply by M^{-1} = I + P, blockwise and exactly."""
        return self._blockwise(v, lambda group, rhs: group.forward @ rhs)


def _solve(group: _Group, rhs: np.ndarray) -> np.ndarray:
    # rhs is private to _blockwise, so potrs may solve in place
    x, info = dpotrs(group.factor, rhs, overwrite_b=True)
    if info != 0:
        raise NumericalError(f"potrs failed (info {info})")
    return x


def make_preconditioner(spec: PenaltySpec) -> Preconditioner:
    return Preconditioner(spec)
