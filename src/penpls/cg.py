"""Conjugate gradients for the preconditioned normal equations.

This solver certifies the penalized PLS iterates: run on M X'X beta = M X'y
under the inner product defined by M^{-1} = I + P, its iterates coincide with
the penalized PLS coefficient path.  The new search direction is projected
against the full history of previous directions, mirroring the defining
recursion rather than the classical two-term shortcut.  A step costs one
pass over X and one multiplication by M: M^{-1} A_M d = X'X d is taken
straight from X, A_M d = M X'X d from it, and the residual follows the
recurrence r -= a A_M d (Hestenes & Stiefel) rather than being rebuilt
from beta.  M^{-1} is applied once to each residual, and that image serves
the norm test, the step and the projections.  Like the PLS loop, it works
in units of 2^e for y's peak exponent e, so it is scale-equivariant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, _check_int
from .penalty import Preconditioner
from .pls import _check_finite, _check_preconditioner, _checked_xy

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class CgResult:
    """Iterates beta_1..beta_m plus the internals needed by equivalence checks."""

    iterates: np.ndarray       # (d, m)
    directions: np.ndarray     # (d, m), d_0..d_{m-1}
    residuals: np.ndarray      # (d, m), r_0..r_{m-1}

    @property
    def n_steps(self) -> int:
        return self.iterates.shape[1]


def pcg_iterates(X, y, preconditioner: Preconditioner,
                 n_steps: int) -> CgResult:
    """Run preconditioned CG from beta_0 = 0 and record every iterate.

    Stops early once the residual norm falls to ``_NORM_TOL`` (1e-12) times
    the initial residual.
    """
    X, y = _checked_xy(X, y)
    _check_preconditioner(preconditioner, X.shape[1])
    _check_int(n_steps, "n_steps", 1)
    _check_finite(X=X, y=y)

    e = np.frexp(np.max(np.abs(y), initial=0.0))[1]
    b = preconditioner.apply(X.T @ np.ldexp(y, -e))
    inv_r = preconditioner.apply_inverse(b)
    b_norm = np.sqrt(max(b @ inv_r, 0.0))
    beta = np.zeros(X.shape[1])
    d = r = b

    iterates, directions, residuals = [], [], []
    inv_a_dirs = []  # M^{-1} A_M d_i = X'X d_i, for the projections
    d_a_d = []       # <d_i, A_M d_i>

    for k in range(n_steps):
        if np.sqrt(max(r @ inv_r, 0.0)) <= _NORM_TOL * b_norm:
            break
        inv_ad = X.T @ (X @ d)
        denom = float(d @ inv_ad)
        if denom <= 0.0:
            raise NumericalError("CG breakdown: direction with nonpositive curvature")
        a = float(d @ inv_r) / denom
        beta = beta + a * d

        directions.append(d)
        residuals.append(r)
        iterates.append(beta)
        inv_a_dirs.append(inv_ad)
        d_a_d.append(denom)
        if k + 1 == n_steps:
            break

        r = r - a * preconditioner.apply(inv_ad)
        inv_r = preconditioner.apply_inverse(r)
        d = r
        for d_i, inv_ad_i, curv_i in zip(directions, inv_a_dirs, d_a_d):
            d = d - (float(r @ inv_ad_i) / curv_i) * d_i

    if not iterates:
        raise NumericalError("CG made no progress: zero initial residual")
    return CgResult(*(np.ldexp(np.column_stack(a), e)
                      for a in (iterates, directions, residuals)))
