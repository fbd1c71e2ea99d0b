"""Conjugate gradients for the preconditioned normal equations.

This solver certifies the penalized PLS iterates: run on M X'X beta = M X'y
under the inner product defined by M^{-1} = I + P, its iterates coincide with
the penalized PLS coefficient path.  The new search direction is projected
against the full history of previous directions, mirroring the defining
recursion rather than the classical two-term shortcut.  Like the PLS loop,
it works in units of 2^e for y's peak exponent e, so it is scale-equivariant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, _check_int
from .penalty import Preconditioner
from .pls import _check_finite, _checked_xy

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
    _check_int(n_steps, "n_steps", 1)
    _check_finite(X=X, y=y)

    def apply_a(v):
        return preconditioner.apply(X.T @ (X @ v))

    def inner(u, v):
        return float(u @ preconditioner.apply_inverse(v))

    e = np.frexp(np.max(np.abs(y), initial=0.0))[1]
    b = preconditioner.apply(X.T @ np.ldexp(y, -e))
    b_norm = np.sqrt(max(inner(b, b), 0.0))
    beta = np.zeros(X.shape[1])
    d = b.copy()
    r = b.copy()

    iterates, directions, residuals = [], [], []
    a_dirs = []   # A_M d_i, kept for the full-history projection
    d_a_d = []    # <d_i, A_M d_i>

    for _ in range(n_steps):
        if np.sqrt(max(inner(r, r), 0.0)) <= _NORM_TOL * b_norm:
            break
        ad = apply_a(d)
        denom = inner(d, ad)
        if denom <= 0.0:
            raise NumericalError("CG breakdown: direction with nonpositive curvature")
        a = inner(d, r) / denom
        beta = beta + a * d

        directions.append(d)
        residuals.append(r)
        iterates.append(beta)
        a_dirs.append(ad)
        d_a_d.append(denom)

        r = b - apply_a(beta)
        d = r.copy()
        for d_i, ad_i, curv_i in zip(directions, a_dirs, d_a_d):
            d = d - (inner(r, ad_i) / curv_i) * d_i

    if not iterates:
        raise NumericalError("CG made no progress: zero initial residual")
    return CgResult(*(np.ldexp(np.column_stack(a), e)
                      for a in (iterates, directions, residuals)))
