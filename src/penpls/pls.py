"""Primal partial least squares: plain NIPALS and the penalized variant.

Both fits record the weight vectors, the effective weights expressing each
component in original coordinates, the components and the coefficient vector
after every step.  Vectors are left unnormalised, so downstream checks use
relative tolerances.  Each fit runs in units of 2^e, e the binary exponent
of its response's peak, so no square overflows, and scales back by 2^e
exactly: every fit is scale-equivariant in y.

One loop computes every fit, primal or dual: a residual recursion on a
score matrix S with a weight step.  The primal runs it on the one centered
X with w = M X'r (``_primal_weights``), so X is never deflated; the dual
(``kernel``) on K = X M X' with w = r.  The scores t = S w are the same
vectors, so the two stop at the same component.  ``selection.loocv`` runs
the primal loop on stacks of fold designs rotated to M's eigenbasis, where
the weight step is the scaling ``Preconditioner.scale``, every fold of a
chunk at every lambda in one pass, each fit bit-identical to the same fit
run alone on its rotated design.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateResponseError
from .penalty import Preconditioner

# a fit stops at an orthogonalised score no longer than this times the first
_NORM_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Requested component count."""

    n_components: int

    def __post_init__(self):
        if isinstance(self.n_components, bool) or \
                not isinstance(self.n_components, (int, np.integer)):
            raise ConfigurationError(
                f"n_components must be an integer, got "
                f"{self.n_components!r}")
        if self.n_components < 1:
            raise ConfigurationError("n_components must be at least 1")


@dataclass(frozen=True)
class PlsFit:
    """Result of a (penalized) PLS run.

    Attributes
    ----------
    weights : (d, m) array
        Weight vectors w_i, one column per extracted component.
    effective_weights : (d, m) array
        Vectors with ``X @ effective_weights[:, i] == components[:, i]``.
    components : (n, m) array
        Mutually orthogonal score vectors.
    beta_path : (d, m) array
        Coefficient vector after 1, 2, ..., m components.
    """

    weights: np.ndarray
    effective_weights: np.ndarray
    components: np.ndarray
    beta_path: np.ndarray
    requested_components: int

    @property
    def n_components(self) -> int:
        return self.beta_path.shape[1]

    @property
    def early_stopped(self) -> bool:
        return self.n_components < self.requested_components

    @property
    def beta(self) -> np.ndarray:
        return self.beta_path[:, -1]


def _check_finite(**arrays: np.ndarray):
    """DataError on NaN or inf, which ``_pls_loop``'s units cannot hold."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise DataError(f"{name} has non-finite values (NaN or inf)")


def _check_centered(X: np.ndarray, y: np.ndarray):
    col_scale, y_scale = np.max(np.abs(X), axis=0), np.max(np.abs(y))
    _check_finite(X=col_scale, y=y_scale)  # a NaN or inf sets its peak
    if np.any(np.abs(X.mean(axis=0)) > 1e-8 * col_scale):
        raise ConfigurationError("X must be column-centered")
    if abs(y.mean()) > 1e-8 * y_scale:
        raise ConfigurationError("y must be centered")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products ``a[l] @ b[l]``.

    Each row is one BLAS dot, the call ``a[l] @ b[l]`` on 1-D operands makes.
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _vecmats(v: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Row-wise products ``v[l] @ A[l]``, one gemv (1-D by 2-D) per row."""
    return (v[:, None, :] @ A)[:, 0]


def _pls_loop(S: np.ndarray, y: np.ndarray, cfg: FitConfig,
              weigh: Callable[[np.ndarray], np.ndarray],
              n_fits: int = 1) -> tuple[np.ndarray, ...]:
    """Run ``n_fits`` PLS fits side by side on score matrices S with
    centered responses y.

    S is one n x d matrix with y of length n, shared by every fit, or a
    stack of F such matrices (F, n, d) with responses (F, n); then
    ``n_fits`` is F * L and fit ``f * L + l`` runs on ``S[f]`` and ``y[f]``.
    Returns the stacked weights W, effective weights Wt and coefficient
    path (each (n_fits, m, d)), scores T (n_fits, m, n), steps
    (n_fits, m), each fit's component count k and exponent e; fit l's
    results are rows ``:k`` of its slice, the rest are not results.  Fit l
    runs on its response times 2^-e, e the binary exponent of its peak, so
    all but the (unitless) steps are in units of 2^e.

    Fit l keeps its own residual r (``weigh`` maps the stacked residuals to
    the stacked weights): w = weigh(r)[l], t = S w, orthogonalised twice
    against the earlier scores with the same coefficients applied to the
    effective weight (so S wt = t), then beta += step * wt and
    r -= step * t with step = t'r / t't, until t't <= (``_NORM_TOL`` |t_1|)^2
    (a score too short before the orthogonalisation is too short after it).
    Every product is a stacked matmul whose per-fit BLAS call is the one a
    lone fit makes, so each fit rounds exactly as if it ran alone.  A fit
    that stops has its residual zeroed, so all its later products are exact
    zeros and its coefficients stay put.
    """
    if not y.any(axis=-1).all():
        raise DegenerateResponseError("centered response is identically zero")
    n, d = S.shape[-2:]
    m = cfg.n_components
    # one shared matrix is a stack of one, broadcast over the fits
    S = S.reshape(-1, n, d)
    F = S.shape[0]
    exps = np.frexp(np.max(np.abs(y), axis=-1, keepdims=True))[1]

    def scores(w):
        return (S[:, None] @ w.reshape(F, -1, d, 1)).reshape(n_fits, n)
    weights = np.empty((n_fits, m, d))
    eff_weights = np.empty((n_fits, m, d))
    components = np.empty((n_fits, m, n))
    grams = np.empty((n_fits, m))  # t't of each kept score (1 where stopped)
    steps = np.empty((n_fits, m))
    # zeroed, so the rows after a shared break hold finite values
    betas = np.zeros((n_fits, m, d))
    beta = np.zeros((n_fits, d))
    r = np.empty((n_fits, n))
    r.reshape(y.size // n, -1, n)[...] = np.ldexp(y, -exps).reshape(-1, 1, n)
    active = np.ones(n_fits, dtype=bool)
    count = np.zeros(n_fits, dtype=int)

    for i in range(m):
        w = weigh(r)
        t = scores(w)
        if i == 0:
            tol = _NORM_TOL * np.sqrt(_dots(t, t))
            # squared with pow() per fit, as a lone fit squares its scalar:
            # numpy's array square can differ from pow(x, 2) in the last bit
            gram_tol = np.array([float(v) ** 2 for v in tol])

        wt = w
        T_prev, Wt_prev = components[:, :i], eff_weights[:, :i]
        for _ in range(2):  # Gram-Schmidt twice keeps the scores orthogonal
            # one gemv per fit: the call a lone fit's 2-D by 1-D product makes
            coef = (T_prev @ t[..., None])[..., 0] / grams[:, :i]
            t = t - _vecmats(coef, T_prev)
            wt = wt - _vecmats(coef, Wt_prev)
        gram = _dots(t, t)
        active &= ~(gram <= gram_tol)
        gram = np.where(active, gram, 1.0)
        step = np.where(active, _dots(t, r), 0.0) / gram
        beta = beta + step[:, None] * wt
        r = r - step[:, None] * t
        r[~active] = 0.0

        weights[:, i] = w
        eff_weights[:, i] = wt
        components[:, i] = t
        grams[:, i] = gram
        steps[:, i] = step
        betas[:, i] = beta
        count += active
        if not active.any():
            break

    if not count.all():
        raise DegenerateResponseError("no component could be extracted")
    return weights, eff_weights, components, betas, steps, count, \
        np.repeat(exps, n_fits * n // y.size)


def _columns(a: np.ndarray, k: int, e: int = 0) -> np.ndarray:
    """Rows ``:k`` of one fit's slice of a ``_pls_loop`` result, times 2^e,
    as the contiguous columns of its (., k) result matrix."""
    return np.ldexp(a[:k].T, e, order="C")


def _primal_weights(S: np.ndarray,
                    precondition: Callable[[np.ndarray], np.ndarray] | None
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """``_pls_loop``'s primal weight step w = precondition(S'r) (S'r without
    it) on one design S or a stack (F, n, d): fit ``f * L + l`` runs on
    ``S[f]``, its S'r one gemv as in a lone fit.  ``precondition`` maps an
    (F, L * d) array, row f the S'r of design f's L fits end to end, to
    the weights: ``Preconditioner.apply`` on a plain design, or
    ``Preconditioner.scale`` on one rotated to M's eigenbasis."""
    n, d = S.shape[-2:]
    St = S.reshape(-1, n, d).transpose(0, 2, 1)[:, None]

    def weigh(r):
        w = (St @ r.reshape(St.shape[0], -1, n, 1)).reshape(St.shape[0], -1)
        return (w if precondition is None else precondition(w)).reshape(-1, d)
    return weigh


def _primal_fit(X, y, cfg: FitConfig,
                preconditioner: Preconditioner | None) -> PlsFit:
    """``_pls_loop`` on one centered (X, y) with the weight step
    ``_primal_weights``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ConfigurationError(f"X must be 2-D, got {X.ndim} dimensions")
    if X.shape[0] != y.shape[0]:
        raise ConfigurationError("X and y row counts differ")
    if X.shape[0] == 0:
        raise ConfigurationError("need at least one observation")
    if preconditioner is not None and preconditioner.dim != X.shape[1]:
        raise ConfigurationError(
            f"X has {X.shape[1]} columns, preconditioner expects "
            f"{preconditioner.dim}")
    _check_centered(X, y)
    W, Wt, T, B, _, (k,), (e,) = _pls_loop(X, y, cfg, _primal_weights(
        X, None if preconditioner is None else
        lambda w: preconditioner.apply(w[0])))
    return PlsFit(*(_columns(a[0], k, e) for a in (W, Wt, T, B)),
                  requested_components=cfg.n_components)


def nipals_fit(X, y, cfg: FitConfig) -> PlsFit:
    """Ordinary PLS on centered data: w_i = X' r_i, r_i the residual."""
    return _primal_fit(X, y, cfg, None)


def penalized_pls_fit(X, y, preconditioner: Preconditioner,
                      cfg: FitConfig) -> PlsFit:
    """Penalized PLS: the weight rule becomes w_i = M X' r_i.

    ``preconditioner.dim`` must equal X's column count d.
    """
    return _primal_fit(X, y, cfg, preconditioner)
