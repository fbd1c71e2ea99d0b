"""Primal partial least squares: plain NIPALS and the penalized variant.

Both fits record the weight vectors, the effective weights expressing each
component in original coordinates, the components and the coefficient vector
after every step.  Vectors are left unscaled, so downstream checks use
relative tolerances.

One loop computes every fit, primal or dual: a residual recursion on a
score matrix S with a weight step.  The primal runs it on the one centered
X with w_i = M X'r_i, so X is never deflated; the dual (``kernel``) on
K = X M X' with w_i = r_i.  The scores t = S w are the same vectors, so the
two stop at the same component.  ``penalized_pls_fits`` runs several fits
of one (X, y) side by side, each with its own block of one preconditioner
and its own residual; ``penalized_pls_fit`` and ``nipals_fit`` are its
one-fit case.  Each fit in a stack is bit-identical to the same fit run
alone and stops early on its own.  ``selection.loocv`` runs the loop on a
stack of fold designs, every fold at every lambda in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DegenerateResponseError
from .penalty import Preconditioner

DEFAULT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Requested component count and the relative early-stop threshold."""

    n_components: int
    norm_tol: float = DEFAULT_NORM_TOL

    def __post_init__(self):
        if self.n_components < 1:
            raise ConfigurationError("n_components must be at least 1")
        if not 0.0 < self.norm_tol < 1.0:
            raise ConfigurationError("norm_tol must lie in (0, 1)")


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


def _check_centered(X: np.ndarray, y: np.ndarray):
    col_scale = np.max(np.abs(X), axis=0)
    if np.any(np.abs(X.mean(axis=0)) > 1e-8 * col_scale + 1e-12):
        raise ConfigurationError("X must be column-centered")
    y_scale = np.max(np.abs(y)) if y.size else 0.0
    if abs(y.mean()) > 1e-8 * y_scale + 1e-12:
        raise ConfigurationError("y must be centered")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products ``a[l] @ b[l]``.

    Each row is one BLAS dot, the call ``a[l] @ b[l]`` on 1-D operands makes.
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _matvecs(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise products ``A[l] @ v[l]`` (``A`` may be one shared matrix).

    Each row is one BLAS gemv, the call the 2-D by 1-D product makes.
    """
    return (A @ v[..., None])[..., 0]


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
    (n_fits, m) and each fit's component count k; fit l's results are
    rows ``:k`` of its slice, and the rest of its rows are not results.

    Fit l keeps its own residual r (``weigh`` maps the stacked residuals to
    the stacked weights): w = weigh(r)[l], t = S w, orthogonalised twice
    against the earlier scores with the same coefficients applied to the
    effective weight (so S wt = t), then beta += step * wt and
    r -= step * t with step = t'r / t't.  Every product is a stacked matmul
    whose per-fit BLAS call is the one a lone fit makes, so each fit rounds
    exactly as if it ran alone.  A fit that stops has its residual zeroed,
    so all its later products are exact zeros and its coefficients stay
    put.
    """
    if not y.any(axis=-1).all():
        raise DegenerateResponseError("centered response is identically zero")
    n, d = S.shape[-2:]
    m = cfg.n_components
    # one shared matrix is a stack of one, broadcast over the fits
    S = S.reshape(-1, n, d)
    F = S.shape[0]

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
    r.reshape(y.size // n, -1, n)[...] = y.reshape(-1, 1, n)
    active = np.ones(n_fits, dtype=bool)
    count = np.zeros(n_fits, dtype=int)

    for i in range(m):
        w = weigh(r)
        t = scores(w)
        t_norm = np.sqrt(_dots(t, t))
        if i == 0:
            tol = cfg.norm_tol * t_norm
            # squared with pow() per fit, as a lone fit squares its scalar:
            # numpy's array square can differ from pow(x, 2) in the last bit
            gram_tol = np.array([float(v) ** 2 for v in tol])
        active &= ~(t_norm <= tol)

        wt = w
        T_prev, Wt_prev = components[:, :i], eff_weights[:, :i]
        for _ in range(2):  # Gram-Schmidt twice keeps the scores orthogonal
            coef = _matvecs(T_prev, t) / grams[:, :i]
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
    return weights, eff_weights, components, betas, steps, count


def _columns(a: np.ndarray, k: int) -> np.ndarray:
    """Rows ``:k`` of one fit's slice of a ``_pls_loop`` result, as the
    contiguous columns of its (., k) result matrix."""
    return np.ascontiguousarray(a[:k].T)


def _primal_fits(X, y, cfg: FitConfig,
                 preconditioner: Preconditioner | None) -> list[PlsFit]:
    """One fit per d-sized block of ``preconditioner`` (one plain fit
    without it) of one centered (X, y): ``_pls_loop`` on S = X with the
    weight step w = M X'r (w = X'r for NIPALS)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ConfigurationError("X and y row counts differ")
    d = X.shape[1]
    n_fits = 1
    if preconditioner is not None:
        n_fits = preconditioner.dim // d if d else 0
        if n_fits < 1 or preconditioner.dim != n_fits * d:
            raise ConfigurationError(
                f"preconditioner dimension {preconditioner.dim} is not a "
                f"positive multiple of d = {d}")
    _check_centered(X, y)

    def weigh(r):
        w = _matvecs(X.T, r)
        return w if preconditioner is None else \
            preconditioner.apply(w.reshape(-1)).reshape(n_fits, d)

    W, Wt, T, B, _, count = _pls_loop(X, y, cfg, weigh, n_fits)
    return [PlsFit(*(_columns(a[l], k) for a in (W, Wt, T, B)),
                   requested_components=cfg.n_components)
            for l, k in enumerate(count)]


def nipals_fit(X, y, cfg: FitConfig) -> PlsFit:
    """Ordinary PLS on centered data: w_i = X' r_i, r_i the residual."""
    return _primal_fits(X, y, cfg, None)[0]


def penalized_pls_fit(X, y, preconditioner: Preconditioner,
                      cfg: FitConfig) -> PlsFit:
    """Penalized PLS: the weight rule becomes w_i = M X' r_i."""
    return _primal_fits(X, y, cfg, preconditioner)[0]


def penalized_pls_fits(X, y, preconditioner: Preconditioner,
                       cfg: FitConfig) -> list[PlsFit]:
    """Penalized PLS fits of one (X, y), one per d-sized block of
    ``preconditioner``, in one stacked pass.

    ``preconditioner.dim`` must be a positive multiple L of d; its block l,
    rows ``l*d .. (l+1)*d``, is fit l's M.  Each fit is bit-identical to
    ``penalized_pls_fit`` with that block alone, and stops early on its own.
    Besides the shared X, memory is the ``(L, m, n + 3d)`` of results.
    """
    return _primal_fits(X, y, cfg, preconditioner)

