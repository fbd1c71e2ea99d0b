import numpy as np
import pytest

from penpls import PenaltySpec, fit_gam, make_preconditioner, predict


def centered_problem(seed, n, d):
    """Random dense regression problem with centered X and y."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X -= X.mean(axis=0)
    y = rng.standard_normal(n)
    y -= y.mean()
    return X, y


def explicit_folds(X, y, lambdas, max_components, n_basis,
                   normalize_response=False):
    """Mean LOO errors and early-stop counts from ``fit_gam`` + ``predict``
    on every fold, at every (lambda, m)."""
    n, p = X.shape
    errors = np.zeros((len(lambdas), max_components))
    early_stops = np.zeros(len(lambdas), dtype=int)
    for i in range(n):
        keep = np.arange(n) != i
        for li, lam in enumerate(lambdas):
            spec = PenaltySpec.shared(lam, p, n_basis)
            for m in range(1, max_components + 1):
                model = fit_gam(X[keep], y[keep], spec, m,
                                normalize_response=normalize_response)
                errors[li, m - 1] += (y[i] - predict(model, X[i:i + 1])[0]) ** 2
            early_stops[li] += model.early_stopped
    return errors / n, early_stops


def random_penalty(seed, p, n_basis, order=2):
    """PenaltySpec with log-uniform random weights in [1e-2, 1e3]."""
    rng = np.random.default_rng(seed + 10_000)
    lambdas = 10.0 ** rng.uniform(-2, 3, size=p)
    return PenaltySpec(lambdas, order, n_basis)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def dense_m(preconditioner):
    """Materialize the dense preconditioner matrix (tests only)."""
    return preconditioner.apply(np.eye(preconditioner.dim))


def reference_pls_fit(X, y, preconditioner, cfg):
    """One (penalized) PLS fit as a plain per-fit loop on 2-D/1-D arrays.

    The stacked loop in ``penpls.pls`` must reproduce every field of this
    bit for bit; it is kept here, outside the package, as that reference.
    """
    from penpls import DegenerateResponseError, PlsFit

    Xi = X.copy()
    weights, eff_weights, components, betas = [], [], [], []
    beta = np.zeros(X.shape[1])
    for i in range(cfg.n_components):
        w = Xi.T @ y
        if preconditioner is not None:
            w = preconditioner.apply(w)
        t = Xi @ w
        t_norm = np.linalg.norm(t)
        if i == 0:
            t1_norm = t_norm
        if t_norm <= cfg.norm_tol * t1_norm:
            break
        if i == 0:
            wt = w
        else:
            coef = (X_wt_prev @ (X @ w)) / (X_wt_prev @ X_wt_prev)
            wt = w - coef * wt_prev
        X_wt = X @ wt
        gram = X_wt @ X_wt
        if gram <= (cfg.norm_tol * t1_norm) ** 2:
            break
        beta = beta + ((X_wt @ y) / gram) * wt
        weights.append(w)
        eff_weights.append(wt)
        components.append(t)
        betas.append(beta)
        if i + 1 < cfg.n_components:
            Xi = Xi - np.outer(t, t @ Xi) / (t @ t)
        wt_prev, X_wt_prev = wt, X_wt
    if not weights:
        raise DegenerateResponseError("no component could be extracted")
    W = np.column_stack(weights)
    T = np.column_stack(components)
    return PlsFit(weights=W, effective_weights=np.column_stack(eff_weights),
                  components=T, beta_path=np.column_stack(betas),
                  cross=T.T @ X @ W, requested_components=cfg.n_components)
