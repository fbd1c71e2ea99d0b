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


def explicit_folds(X, y, lambdas, max_components, n_basis):
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
                model = fit_gam(X[keep], y[keep], spec, m)
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


def exact_roughness(X, y, lam, n_basis, components, grid_size=200, order=2,
                    digits=120):
    """Roughness ``sum(diff(f, 2) ** 2)`` of the first fitted curve of
    ``fit_gam(X, y, PenaltySpec.shared(lam, p, n_basis, order), m)`` for each
    m in ``components``, computed in ``digits``-digit arithmetic.

    The float centered expansion and response, built from the public
    ``make_basis`` and ``transform`` and not from the fit's own design code,
    the curve-grid basis rows and the expansion means are taken as exact
    inputs.  Each beta is the exact least-squares coefficient on the Krylov
    space K_m(M Z'Z, M Z'y), M = (I + P)^-1, which is what m penalized PLS
    components span; so the result carries no rounding of the PLS
    recursion or of the fit's basis rotation at all.
    """
    import mpmath
    from penpls import BasisExpansion, eval_basis_grid, make_basis, transform
    from penpls.testkit import assemble_penalty

    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    bases = [make_basis(X[:, j], n_basis) for j in range(X.shape[1])]
    Zc = transform(X, BasisExpansion(bases))
    z_means = Zc.mean(axis=0)
    Zc -= z_means
    yc = y - y.mean()
    lo, hi = bases[0].domain
    rows = eval_basis_grid(bases[0], np.linspace(lo, hi, grid_size))
    penalty = assemble_penalty(PenaltySpec.shared(
        lam, len(bases), n_basis, order))
    d = Zc.shape[1]
    with mpmath.workdps(digits):
        Z = mpmath.matrix(Zc.tolist())
        gram = Z.T * Z
        rhs = Z.T * mpmath.matrix(yc.tolist())
        M = mpmath.inverse(mpmath.eye(d) + mpmath.matrix(penalty.tolist()))
        curve = mpmath.matrix((rows - z_means[:n_basis]).tolist())
        basis = []  # orthonormal basis of the Krylov space, grown one by one
        v = M * rhs
        result = {}
        for m in range(1, max(components) + 1):
            for _ in range(2):
                for q in basis:
                    v -= (q.T * v)[0] * q
            v /= mpmath.norm(v)
            basis.append(v)
            V = mpmath.matrix(d, m)
            for j, q in enumerate(basis):
                V[:, j] = q
            beta = V * mpmath.lu_solve(V.T * gram * V, V.T * rhs)
            values = curve * beta[:n_basis, 0]
            if m in components:
                result[m] = float(mpmath.fsum(
                    (values[j + 2] - 2 * values[j + 1] + values[j]) ** 2
                    for j in range(grid_size - 2)))
            v = M * (gram * v)
    return result


def reference_pls_fit(X, y, preconditioner, cfg):
    """One (penalized) PLS fit as a plain per-fit residual loop on 2-D/1-D
    arrays.

    The public primal fits of ``penpls.pls`` must reproduce every field of
    this bit for bit; it is kept here, outside the package, as that
    reference.  It also stops on a score's norm before orthogonalisation,
    a test the package's loop leaves out as implied by its test of t't
    after it.  Earlier scores and effective weights are the rows of
    C-ordered arrays, as in the package's loop.
    """
    from penpls import DegenerateResponseError, PlsFit
    from penpls.pls import _NORM_TOL

    n, d = X.shape
    m = cfg.n_components
    W, Wt, T, B = (np.empty((m, d)), np.empty((m, d)), np.empty((m, n)),
                   np.empty((m, d)))
    grams = np.empty(m)
    beta = np.zeros(d)
    r = y.copy()
    k = 0
    for i in range(m):
        w = X.T @ r
        if preconditioner is not None:
            w = preconditioner.apply(w)
        t = X @ w
        t -= t.mean()
        t_norm = np.sqrt(t @ t)
        if i == 0:
            tol = _NORM_TOL * t_norm
        if t_norm <= tol:
            break
        wt = w
        for _ in range(2):
            coef = (T[:i] @ t) / grams[:i]
            t = t - coef @ T[:i]
            wt = wt - coef @ Wt[:i]
        gram = t @ t
        if gram <= tol * tol:
            break
        step = (t @ r) / gram
        beta = beta + step * wt
        r = r - step * t
        W[i], Wt[i], T[i], B[i], grams[i] = w, wt, t, beta, gram
        k = i + 1
    if not k:
        raise DegenerateResponseError("no component could be extracted")
    return PlsFit(weights=np.ascontiguousarray(W[:k].T),
                  effective_weights=np.ascontiguousarray(Wt[:k].T),
                  components=np.ascontiguousarray(T[:k].T),
                  beta_path=np.ascontiguousarray(B[:k].T),
                  requested_components=m)


def reference_fold_fits(S, y, M, cfg):
    """One fold's penalized PLS fits at every lambda of M, as plain per-fit
    loops on 2-D/1-D arrays run on the fold's cross-products.

    ``pls._fold_fits`` must reproduce every field of this bit for
    bit, for each fold of a chunk; it is kept here, outside the package, as
    that reference.  S (n, d) is the fold's design rotated to M's
    eigenbasis, y its centered response, and M holds L blocks of d, one per
    lambda.  Fit l keeps g = S'r; its weight is w = M g (``M.scale``) and
    the image of its score is u = S'S w.  The images of the L weights are
    two products for all of them, (w S') S, as in the package, because a
    gemm rounds a row depending on how many rows it has; every other
    product is the fit's own 1-D or 2-D call, on rows that hold the
    effective weight and its image end to end.

    Returns the exponent e and, per lambda, the effective weights (k, d)
    and their images (k, d), in units of 2^e, and the m steps, exact zeros
    from the step where the fit stops.
    """
    from penpls import DegenerateResponseError
    from penpls.pls import _NORM_TOL

    d = S.shape[1]
    L, m = M.dim // d, cfg.n_components
    if not y.any():
        raise DegenerateResponseError("centered response is identically zero")
    e = int(np.frexp(np.max(np.abs(y)))[1])
    b = S.T @ np.ldexp(y, -e)
    g = np.tile(b, (L, 1))
    WU = np.empty((L, m, 2 * d))
    grams, steps = np.empty((L, m)), np.zeros((L, m))
    tol = np.empty(L)
    k = np.zeros(L, dtype=int)
    active = np.ones(L, dtype=bool)
    for i in range(m):
        w = M.scale(g.ravel()).reshape(L, d)
        scores = w @ S.T
        images = scores @ S
        for l in np.flatnonzero(active):
            wu = np.concatenate([w[l], images[l]])
            if i == 0:
                tol[l] = _NORM_TOL * np.sqrt(scores[l] @ scores[l])
            for _ in range(2 if i else 0):
                coef = (WU[l, :i, d:] @ wu[:d]) / grams[l, :i]
                wu = wu - coef @ WU[l, :i]
            gram = wu[:d] @ wu[d:]
            if gram <= tol[l] * tol[l]:
                active[l] = False
                g[l] = 0.0
                continue
            steps[l, i] = (wu[:d] @ g[l]) / gram
            g[l] = g[l] - steps[l, i] * wu[d:]
            WU[l, i], grams[l, i] = wu, gram
            k[l] = i + 1
    if not k.all():
        raise DegenerateResponseError("no component could be extracted")
    return e, [(WU[l, :k[l], :d], WU[l, :k[l], d:], steps[l])
               for l in range(L)]


def held_out_predictions(Wt, steps, held):
    """Predictions of a fit's held-out row ``held`` (d,) after each of its
    m components, from its k effective weights ``Wt`` (k, d) and its m
    steps, as ``selection.loocv`` forms them: the running sum of the steps
    times w~'held, with the weights' products one gemv on m rows (a gemv
    rounds a row depending on how many rows it has)."""
    rows = np.zeros((len(steps), Wt.shape[1]))
    rows[:len(Wt)] = Wt
    return np.cumsum(steps * (rows @ held))
