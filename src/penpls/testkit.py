"""Seeded synthetic data and independent oracles used by the test suites.

The generator is NumPy's ``default_rng`` (PCG64), so a fixed seed reproduces
the same dataset bytes on any platform.  The oracles here, the dense K_q and
penalty matrix among them, avoid the code paths they are used to certify.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .penalty import PenaltySpec, _difference_operator
from .splines import transform

TRUTH_FUNCTIONS = {
    "linear": lambda x: 2.0 * x,
    "quadratic": lambda x: 4.0 * (x - 0.5) ** 2,
    "sine": lambda x: np.sin(2.0 * np.pi * x),
    "step": lambda x: np.where(x > 0.5, 1.0, 0.0),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible additive dataset on the unit cube."""

    seed: int
    n: int
    p: int
    noise: float
    functions: tuple[str, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ConfigurationError("need at least one predictor")
        if self.n < 1:
            raise ConfigurationError("need at least one observation")
        if len(self.functions) != self.p:
            raise ConfigurationError("one truth function per predictor required")
        unknown = set(self.functions) - set(TRUTH_FUNCTIONS)
        if unknown:
            raise ConfigurationError(f"unknown truth functions: {sorted(unknown)}")


def gen_additive(spec: SyntheticSpec):
    """Draw (X, y, truths): uniform X, additive signal, Gaussian noise."""
    rng = np.random.default_rng(spec.seed)
    X = rng.uniform(size=(spec.n, spec.p))
    truths = [TRUTH_FUNCTIONS[name] for name in spec.functions]
    y = sum(f(X[:, j]) for j, f in enumerate(truths))
    y = y + spec.noise * rng.standard_normal(spec.n)
    return X, y, truths


def dense_ls_oracle(X, y) -> np.ndarray:
    """Minimal-norm least squares solution via SVD.

    Singular values below ``1e-10`` times the largest are treated as zero.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    keep = s > 1e-10 * s[0]
    return Vt[keep].T @ ((U[:, keep].T @ y) / s[keep])


def closed_form_beta(X, y, W) -> np.ndarray:
    """Coefficients as the least squares fit constrained to span(W).

    Solves W (W'X'XW)^- W'X'y; a rank-deficient Gram matrix is handled by
    dropping eigenvalues below ``1e-10 * trace``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    W = np.atleast_2d(np.asarray(W, dtype=float))
    XW = X @ W
    gram = XW.T @ XW
    rhs = XW.T @ y
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-10 * np.trace(gram)
    coef = evecs[:, keep] @ ((evecs[:, keep].T @ rhs) / evals[keep])
    return W @ coef


def cross_matrix(fit, X) -> np.ndarray:
    """R = T' X W of a PLS fit on the centered X it was fit to: upper
    bidiagonal for the PLS recursion (criterion 6)."""
    return fit.components.T @ np.asarray(X, dtype=float) @ fit.weights


def dense_predict(model, X) -> np.ndarray:
    """intercept + (Z - z_means) @ beta on the dense expansion Z of X: the
    centered-design formula that ``predict``'s piecewise-polynomial scorer is
    checked against."""
    Z = transform(X, model.expansion)
    return model.intercept + (Z - model.z_means) @ model.beta


def penalty_kernel(n_basis: int, order: int) -> np.ndarray:
    """Dense order-q difference penalty K_q = D'D: symmetric PSD of rank
    ``n_basis - order``, null on polynomials of degree below ``order``."""
    diff = _difference_operator(n_basis, order)
    return diff.T @ diff


def assemble_penalty(spec: PenaltySpec) -> np.ndarray:
    """The full block-diagonal penalty matrix (pK x pK), dense: the oracle
    that ``Preconditioner`` is checked against."""
    return np.kron(np.diag(spec.lambdas),
                   penalty_kernel(spec.n_basis, spec.order))


def weighted_inner(u, v, P) -> float:
    """Inner product u' (I + P) v, with M^{-1} = I + P applied exactly."""
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise ConfigurationError("vector shapes differ")
    return float(u @ v + u @ (np.asarray(P, dtype=float) @ v))


def krylov_basis(apply_a, b, n_vectors: int) -> np.ndarray:
    """Columns b, A b, ..., A^{m-1} b for a matrix given as a callable."""
    if n_vectors < 1:
        raise ConfigurationError("need at least one Krylov vector")
    b = np.asarray(b, dtype=float).ravel()
    cols = [b]
    for _ in range(n_vectors - 1):
        cols.append(np.asarray(apply_a(cols[-1]), dtype=float).ravel())
    return np.column_stack(cols)


def numerical_rank(A, rel_tol: float = 1e-8) -> int:
    """Count singular values above ``rel_tol`` times the largest."""
    s = np.linalg.svd(np.atleast_2d(np.asarray(A, dtype=float)),
                      compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def write_csv(path, X, y, predictor_names=None, response_name="y"):
    """Dump a dataset in the comma-delimited convention the CLI ingests."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if predictor_names is None:
        predictor_names = [f"x{j + 1}" for j in range(X.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(predictor_names) + [response_name])
        for i in range(X.shape[0]):
            writer.writerow([repr(float(v)) for v in X[i]] +
                            [repr(float(y[i]))])
