"""Acceptance checks for the proved algorithmic equivalences.

Each test prints a single pass/fail line (bypassing pytest capture) so the
whole gate can be read off the console in one glance.
"""
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import exact_roughness
from penpls import (FitConfig, PenaltySpec, eval_basis_grid, fit_gam,
                    fitted_function, gram_matrix,
                    kernel_penalized_pls_fit, loocv, make_basis,
                    make_preconditioner, nipals_fit, pcg_iterates,
                    penalized_pls_fit, penalty_kernel)
from penpls.testkit import (SyntheticSpec, closed_form_beta, dense_ls_oracle,
                            gen_additive, krylov_basis, numerical_rank)

BIRTH_DATA = os.environ.get(
    "BIRTH_DATA", os.path.join(os.path.dirname(__file__), "data", "birth.csv"))


@pytest.fixture
def emit(capfd):
    def _emit(line):
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    return _emit


@pytest.fixture
def criterion(emit):
    @contextmanager
    def _criterion(num, label):
        try:
            yield
        except BaseException:
            emit(f"criterion {num:2d} [{label}]: FAIL")
            raise
        emit(f"criterion {num:2d} [{label}]: pass")
    return _criterion


def instance(seed, n=30, p=2, n_basis=10):
    """Seeded centered design with one penalty weight per predictor block."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p * n_basis))
    X -= X.mean(axis=0)
    y = rng.standard_normal(n)
    y -= y.mean()
    lambdas = 10.0 ** rng.uniform(-2.0, 3.0, size=p)
    return X, y, PenaltySpec(lambdas, 2, n_basis)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_01_iterative_matches_closed_form(criterion):
    with criterion(1, "closed-form coefficient path"):
        start = time.perf_counter()
        for seed in range(50):
            X, y, spec = instance(seed)
            M = make_preconditioner(spec)
            fit = penalized_pls_fit(X, y, M, FitConfig(10))
            for m in range(1, fit.n_components + 1):
                ref = closed_form_beta(X, y, fit.weights[:, :m])
                assert rel_err(fit.beta_path[:, m - 1], ref) <= 1e-8, \
                    f"seed {seed}, m {m}"
        assert time.perf_counter() - start <= 5.0


def test_02_cg_matches_pls_path(criterion):
    with criterion(2, "conjugate-gradient iterate path"):
        start = time.perf_counter()
        for seed in range(50):
            X, y, spec = instance(seed)
            M = make_preconditioner(spec)
            fit = penalized_pls_fit(X, y, M, FitConfig(10))
            res = pcg_iterates(X, y, M, fit.n_components)
            for m in range(min(res.n_steps, fit.n_components)):
                assert rel_err(res.iterates[:, m],
                               fit.beta_path[:, m]) <= 1e-6, \
                    f"seed {seed}, m {m + 1}"
        assert time.perf_counter() - start <= 5.0


def test_03_primal_dual_fitted_values(criterion):
    with criterion(3, "primal-dual agreement"):
        start = time.perf_counter()
        for seed in range(50):
            if seed < 25:
                X, y, spec = instance(seed)
            else:  # wide case: more columns than rows
                X, y, spec = instance(seed, n=25, p=2, n_basis=30)
            M = make_preconditioner(spec)
            m = 6
            primal = penalized_pls_fit(X, y, M, FitConfig(m))
            dual = kernel_penalized_pls_fit(gram_matrix(X, M), y, m)
            assert dual.n_components == primal.n_components, f"seed {seed}"
            yhat_primal = X @ primal.beta
            yhat_dual = dual.fitted_path[:, dual.n_components - 1]
            bound = 1e-8 * np.linalg.norm(y)
            assert np.linalg.norm(yhat_primal - yhat_dual) <= bound, \
                f"seed {seed}"
        assert time.perf_counter() - start <= 5.0


def test_04_zero_penalty_reduces_to_nipals(criterion):
    with criterion(4, "zero-penalty reduction"):
        for seed in range(10):
            X, y, _ = instance(seed, n=30, p=2, n_basis=6)
            M = make_preconditioner(PenaltySpec(np.zeros(2), 2, 6))
            pen = penalized_pls_fit(X, y, M, FitConfig(6))
            plain = nipals_fit(X, y, FitConfig(6))
            for a, b in [(pen.weights, plain.weights),
                         (pen.components, plain.components),
                         (pen.beta_path, plain.beta_path)]:
                assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), \
                    f"seed {seed}"


def test_05_full_rank_termination_at_ls_solution(criterion):
    with criterion(5, "least-squares termination"):
        for seed in range(10):
            for penalized in (False, True):
                X, y, spec = instance(seed, n=40, p=2, n_basis=6)  # d = 12
                if not penalized:
                    spec = PenaltySpec(np.zeros(2), 2, 6)
                M = make_preconditioner(spec)
                fit = penalized_pls_fit(X, y, M, FitConfig(12))
                assert fit.n_components == 12, f"seed {seed}"
                assert rel_err(fit.beta, dense_ls_oracle(X, y)) <= 1e-6, \
                    f"seed {seed}, penalized={penalized}"


def test_06_cross_matrix_bidiagonal(criterion):
    with criterion(6, "bidiagonal cross matrix"):
        for seed in range(20):
            X, y, spec = instance(seed)
            fit = penalized_pls_fit(X, y, make_preconditioner(spec),
                                    FitConfig(8))
            R = fit.cross
            scale = np.max(np.abs(R))
            mask = np.ones_like(R, dtype=bool)
            for i in range(R.shape[0]):
                mask[i, i] = False
                if i + 1 < R.shape[1]:
                    mask[i, i + 1] = False
            assert np.max(np.abs(R[mask])) <= 1e-8 * scale, f"seed {seed}"


def test_07_weights_span_krylov_space(criterion):
    with criterion(7, "Krylov span of weights"):
        for seed in range(20):
            X, y, spec = instance(seed)
            M = make_preconditioner(spec)
            fit = penalized_pls_fit(X, y, M, FitConfig(8))
            b = M.apply(X.T @ y)
            basis = krylov_basis(lambda v: M.apply(X.T @ (X @ v)), b,
                                 fit.n_components)
            m = numerical_rank(basis)
            assert numerical_rank(fit.weights[:, :m]) == m, f"seed {seed}"
            assert numerical_rank(basis[:, :m]) == m, f"seed {seed}"
            joint = np.hstack([fit.weights[:, :m], basis[:, :m]])
            assert numerical_rank(joint) == m, f"seed {seed}"


def test_08_spline_and_penalty_hand_values(criterion):
    with criterion(8, "spline and penalty correctness"):
        rng = np.random.default_rng(88)
        basis = make_basis(rng.uniform(size=120), n_basis=20, degree=3)
        lo, hi = basis.domain
        for x in np.linspace(lo, hi, 257):
            assert abs(eval_basis_grid(basis, [x])[0].sum() - 1.0) <= 1e-12
        K2 = penalty_kernel(20, 2)
        affine = 1.5 - 0.25 * np.arange(20)
        assert np.max(np.abs(K2 @ affine)) <= 1e-12
        expect = np.array([[1.0, -2.0, 1.0, 0.0],
                           [-2.0, 5.0, -4.0, 1.0],
                           [1.0, -4.0, 5.0, -2.0],
                           [0.0, 1.0, -2.0, 1.0]])
        np.testing.assert_array_equal(penalty_kernel(4, 2), expect)


def test_09_change_of_inner_product(criterion):
    with criterion(9, "change of inner product"):
        for seed in range(20):
            X, y, spec = instance(seed)
            M = make_preconditioner(spec)
            fit = penalized_pls_fit(X, y, M, FitConfig(6))
            L = np.linalg.cholesky(M.apply(np.eye(spec.dim)))
            plain = nipals_fit(X @ L, y, FitConfig(fit.n_components))
            mapped = L @ plain.beta_path
            assert np.max(np.abs(fit.beta_path - mapped)) <= \
                1e-8 * max(np.max(np.abs(mapped)), 1e-300), f"seed {seed}"


# roughness of the first fitted curve on the frozen fixture below, computed
# exactly (120 digits) by ``conftest.exact_roughness``; its own test checks
# these constants against it
GOLDEN_ROUGHNESS = {
    1: 3.5898879391083676e-05,
    5: 0.00044958067861008803,
    9: 0.0018332688865108943,
    13: 0.007879063489329128,
}


def roughness_fixture():
    X, y, _ = gen_additive(SyntheticSpec(2024, 100, 1, 0.3, ("sine",)))
    return X, y, PenaltySpec.shared(2000.0, 1, 20)


def test_10_roughness_grows_with_components(criterion):
    with criterion(10, "roughness grows with components"):
        X, y, penalty = roughness_fixture()
        roughness = {}
        for m in (1, 5, 9, 13):
            model = fit_gam(X, y, penalty, m)
            assert model.n_components == m
            fn = fitted_function(model, 0, 200)
            roughness[m] = float(np.sum(np.diff(fn.values, 2) ** 2))
        values = [roughness[m] for m in (1, 5, 9, 13)]
        assert all(b >= a for a, b in zip(values, values[1:])), roughness
        for m, golden in GOLDEN_ROUGHNESS.items():
            assert roughness[m] == pytest.approx(golden, rel=1e-10), \
                f"m {m}: {roughness[m]!r} vs golden {golden!r}"


def test_10_golden_roughness_is_exact():
    X, y, penalty = roughness_fixture()
    exact = exact_roughness(X, y, float(penalty.lambdas[0]), penalty.n_basis,
                            tuple(GOLDEN_ROUGHNESS))
    assert exact.keys() == GOLDEN_ROUGHNESS.keys()
    for m, golden in GOLDEN_ROUGHNESS.items():
        assert golden == pytest.approx(exact[m], rel=1e-12), f"m {m}"


def test_11_birth_data_loo_error(emit):
    if not os.path.exists(BIRTH_DATA):
        emit("criterion 11 [birth-data cross-validation]: "
              "skipped (no data file)")
        pytest.skip(f"no birth data file at {BIRTH_DATA}")
    from penpls import ingest
    data = ingest(BIRTH_DATA, "birthweight")
    _, choice = loocv(data.X, data.y,
                      lambdas=list(range(300, 361, 10)),
                      max_components=10)
    deviation = (abs(choice.loo_error - 0.090) > 0.01 or choice.m_opt != 2)
    status = "pass" if not deviation else (
        f"deviation reported: m={choice.m_opt}, "
        f"loo={choice.loo_error:.4f} (expected 0.090 +/- 0.01 at m=2)")
    emit(f"criterion 11 [birth-data cross-validation]: {status}")
