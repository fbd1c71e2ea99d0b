import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import centered_problem, random_penalty
from penpls import (ConfigurationError, FitConfig, NumericalError, PenaltySpec,
                    make_preconditioner, pcg_iterates, penalized_pls_fit)
from penpls.testkit import (assemble_penalty, dense_ls_oracle, numerical_rank,
                            weighted_inner)


class TestWeightedInner:
    def test_zero_penalty_is_dot_product(self, rng):
        u, v = rng.standard_normal((2, 6))
        assert weighted_inner(u, v, np.zeros((6, 6))) == pytest.approx(u @ v)

    def test_symmetric(self, rng):
        P = assemble_penalty(PenaltySpec(np.array([2.0]), 2, 6))
        u, v = rng.standard_normal((2, 6))
        assert weighted_inner(u, v, P) == pytest.approx(
            weighted_inner(v, u, P), abs=1e-12)

    def test_positive_definite(self, rng):
        P = assemble_penalty(PenaltySpec(np.array([5.0]), 2, 6))
        u = rng.standard_normal(6)
        assert weighted_inner(u, u, P) > 0.0


class TestPcgIterates:
    def test_orthonormal_identity_converges_in_one_step(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 6)))
        Q -= Q.mean(axis=0)
        Q, _ = np.linalg.qr(Q)
        y = rng.standard_normal(40)
        y -= y.mean()
        M = make_preconditioner(PenaltySpec(np.zeros(2), 2, 3))
        res = pcg_iterates(Q, y, M, 6)
        np.testing.assert_allclose(res.iterates[:, 0], Q.T @ y, rtol=1e-10)
        assert res.n_steps == 1  # residual vanishes immediately

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_penalized_pls_path(self, seed):
        X, y = centered_problem(seed, 30, 10)
        M = make_preconditioner(random_penalty(seed, 2, 5))
        fit = penalized_pls_fit(X, y, M, FitConfig(10))
        res = pcg_iterates(X, y, M, fit.n_components)
        m = min(res.n_steps, fit.n_components)
        for i in range(m):
            ref = fit.beta_path[:, i]
            err = np.linalg.norm(res.iterates[:, i] - ref) / np.linalg.norm(ref)
            assert err <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 60), st.integers(1, 3),
           st.integers(4, 15), st.integers(1, 10),
           st.lists(st.floats(-2, 6), min_size=3, max_size=3))
    def test_matches_penalized_pls_path_on_random_lambdas(
            self, seed, n, p, n_basis, m, log_lambdas):
        # criterion 2's tolerance, on tall and wide designs alike
        X, y = centered_problem(seed, n, p * n_basis)
        M = make_preconditioner(PenaltySpec(10.0 ** np.array(log_lambdas[:p]),
                                            2, n_basis))
        fit = penalized_pls_fit(X, y, M, FitConfig(m))
        res = pcg_iterates(X, y, M, fit.n_components)
        for i in range(min(res.n_steps, fit.n_components)):
            ref = fit.beta_path[:, i]
            err = np.linalg.norm(res.iterates[:, i] - ref) / np.linalg.norm(ref)
            assert err <= 1e-6, f"step {i + 1}"

    def test_reaches_ls_solution_on_full_rank_problem(self):
        X, y = centered_problem(7, 40, 8)
        M = make_preconditioner(random_penalty(7, 2, 4))
        res = pcg_iterates(X, y, M, 8)
        np.testing.assert_allclose(res.iterates[:, -1], dense_ls_oracle(X, y),
                                   rtol=1e-6)

    def test_directions_conjugate(self):
        X, y = centered_problem(8, 30, 8)
        spec = random_penalty(8, 2, 4)
        M = make_preconditioner(spec)
        P = assemble_penalty(spec)
        res = pcg_iterates(X, y, M, 8)
        A = lambda v: M.apply(X.T @ (X @ v))
        D = res.directions
        scale = max(weighted_inner(D[:, i], A(D[:, i]), P)
                    for i in range(res.n_steps))
        for i in range(res.n_steps):
            for j in range(i):
                assert abs(weighted_inner(D[:, i], A(D[:, j]), P)) <= 1e-8 * scale

    def test_objective_nonincreasing(self):
        X, y = centered_problem(9, 30, 8)
        spec = random_penalty(9, 2, 4)
        M = make_preconditioner(spec)
        P = assemble_penalty(spec)
        b = M.apply(X.T @ y)
        A = lambda v: M.apply(X.T @ (X @ v))

        def phi(beta):
            return 0.5 * weighted_inner(beta, A(beta), P) - \
                weighted_inner(beta, b, P)

        res = pcg_iterates(X, y, M, 8)
        values = [phi(res.iterates[:, i]) for i in range(res.n_steps)]
        assert all(b_ <= a_ + 1e-10 for a_, b_ in zip(values, values[1:]))

    def test_direction_and_residual_spans_agree(self):
        X, y = centered_problem(10, 30, 8)
        M = make_preconditioner(random_penalty(10, 2, 4))
        res = pcg_iterates(X, y, M, 6)
        m = res.n_steps
        assert numerical_rank(res.directions) == m
        assert numerical_rank(res.residuals) == m
        assert numerical_rank(np.hstack([res.directions, res.residuals])) == m

    def test_accumulated_sum_formula(self):
        # beta_m as the sum of projections of b onto the search directions
        X, y = centered_problem(11, 30, 8)
        spec = random_penalty(11, 2, 4)
        M = make_preconditioner(spec)
        P = assemble_penalty(spec)
        res = pcg_iterates(X, y, M, 6)
        b = M.apply(X.T @ y)
        A = lambda v: M.apply(X.T @ (X @ v))
        acc = np.zeros(X.shape[1])
        for i in range(res.n_steps):
            d = res.directions[:, i]
            acc = acc + (weighted_inner(d, b, P) /
                         weighted_inner(d, A(d), P)) * d
            np.testing.assert_allclose(res.iterates[:, i], acc, atol=1e-10)

    def test_classical_two_term_shortcut_agrees(self):
        # small-scale check that the full-history projection reproduces the
        # textbook recursion using only the previous direction
        X, y = centered_problem(12, 25, 6)
        spec = random_penalty(12, 2, 3)
        M = make_preconditioner(spec)
        res = pcg_iterates(X, y, M, 6)

        def inner(u, v):
            return float(u @ M.apply_inverse(v))

        A = lambda v: M.apply(X.T @ (X @ v))
        b = M.apply(X.T @ y)
        beta = np.zeros(6)
        d = r = b
        for i in range(res.n_steps):
            ad = A(d)
            a = inner(d, r) / inner(d, ad)
            beta = beta + a * d
            r_new = r - a * ad
            d = r_new + (inner(r_new, r_new) / inner(r, r)) * d
            r = r_new
            np.testing.assert_allclose(res.iterates[:, i], beta,
                                       atol=1e-8 * np.linalg.norm(beta))

    @pytest.mark.parametrize("d,steps", [(12, 8), (6, 6)],
                             ids=["full", "early_stop"])
    def test_applies_m_and_its_inverse_once_per_step(self, d, steps):
        # M once for b and once per A_M d_i = M (X'X d_i), M^{-1} once for
        # b and once per residual; with d = 6 the norm test stops CG after
        # its 6th step of 8
        X, y = centered_problem(15, 30, d)
        M = make_preconditioner(random_penalty(15, 2, d // 2))
        calls = []
        for name in ("apply", "apply_inverse"):
            setattr(M, name, lambda v, name=name, real=getattr(M, name):
                    calls.append(name) or real(v))
        res = pcg_iterates(X, y, M, 8)
        assert res.n_steps == steps
        assert calls.count("apply") <= res.n_steps + 1
        assert calls.count("apply_inverse") <= res.n_steps + 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(5, 60), st.integers(1, 3),
           st.integers(4, 15), st.integers(1, 20),
           st.lists(st.floats(-2, 6), min_size=3, max_size=3))
    def test_recurrence_residual_matches_the_true_residual(
            self, seed, n, p, n_basis, m, log_lambdas):
        # r_k = r_{k-1} - a A_M d_{k-1} stays b - A_M beta_{k-1}, on tall
        # and wide designs alike, up to lambda = 1e6
        X, y = centered_problem(seed, n, p * n_basis)
        M = make_preconditioner(PenaltySpec(10.0 ** np.array(log_lambdas[:p]),
                                            2, n_basis))
        res = pcg_iterates(X, y, M, m)
        b = M.apply(X.T @ y)
        for k in range(1, res.n_steps):
            true = b - M.apply(X.T @ (X @ res.iterates[:, k - 1]))
            err = np.linalg.norm(res.residuals[:, k] - true) / np.linalg.norm(b)
            assert err <= 1e-10, f"residual {k}"

    def test_row_count_mismatch_rejected(self):
        X, y = centered_problem(14, 10, 4)
        M = make_preconditioner(PenaltySpec(np.zeros(2), 1, 2))
        with pytest.raises(ConfigurationError, match="row counts"):
            pcg_iterates(X, y[:-1], M, 3)
        with pytest.raises(ConfigurationError, match="2-D"):
            pcg_iterates(X[:, 0], y, M, 3)

    def test_zero_rhs_is_an_error(self):
        X, _ = centered_problem(13, 10, 4)
        M = make_preconditioner(PenaltySpec(np.zeros(2), 1, 2))
        with pytest.raises(NumericalError):
            pcg_iterates(X, np.zeros(10), M, 3)
