import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_m
from penpls import (ConfigurationError, NumericalError, PenaltySpec,
                    make_preconditioner)
from penpls.penalty import _difference_operator
from penpls.testkit import assemble_penalty, penalty_kernel


class TestDifferenceMatrix:
    def test_four_columns(self):
        np.testing.assert_array_equal(
            _difference_operator(4, 1),
            [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])

    def test_two_columns(self):
        np.testing.assert_array_equal(_difference_operator(2, 1), [[1, -1]])

    def test_second_difference_coefficients(self):
        np.testing.assert_array_equal(
            _difference_operator(4, 2),
            [[1, -2, 1, 0], [0, 1, -2, 1]])

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            _difference_operator(1, 1)


class TestPenaltyKernel:
    def test_first_order_2x2(self):
        np.testing.assert_array_equal(penalty_kernel(2, 1), [[1, -1], [-1, 1]])

    def test_second_order_4x4(self):
        np.testing.assert_array_equal(
            penalty_kernel(4, 2),
            [[1, -2, 1, 0], [-2, 5, -4, 1], [1, -4, 5, -2], [0, 1, -2, 1]])

    @pytest.mark.parametrize("K", [3, 5, 8, 12])
    def test_annihilates_affine_sequences(self, K):
        kernel = penalty_kernel(K, 2)
        np.testing.assert_allclose(kernel @ np.ones(K), 0.0, atol=1e-12)
        np.testing.assert_allclose(kernel @ np.arange(1.0, K + 1), 0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("K,q", [(4, 1), (6, 2), (8, 3), (12, 4)])
    def test_rank_is_K_minus_q(self, K, q):
        s = np.linalg.svd(penalty_kernel(K, q), compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == K - q

    def test_order_out_of_range(self):
        with pytest.raises(ConfigurationError):
            penalty_kernel(4, 4)
        with pytest.raises(ConfigurationError):
            penalty_kernel(4, 0)

    @pytest.mark.parametrize("args", [(4.0, 2), (4, 2.5), (True, 1),
                                      ("4", 2), (4, None)])
    def test_non_integer_arguments_rejected(self, args):
        with pytest.raises(ConfigurationError):
            penalty_kernel(*args)


class TestAssemblePenalty:
    def test_zero_lambdas(self):
        spec = PenaltySpec(np.zeros(3), 2, 5)
        np.testing.assert_array_equal(assemble_penalty(spec), np.zeros((15, 15)))

    def test_kronecker_blocks(self):
        spec = PenaltySpec(np.array([1.0, 2.0]), 1, 2)
        k1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expect = np.zeros((4, 4))
        expect[:2, :2] = k1
        expect[2:, 2:] = 2 * k1
        np.testing.assert_array_equal(assemble_penalty(spec), expect)

    def test_symmetric_psd(self, rng):
        spec = PenaltySpec(np.array([0.5, 3.0, 10.0]), 2, 6)
        P = assemble_penalty(spec)
        np.testing.assert_array_equal(P, P.T)
        for _ in range(100):
            x = rng.standard_normal(P.shape[0])
            assert x @ P @ x >= -1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            PenaltySpec(np.array([-1.0]), 2, 5)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigurationError, match="finite"):
            PenaltySpec.shared(lam, 3, 5)
        with pytest.raises(ConfigurationError, match="finite"):
            PenaltySpec(np.array([1.0, lam]), 2, 5)


class TestPreconditioner:
    def test_zero_penalty_is_identity(self, rng):
        M = make_preconditioner(PenaltySpec(np.zeros(2), 2, 4))
        v = rng.standard_normal(8)
        np.testing.assert_allclose(M.apply(v), v, atol=1e-14)

    def test_hand_computed_2x2_block(self):
        M = make_preconditioner(PenaltySpec(np.array([1.0]), 1, 2))
        np.testing.assert_allclose(dense_m(M),
                                   np.array([[2, 1], [1, 2]]) / 3.0,
                                   atol=1e-12)

    def test_inverse_property(self, rng):
        spec = PenaltySpec(np.array([0.3, 7.0]), 2, 5)
        M = make_preconditioner(spec)
        P = assemble_penalty(spec)
        eye_plus_p = np.eye(spec.dim) + P
        for _ in range(100):
            v = rng.standard_normal(spec.dim)
            np.testing.assert_allclose(M.apply(eye_plus_p @ v), v, atol=1e-10)

    def test_matches_dense_inverse_single_block(self, rng):
        spec = PenaltySpec(np.array([2.5]), 2, 6)
        M = make_preconditioner(spec)
        dense = np.linalg.inv(np.eye(6) + 2.5 * penalty_kernel(6, 2))
        v = rng.standard_normal(6)
        np.testing.assert_allclose(M.apply(v), dense @ v, atol=1e-12)

    def test_linearity(self, rng):
        M = make_preconditioner(PenaltySpec(np.array([1.0, 4.0]), 2, 4))
        u, v = rng.standard_normal((2, 8))
        np.testing.assert_allclose(
            M.apply(2.0 * u - 3.0 * v),
            2.0 * M.apply(u) - 3.0 * M.apply(v), atol=1e-12)

    def test_apply_inverse_is_forward_map(self, rng):
        spec = PenaltySpec(np.array([0.7, 12.0]), 2, 5)
        M = make_preconditioner(spec)
        P = assemble_penalty(spec)
        v = rng.standard_normal(spec.dim)
        np.testing.assert_allclose(M.apply_inverse(v), v + P @ v, atol=1e-12)

    def test_shape_mismatch(self):
        M = make_preconditioner(PenaltySpec(np.array([1.0]), 2, 4))
        with pytest.raises(ConfigurationError):
            M.apply(np.zeros(5))

    def test_scale_is_m_in_the_rotated_basis(self, rng):
        # block j of M is V diag(diagonal[j]) V'
        spec = PenaltySpec(np.array([0.0, 3.0, 1e6]), 2, 6)
        M = make_preconditioner(spec)
        V = M.basis
        np.testing.assert_allclose(V.T @ V, np.eye(6), atol=1e-14)
        v = rng.standard_normal(spec.dim)
        coords = (v.reshape(3, 6) @ V).reshape(-1)  # blockdiag(V)' v
        back = (M.scale(coords).reshape(3, 6) @ V.T).reshape(-1)
        np.testing.assert_allclose(back, M.apply(v), atol=1e-13)

    def test_scale_multiplies_by_the_diagonal(self, rng):
        # each row is scaled alone, bit for bit, and stacked rows broadcast
        spec = PenaltySpec(np.array([0.5, 40.0]), 2, 5)
        M = make_preconditioner(spec)
        assert M.diagonal.shape == (2, 5)
        s = np.linalg.eigvalsh(penalty_kernel(5, 2))
        np.testing.assert_allclose(np.sort(1 / M.diagonal[1] - 1),
                                   np.sort(40.0 * s), atol=1e-10)
        c = rng.standard_normal((3, 2, spec.dim))
        np.testing.assert_array_equal(M.scale(c),
                                      c * M.diagonal.reshape(-1))
        np.testing.assert_array_equal(M.scale(c[1, 0]),
                                      M.scale(c)[1, 0])

    def test_exposed_arrays_are_read_only(self):
        M = make_preconditioner(PenaltySpec(np.array([1.0, 2.0]), 2, 4))
        for a in (M.basis, M.diagonal):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    def test_scale_checks_its_input(self):
        M = make_preconditioner(PenaltySpec(np.array([1.0]), 2, 4))
        with pytest.raises(ConfigurationError):
            M.scale(np.zeros((2, 5)))
        for bad in (np.nan, np.inf):
            c = np.zeros((2, 4))
            c[1, 2] = bad
            with pytest.raises(NumericalError, match="non-finite"):
                M.scale(c)

    def test_eigenvector_weighting(self, rng):
        # directions with small penalty eigenvalue get weight 1/(1+theta)
        spec = PenaltySpec(np.array([1.0]), 2, 8)
        M = make_preconditioner(spec)
        P = assemble_penalty(spec)
        theta, S = np.linalg.eigh(P)
        for i in range(8):
            s = S[:, i]
            got = s @ M.apply(s)
            assert got == pytest.approx(1.0 / (1.0 + theta[i]), abs=1e-8)


EXACT_DIGITS = 60


@functools.lru_cache(maxsize=None)
def exact_block_inverse(n_basis, order, lam):
    """(I + lam K_q)^-1 in 60-digit arithmetic.

    K_q has integer entries and the float ``lam`` is taken exactly, so the
    only rounding is mpmath's, far below double precision even at a
    condition number of 1e12.
    """
    with mpmath.workdps(EXACT_DIGITS):
        kernel = mpmath.matrix(penalty_kernel(n_basis, order).tolist())
        return mpmath.inverse(mpmath.eye(n_basis) + mpmath.mpf(lam) * kernel)


def exact_apply(spec, v):
    """Reference M v: each block solved in 60 digits, rounded once."""
    K = spec.n_basis
    cols = v.reshape(spec.dim, -1)
    out = np.empty(cols.shape)
    with mpmath.workdps(EXACT_DIGITS):
        for j, lam in enumerate(spec.lambdas):
            rows = slice(j * K, (j + 1) * K)
            inverse = exact_block_inverse(K, spec.order, float(lam))
            block = inverse * mpmath.matrix(cols[rows].tolist())
            out[rows] = np.array(block.tolist(), dtype=float)
    return out.reshape(v.shape)


def assert_exact(got, v, spec):
    # 1e-12 of the largest entry: a Cholesky solve misses this at lambda >= 1e6
    expect = exact_apply(spec, v)
    assert got.shape == v.shape
    np.testing.assert_allclose(got, expect, rtol=0.0,
                               atol=1e-12 * np.abs(expect).max())


SPECS = {
    "shared": PenaltySpec.shared(10.0, 5, 20),
    "mixed": PenaltySpec(np.array([0.0, 1e6, 2.5, 0.0, 1e10, 0.3]), 2, 7),
    "single": PenaltySpec(np.array([4.0]), 3, 9),
    "stiff": PenaltySpec(np.array([1e10, 1e-2, 1e6, 1e3]), 3, 40),
}


class TestGroupedSolve:
    """apply matches an exact solve of every block, whatever the layout."""

    @pytest.mark.parametrize("name", SPECS)
    def test_vector(self, name, rng):
        spec = SPECS[name]
        v = rng.standard_normal(spec.dim)
        assert_exact(make_preconditioner(spec).apply(v), v, spec)

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matrix(self, name, order, rng):
        spec = SPECS[name]
        V = np.asarray(rng.standard_normal((spec.dim, 11)), order=order)
        assert_exact(make_preconditioner(spec).apply(V), V, spec)

    def test_transposed_view(self, rng):
        # gram_matrix passes X.T, an F-ordered view of the design
        spec = SPECS["mixed"]
        X = rng.standard_normal((13, spec.dim))
        assert_exact(make_preconditioner(spec).apply(X.T), X.T, spec)

    def test_zero_columns(self):
        M = make_preconditioner(SPECS["mixed"])
        assert M.apply(np.zeros((M.dim, 0))).shape == (M.dim, 0)
        assert M.apply_inverse(np.zeros((M.dim, 0))).shape == (M.dim, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(3, 12), st.integers(1, 2),
           st.lists(st.sampled_from([0.0, 0.01, 1.0, 7.5, 1e4, 1e6, 1e10]),
                    min_size=5, max_size=5),
           st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_random_specs(self, p, K, order, lams, n_cols, seed):
        spec = PenaltySpec(np.array(lams[:p]), order, K)
        M = make_preconditioner(spec)
        rng = np.random.default_rng(seed)
        shape = (spec.dim,) if n_cols == 0 else (spec.dim, n_cols)
        v = rng.standard_normal(shape)
        assert_exact(M.apply(v), v, spec)
        # 16 bounds the absolute row sums of K_q for q <= 2
        scale = (1.0 + 16.0 * spec.lambdas.max()) * np.abs(v).max()
        np.testing.assert_allclose(M.apply_inverse(v),
                                   v + assemble_penalty(spec) @ v,
                                   rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("method", ["apply", "apply_inverse"])
    @pytest.mark.parametrize("name", SPECS)
    def test_input_unchanged(self, method, name, rng):
        spec = SPECS[name]
        M = make_preconditioner(spec)
        for v in (rng.standard_normal(spec.dim),
                  rng.standard_normal((spec.dim, 4)),
                  rng.standard_normal((4, spec.dim)).T):
            before = v.copy()
            getattr(M, method)(v)
            assert np.array_equal(v, before)

    @pytest.mark.parametrize("method", ["apply", "apply_inverse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, method, bad):
        M = make_preconditioner(SPECS["mixed"])
        for v in (np.ones(M.dim), np.ones((M.dim, 3))):
            v[3] = bad
            with pytest.raises(NumericalError, match="non-finite"):
                getattr(M, method)(v)

    @pytest.mark.parametrize("method", ["apply", "apply_inverse"])
    def test_wrong_length_rejected(self, method):
        M = make_preconditioner(SPECS["mixed"])
        with pytest.raises(ConfigurationError):
            getattr(M, method)(np.ones(M.dim + 1))
        with pytest.raises(ConfigurationError):
            getattr(M, method)(np.ones((M.dim - 1, 2)))

    def test_overflowing_block_rejected(self):
        with pytest.raises(NumericalError, match="overflows"):
            make_preconditioner(PenaltySpec.shared(1e308, 2, 6))
