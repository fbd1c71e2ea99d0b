import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline

from penpls import (BasisExpansion, ConfigurationError, DataError,
                    DegenerateVariableError, SplineBasis, eval_basis_grid,
                    make_basis, splines, transform)
from penpls.splines import transform_dot


def scalar_de_boor(basis, x):
    """Reference: the Cox-de Boor recursion for one point, one loop per point.

    Same arithmetic, element for element, as the vectorised evaluator, so
    the two must agree bit for bit.
    """
    t = basis.knots
    lo, hi = t[0], t[-1]
    x = float(np.clip(x, lo, hi))
    left, right = t[:-1], t[1:]
    b = ((left <= x) & (x < right)).astype(float)
    if x >= hi:
        b[:] = 0.0
        b[np.nonzero(right > left)[0][-1]] = 1.0
    with np.errstate(over="ignore"):  # a subnormal knot span
        for k in range(1, basis.degree + 1):
            new = np.zeros(len(b) - 1)
            for j in range(len(new)):
                den1 = t[j + k] - t[j]
                den2 = t[j + k + 1] - t[j + 1]
                w1 = min(max((x - t[j]) / den1, 0.0), 1.0) \
                    if den1 > 0 else 0.0
                w2 = min(max((t[j + k + 1] - x) / den2, 0.0), 1.0) \
                    if den2 > 0 else 0.0
                new[j] = w1 * b[j] + w2 * b[j + 1]
            b = new
    return b


def clamped_knots(degree, interior, lo=0.0, hi=1.0):
    return np.concatenate([np.full(degree + 1, lo), np.sort(interior),
                           np.full(degree + 1, hi)])


def test_package_does_not_load_scipy_interpolate():
    # the package is pure numpy, and scipy is only a test dependency: loading
    # it costs about 0.45 s of import time and 20 MB of resident memory
    code = ("import sys, penpls; print([m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


class TestMakeBasis:
    def test_no_interior_knots(self):
        basis = make_basis(np.linspace(0, 1, 11), n_basis=4, degree=3)
        np.testing.assert_array_equal(basis.knots, [0, 0, 0, 0, 1, 1, 1, 1])
        assert basis.n_basis == 4

    def test_too_few_basis_functions_rejected(self):
        with pytest.raises(ConfigurationError):
            make_basis([0.0, 0.5, 1.0], n_basis=2, degree=3)

    def test_degenerate_variable_rejected(self):
        with pytest.raises(DegenerateVariableError):
            make_basis([1.0, 1.0, 1.0], n_basis=4, degree=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            make_basis([0.0, 0.5, bad, 1.0], n_basis=4, degree=3)

    def test_interior_knots_at_quantiles(self):
        # independent oracle: sorted values, linear interpolation at
        # fractional index q * (len - 1)
        rng = np.random.default_rng(7)
        values = np.sort(rng.uniform(size=100))
        basis = make_basis(values, n_basis=20, degree=3)
        interior = basis.knots[4:-4]
        assert len(interior) == 16
        for i, q in enumerate((np.arange(1, 17)) / 17.0):
            pos = q * (len(values) - 1)
            lo = int(np.floor(pos))
            frac = pos - lo
            expect = values[lo] * (1 - frac) + values[min(lo + 1, 99)] * frac
            assert interior[i] == pytest.approx(expect, abs=1e-12)

    def test_knot_count_matches_basis_size(self):
        basis = make_basis(np.linspace(0, 1, 50), n_basis=12, degree=3)
        assert len(basis.knots) == 12 + 3 + 1


class TestSplineBasis:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_knot_rejected(self, bad):
        knots = [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0]
        for i in (0, 4, 8):
            with pytest.raises(ConfigurationError, match="finite"):
                SplineBasis(3, knots[:i] + [bad] + knots[i + 1:])


class TestEvalBasis:
    def test_degree_zero_indicators(self):
        basis = SplineBasis(0, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(eval_basis_grid(basis, [0.5, 1.5, 2.0]),
                                      [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])

    def test_endpoint_interpolation(self):
        basis = SplineBasis(3, [0, 0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_allclose(eval_basis_grid(basis, [0.0, 1.0]),
                                   [[1, 0, 0, 0], [0, 0, 0, 1]])

    def test_bernstein_at_midpoint(self):
        # with no interior knots the basis reduces to Bernstein polynomials;
        # hand values for degree 3 at t = 0.5
        basis = SplineBasis(3, [0, 0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_allclose(eval_basis_grid(basis, [0.5])[0],
                                   [0.125, 0.375, 0.375, 0.125], atol=1e-15)

    def test_nan_point_rejected(self):
        basis = make_basis(np.linspace(0, 1, 30), n_basis=8, degree=3)
        with pytest.raises(DataError, match="NaN"):
            eval_basis_grid(basis, [0.5, np.nan])

    def test_out_of_domain_clamped(self):
        basis = make_basis(np.linspace(0, 1, 30), n_basis=8, degree=3)
        np.testing.assert_array_equal(eval_basis_grid(basis, [-5.0])[0],
                                      eval_basis_grid(basis, [0.0])[0])
        np.testing.assert_array_equal(eval_basis_grid(basis, [7.0])[0],
                                      eval_basis_grid(basis, [1.0])[0])

    def test_matches_scipy_bspline(self):
        basis = make_basis(np.linspace(0, 1, 60), n_basis=11, degree=3)
        for x in np.linspace(0, 1, 37):
            ours = eval_basis_grid(basis, [x])[0]
            ref = [BSpline.basis_element(basis.knots[k:k + 5],
                                         extrapolate=False)(x)
                   for k in range(basis.n_basis)]
            ref = np.nan_to_num(np.array(ref, dtype=float))
            if x == 1.0:  # scipy's half-open convention misses the endpoint
                ref[-1] = 1.0
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_grid_matches_scipy_design_matrix(self, degree):
        # random clamped knot vectors, some with repeated interior knots;
        # the points include both boundary knots and every interior knot
        rng = np.random.default_rng(100 + degree)
        for _ in range(20):
            interior = rng.uniform(-1.0, 2.0, size=rng.integers(0, 12))
            if interior.size > 1 and rng.uniform() < 0.5:
                interior[1] = interior[0]
            lo, hi = -1.5, 2.5
            knots = clamped_knots(degree, interior, lo, hi)
            xs = np.concatenate([rng.uniform(lo, hi, 200), knots])
            ref = BSpline.design_matrix(xs, knots, degree).toarray()
            ours = eval_basis_grid(SplineBasis(degree, knots), xs)
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)

    def test_grid_bit_identical_to_scalar_recursion(self):
        cases = [SplineBasis(0, [0.0, 1.0, 2.0, 3.0]),
                 SplineBasis(2, np.linspace(-1.0, 2.0, 9)),  # unclamped
                 # unclamped cubic: the windows of points near either end
                 # run past that end of its 4 functions
                 SplineBasis(3, np.arange(8.0)),
                 # a subnormal span: weight ratios on both sides of it
                 # overflow to inf
                 SplineBasis(2, [-1.0, -1.0, -1.0, 0.0, 5e-324,
                                 1.0, 1.0, 1.0]),
                 SplineBasis(3, clamped_knots(3, [0.2, 0.2, 0.5, 0.7, 0.7])),
                 make_basis(np.random.default_rng(8).uniform(size=500), 20)]
        rng = np.random.default_rng(9)
        for basis in cases:
            lo, hi = basis.domain
            xs = np.concatenate([rng.uniform(lo - 1, hi + 1, 300), basis.knots,
                                 [-np.inf, np.inf]])
            expect = np.array([scalar_de_boor(basis, x) for x in xs])
            assert np.array_equal(eval_basis_grid(basis, xs), expect)

    @pytest.mark.parametrize("slice_len", [1, 7, 256])
    def test_slices_change_no_bit(self, monkeypatch, slice_len):
        # the recursion runs over slices of points; any slice length,
        # ragged last slice included, gives the one-pass result
        basis = make_basis(np.random.default_rng(12).uniform(size=300), 12)
        xs = np.random.default_rng(13).uniform(-0.1, 1.1, size=1000)
        whole = eval_basis_grid(basis, xs)
        monkeypatch.setattr(splines, "_SLICE", slice_len)
        sliced = eval_basis_grid(basis, xs)
        np.testing.assert_array_equal(sliced.view(np.int64),
                                      whole.view(np.int64))


@pytest.fixture(scope="module")
def basis():
    rng = np.random.default_rng(11)
    return make_basis(rng.uniform(size=80), n_basis=15, degree=3)


class TestBasisProperties:

    def test_partition_of_unity(self, basis):
        lo, hi = basis.domain
        for x in np.linspace(lo, hi, 101):
            assert abs(eval_basis_grid(basis, [x])[0].sum() - 1.0) <= 1e-12

    def test_nonnegative(self, basis):
        lo, hi = basis.domain
        values = eval_basis_grid(basis, np.linspace(lo, hi, 101))
        assert np.all(values >= -1e-15)

    def test_local_support(self, basis):
        lo, hi = basis.domain
        for x in np.linspace(lo + 1e-9, hi - 1e-9, 57):
            row = eval_basis_grid(basis, [x])[0]
            assert np.count_nonzero(np.abs(row) > 0) <= 4

    def test_continuity_at_interior_knots(self, basis):
        eps = 1e-6
        for t in basis.knots[4:-4]:
            left = eval_basis_grid(basis, [t - eps])[0]
            right = eval_basis_grid(basis, [t + eps])[0]
            assert np.max(np.abs(left - right)) <= 1e-4


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def bases_and_points(draw):
    """A clamped basis of degree 0-3 on random (possibly repeated) interior
    knots, plus points inside, on and outside its domain."""
    degree = draw(st.integers(0, 3))
    knot_value = st.floats(0.0, 1.0, **finite)
    interior = draw(st.lists(knot_value, max_size=10))
    interior += draw(st.lists(st.sampled_from(interior or [0.5]),
                              max_size=degree))
    basis = SplineBasis(degree, clamped_knots(degree, interior))
    xs = draw(st.lists(st.floats(-0.5, 1.5, **finite) | knot_value
                       | st.sampled_from(list(basis.knots)),
                       min_size=1, max_size=40))
    return basis, np.array(xs)


class TestEvaluatorProperties:
    @settings(max_examples=200, deadline=None)
    @given(bases_and_points())
    def test_partition_of_unity(self, case):
        basis, xs = case
        np.testing.assert_allclose(eval_basis_grid(basis, xs).sum(axis=1),
                                   1.0, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(bases_and_points())
    def test_nonnegative(self, case):
        basis, xs = case
        assert np.all(eval_basis_grid(basis, xs) >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(bases_and_points())
    def test_at_most_degree_plus_one_nonzeros(self, case):
        basis, xs = case
        B = eval_basis_grid(basis, xs)
        assert B.shape == (len(xs), basis.n_basis)
        assert np.all(np.count_nonzero(B, axis=1) <= basis.degree + 1)

    @settings(max_examples=200, deadline=None)
    @given(bases_and_points())
    def test_rows_equal_single_point_evaluation(self, case):
        basis, xs = case
        B = eval_basis_grid(basis, xs)
        for x, row in zip(xs, B):
            assert np.array_equal(row, eval_basis_grid(basis, [x])[0])
            assert np.array_equal(row, scalar_de_boor(basis, x))

    @settings(max_examples=200, deadline=None)
    @given(bases_and_points())
    def test_out_of_domain_points_equal_boundary_rows(self, case):
        basis, xs = case
        lo, hi = basis.domain
        B = eval_basis_grid(basis, xs)
        ends = eval_basis_grid(basis, [lo, hi])
        assert np.array_equal(B[xs < lo], np.tile(ends[0], ((xs < lo).sum(), 1)))
        assert np.array_equal(B[xs > hi], np.tile(ends[1], ((xs > hi).sum(), 1)))


class TestTransform:
    def test_zero_rows(self):
        bases = tuple(make_basis(np.linspace(0, 1, 9), 5, 3) for _ in range(3))
        Z = transform(np.empty((0, 3)), BasisExpansion(bases))
        assert Z.shape == (0, 15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        bases = tuple(make_basis(np.linspace(0, 1, 9), 5, 3) for _ in range(2))
        X = np.full((4, 2), 0.5)
        X[2, 1] = bad
        with pytest.raises(DataError, match=r"columns \[1\]"):
            transform(X, BasisExpansion(bases))

    def test_degree_zero_indicator_layout(self):
        basis = SplineBasis(0, [0.0, 1.0, 2.0])
        Z = transform(np.array([[0.5], [1.5]]), BasisExpansion((basis,)))
        np.testing.assert_array_equal(Z, [[1, 0], [0, 1]])

    def test_blockwise_partition_of_unity(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(20, 3))
        bases = tuple(make_basis(X[:, j], 7, 3) for j in range(3))
        Z = transform(X, BasisExpansion(bases))
        for j in range(3):
            np.testing.assert_allclose(Z[:, 7 * j:7 * (j + 1)].sum(axis=1),
                                       1.0, atol=1e-12)

    def test_matches_elementwise_eval(self):
        # degrees 0, 2 and 3, one basis unclamped; points inside, on the
        # knots and beyond both ends
        bases = (SplineBasis(0, [0.0, 0.3, 0.6, 1.0]),
                 SplineBasis(2, np.linspace(-0.5, 1.5, 9)),  # unclamped
                 make_basis(np.linspace(0, 1, 9), 6, 3))
        grid = np.array([[0.0, 0.2, -0.1], [0.3, 0.6, 0.5], [1.0, 0.9, 1.0],
                         [1.2, -0.7, 0.25], [0.6, 1.5, 1.3]])
        Z = transform(grid, BasisExpansion(bases))
        assert Z.shape == (5, 3 + 6 + 6)
        start = 0
        for j, basis in enumerate(bases):
            block = Z[:, start:start + basis.n_basis]
            expect = np.array([scalar_de_boor(basis, x) for x in grid[:, j]])
            assert np.array_equal(block, expect)
            start += basis.n_basis

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(12, 2))
        bases = tuple(make_basis(X[:, j], 6, 3) for j in range(2))
        expansion = BasisExpansion(bases)
        perm = rng.permutation(12)
        np.testing.assert_array_equal(transform(X, expansion)[perm],
                                      transform(X[perm], expansion))

    def test_column_count_mismatch(self):
        basis = make_basis(np.linspace(0, 1, 9), 5, 3)
        with pytest.raises(ConfigurationError):
            transform(np.zeros((4, 2)), BasisExpansion((basis,)))


class TestTransformDot:
    """``transform_dot`` is ``transform(X) @ coef`` without the dense
    matrix."""

    bases = (SplineBasis(0, [0.0, 0.3, 0.6, 1.0]),
             SplineBasis(2, np.linspace(-0.5, 1.5, 9)),  # unclamped
             make_basis(np.linspace(0, 1, 9), 6, 3),
             SplineBasis(5, clamped_knots(5, [0.4, 0.4, 0.7])))

    def test_matches_dense_product(self):
        # bases of different sizes and degrees; points inside, on the
        # knots, on both boundaries and beyond both ends
        rng = np.random.default_rng(21)
        expansion = BasisExpansion(self.bases)
        X = np.column_stack([
            np.concatenate([rng.uniform(-1.0, 2.0, 40), np.resize(b.knots, 12),
                            b.domain]) for b in self.bases])
        coef = rng.standard_normal(sum(b.n_basis for b in self.bases))
        np.testing.assert_allclose(transform_dot(X, expansion, coef),
                                   transform(X, expansion) @ coef,
                                   rtol=0, atol=1e-12 * np.abs(coef).sum())

    def test_zero_rows(self):
        out = transform_dot(np.empty((0, 4)), BasisExpansion(self.bases),
                            np.ones(3 + 6 + 6 + 9))
        assert out.shape == (0,)

    def test_inputs_checked(self):
        expansion = BasisExpansion(self.bases)
        X = np.full((3, 4), 0.5)
        with pytest.raises(ConfigurationError, match="24 basis functions"):
            transform_dot(X, expansion, np.ones(23))
        with pytest.raises(ConfigurationError, match="columns"):
            transform_dot(X[:, :3], expansion, np.ones(24))
        X[1, 2] = np.nan
        with pytest.raises(DataError, match=r"columns \[2\]"):
            transform_dot(X, expansion, np.ones(24))
