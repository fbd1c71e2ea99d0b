import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline, PPoly

from penpls import (BasisExpansion, ConfigurationError, DataError,
                    DegenerateVariableError, SplineBasis, eval_basis_grid,
                    make_basis, splines, transform)
from penpls.splines import _fold_designs, _pp_table, _windows, pp_dot


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


def one_shape_bases(degree, n_basis):
    """Three bases of one degree and size: equally spaced knots on [0, 1],
    knots on [-0.5, 1.5] with a repeated interior knot where there are
    two, and ``make_basis``' quantile knots of squares on [0, 1]."""
    n_interior = n_basis - degree - 1
    return (SplineBasis(degree, clamped_knots(
                degree, np.linspace(0, 1, n_interior + 2)[1:-1])),
            SplineBasis(degree, clamped_knots(
                degree, np.resize([0.5, 0.5, 0.0, 1.0], n_interior),
                -0.5, 1.5)),
            make_basis(np.linspace(0, 1, 9) ** 2, n_basis, degree))


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
    @pytest.mark.parametrize("degree,knots", [
        (3, [0.0, 0.0, 0.0, 0.1, 0.5, 1.0, 1.0, 1.0, 1.0]),  # left end
        (3, [0.0, 0.0, 0.0, 0.0, 0.5, 0.9, 1.0, 1.0, 1.0]),  # right end
        (1, [0.0, 0.5, 1.0, 1.0]),
        (0, [1.0, 1.0])])
    def test_unclamped_knots_refused(self, degree, knots):
        with pytest.raises(ConfigurationError, match="clamped"):
            SplineBasis(degree, knots)

    def test_knots_without_an_interval_refused(self):
        # equal ends: no knot interval is nonempty
        with pytest.raises(ConfigurationError, match="knots\\[0\\] < "):
            SplineBasis(2, [1.0] * 6)

    @pytest.mark.parametrize("degree,knots", [
        (3, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
        (1, [0.0, 1.0, 1.0]),
        (0, [0.0])])
    def test_fewer_than_two_degree_plus_two_knots_refused(self, degree,
                                                          knots):
        with pytest.raises(ConfigurationError, match="too few knots"):
            SplineBasis(degree, knots)

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
                 SplineBasis(2, clamped_knots(2, [0.0, 0.5, 1.0], -1.0,
                                              2.0)),
                 # interior knots on both ends: points at the right end
                 # take the last nonempty interval
                 SplineBasis(3, clamped_knots(3, [0.0, 3.0, 7.0, 7.0], 0.0,
                                              7.0)),
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
        # one expansion each of degrees 0, 2 and 3; points inside, on the
        # knots and beyond both ends
        grid = np.array([[0.0, 0.2, -0.1], [0.3, 0.6, 0.5], [1.0, 0.9, 1.0],
                         [1.2, -0.7, 0.25], [0.6, 1.5, 1.3],
                         [0.25, 0.5, 0.0625]])
        for degree in (0, 2, 3):
            bases = one_shape_bases(degree, 6)
            Z = transform(grid, BasisExpansion(bases))
            assert Z.shape == (6, 3 * 6)
            for j, basis in enumerate(bases):
                expect = [scalar_de_boor(basis, x) for x in grid[:, j]]
                assert np.array_equal(Z[:, 6 * j:6 * (j + 1)], expect)

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


class TestPpDot:
    """``pp_dot`` is ``transform(X) @ coef`` without the dense matrix."""

    # one expansion of three 8-function bases per degree
    expansions = [BasisExpansion(one_shape_bases(degree, 8))
                  for degree in (0, 2, 3, 5)]

    def test_matches_dense_product(self):
        # points inside, on the knots, on both boundaries and beyond both
        # ends
        rng = np.random.default_rng(21)
        for expansion in self.expansions:
            X = np.column_stack([
                np.concatenate([rng.uniform(-1.0, 2.0, 40),
                                np.resize(b.knots, 12), b.domain])
                for b in expansion.bases])
            coef = rng.standard_normal(3 * 8)
            np.testing.assert_allclose(pp_dot(X, expansion, coef),
                                       transform(X, expansion) @ coef,
                                       rtol=0,
                                       atol=1e-12 * np.abs(coef).sum())

    def test_zero_rows(self):
        for expansion in self.expansions:
            out = pp_dot(np.empty((0, 3)), expansion, np.ones(3 * 8))
            assert out.shape == (0,)

    def test_inputs_checked(self):
        for expansion in self.expansions:
            X = np.full((3, 3), 0.5)
            with pytest.raises(ConfigurationError,
                               match="24 basis functions"):
                pp_dot(X, expansion, np.ones(23))
            with pytest.raises(ConfigurationError, match="columns"):
                pp_dot(X[:, :2], expansion, np.ones(24))
            X[1, 2] = np.nan
            with pytest.raises(DataError, match=r"columns \[2\]"):
                pp_dot(X, expansion, np.ones(24))

    def test_one_table_is_each_variables_table(self):
        # the table of all variables, block by block, is each variable's
        # own, bit for bit
        rng = np.random.default_rng(22)
        for expansion in self.expansions:
            coef = rng.standard_normal((3, 8))
            tables = _pp_table(expansion.knots, expansion.degree, coef)
            for basis, c, table in zip(expansion.bases, coef, tables):
                alone = _pp_table(basis.knots[None], basis.degree, c[None])
                np.testing.assert_array_equal(bits(table), bits(alone[0]))


class TestEntryPointTypes:
    """A spline entry point given something that is not a basis or an
    expansion raises ``ConfigurationError`` naming the argument."""

    def test_expansion_of_non_bases(self):
        basis = make_basis(np.linspace(0, 1, 9), 5, 3)
        with pytest.raises(ConfigurationError, match=r"bases\[0\].*str"):
            BasisExpansion(["x"])
        with pytest.raises(ConfigurationError, match=r"bases\[1\].*str"):
            BasisExpansion([basis, "x"])
        with pytest.raises(ConfigurationError, match="bases"):
            BasisExpansion(5)

    def test_non_basis_to_eval_basis_grid(self):
        with pytest.raises(ConfigurationError, match="basis.*str"):
            eval_basis_grid("x", [0.1])

    def test_non_expansion_to_transform(self):
        X = np.full((3, 1), 0.5)
        with pytest.raises(ConfigurationError, match="expansion.*str"):
            transform(X, "x")
        with pytest.raises(ConfigurationError, match="expansion.*str"):
            pp_dot(X, "x", np.ones(5))


class TestExpansionShape:
    """An expansion's bases share one degree and one size."""

    @pytest.mark.parametrize("shapes", [[(3, 6), (2, 6)], [(3, 6), (3, 7)],
                                        [(1, 5), (1, 5), (0, 5)]])
    def test_mixed_degrees_or_sizes_refused(self, shapes):
        bases = [make_basis(np.linspace(0, 1, 9), k, d) for d, k in shapes]
        with pytest.raises(ConfigurationError,
                           match="one degree and one size"):
            BasisExpansion(bases)

    def test_knots_are_one_read_only_matrix(self):
        bases = one_shape_bases(3, 8)
        expansion = BasisExpansion(bases)
        assert (expansion.degree, expansion.n_basis) == (3, 8)
        np.testing.assert_array_equal(expansion.knots,
                                      [b.knots for b in bases])
        with pytest.raises(ValueError):
            expansion.knots[0, 0] = 5.0


class TestKnotVectorsWiderThanTheLargestDouble:
    """A vector whose width ``hi - lo`` overflows is evaluated on halved
    knots and points: the same basis, with no span that overflows."""

    wide = SplineBasis(3, [-1e308] * 4 + [0.0] + [1e308] * 4)
    xs = np.array([-1e308, -5e307, 0.0, 5e307, 1e308, -np.inf, np.inf])

    def halved(self):
        return SplineBasis(3, self.wide.knots / 2)

    def test_basis_rows_sum_to_one(self):
        B = eval_basis_grid(self.wide, self.xs)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(
            bits(B), bits(eval_basis_grid(self.halved(), self.xs / 2)))

    def test_fold_design_is_the_halved_vectors(self):
        # a wide vector beside an ordinary one in one call: each is its
        # own basis matrix, bit for bit
        narrow = make_basis(np.linspace(-1.0, 1.0, 9), 5, 3)
        knots = np.stack([self.wide.knots, narrow.knots])[None]
        X = np.column_stack([self.xs[:5], np.linspace(-1.5, 1.5, 5)])
        Z = _fold_designs(X, knots, 3, np.eye(5))[0]
        np.testing.assert_array_equal(
            bits(Z[:, :5]), bits(eval_basis_grid(self.halved(), X[:, 0] / 2)))
        np.testing.assert_array_equal(
            bits(Z[:, 5:]), bits(eval_basis_grid(narrow, X[:, 1])))

    def test_scores_of_ones_are_one(self):
        X = self.xs[:5, None]
        got = pp_dot(X, BasisExpansion((self.wide,)), np.ones(5))
        np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-15)
        coef = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
        np.testing.assert_array_equal(
            bits(pp_dot(X, BasisExpansion((self.wide,)), coef)),
            bits(pp_dot(X / 2, BasisExpansion((self.halved(),)), coef)))

    def test_ordinary_vectors_are_not_halved(self):
        knots = np.array([[0.0, 1.0], [-1e308, 1e308]])
        X = np.array([[0.5, 0.5]])
        got_knots, got_X = splines._halved(knots, X)
        np.testing.assert_array_equal(got_knots, [[0.0, 1.0],
                                                  [-5e307, 5e307]])
        np.testing.assert_array_equal(got_X, [[0.5, 0.25]])
        ordinary, points = knots[:1], X[:, :1]
        got_knots, got_X = splines._halved(ordinary, points)
        assert got_knots is ordinary and got_X is points

    def test_built_without_a_warning(self):
        # the nondecreasing check compares neighbours; it takes no
        # difference, which overflows here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SplineBasis(3, self.wide.knots)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def knot_vectors(draw, high_degrees=False, degree=None, n_interior=None):
    """A basis of degree 0-3 on a clamped knot vector, plain, with
    repeated interior knots or with a subnormal span; with
    ``high_degrees``, also of degree 4-5 on a plain one.  ``degree`` and
    ``n_interior`` fix the degree and the number of interior knots."""
    if degree is None:
        degree = draw(st.integers(0, 5 if high_degrees else 3))
    kinds = ["clamped"]
    if degree <= 3 and n_interior in (None, 2):
        kinds += ["repeated", "subnormal"]
    elif degree <= 3 and n_interior > 2:
        kinds += ["repeated"]
    kind = draw(st.sampled_from(kinds))
    value = st.floats(-1.0, 2.0, **finite)
    if kind == "clamped":
        sizes = (dict(max_size=8) if n_interior is None else
                 dict(min_size=n_interior, max_size=n_interior))
        knots = clamped_knots(degree, draw(st.lists(value, **sizes)),
                              -1.0, 2.0)
    elif kind == "repeated":
        distinct = (dict(min_size=1, max_size=5) if n_interior is None else
                    dict(min_size=1, max_size=n_interior - 1))
        interior = draw(st.lists(value, **distinct))
        repeats = (dict(min_size=1, max_size=degree + 1) if n_interior is None
                   else dict(min_size=n_interior - len(interior),
                             max_size=n_interior - len(interior)))
        interior += draw(st.lists(st.sampled_from(interior), **repeats))
        knots = clamped_knots(degree, interior, -1.0, 2.0)
    else:
        knots = clamped_knots(degree, [0.0, 5e-324], -1.0, 2.0)
    return SplineBasis(degree, knots)


def points(basis, finite_only=False):
    """Points off the domain, inside it, on the knots, -0.0 and, unless
    ``finite_only``, the infinities; zero of them too."""
    lo, hi = basis.domain
    point = (st.floats(lo - 1.0, hi + 1.0, **finite)
             | st.sampled_from(list(basis.knots) + [-0.0, 0.0]))
    if not finite_only:
        point |= st.sampled_from([-np.inf, np.inf])
    return st.lists(point, max_size=30).map(
        lambda xs: np.array(xs, dtype=float))


def pp_oracle(basis, coef):
    """``_pp_table`` by ``scipy.interpolate.PPoly.from_spline``: the
    spline's pieces on the knot intervals, lowest power first, each scaled
    by h^r.  A coefficient that overflows (a subnormal interval's) reads
    inf or NaN."""
    d, t = basis.degree, basis.knots
    with np.errstate(all="ignore"):
        pieces = PPoly.from_spline((t, coef, d)).c[::-1]
        return pieces * np.diff(t) ** np.arange(d + 1)[:, None]


def check_pp_table(basis, coef, xs):
    """The table agrees with scipy's conversion wherever that is finite,
    and scoring from it at ``xs`` with the dense product; both stay finite
    on a subnormal interval."""
    # below the normal range rounding is absolute, half of 2^-1074 per
    # operation, so subnormal coefficients get a floor of such steps
    atol = 1e-12 * np.abs(coef).sum() + 64 * 2.0**-1074
    table = _pp_table(basis.knots[None], basis.degree, coef[None])[0]
    assert np.isfinite(table).all()
    expect = pp_oracle(basis, coef)
    nonempty = np.diff(basis.knots) > 0
    np.testing.assert_array_equal(table[:, ~nonempty], 0.0)
    usable = nonempty & np.isfinite(expect).all(axis=0)
    np.testing.assert_allclose(table[:, usable], expect[:, usable],
                               rtol=0, atol=atol)
    got = pp_dot(xs[:, None], BasisExpansion((basis,)), coef)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, eval_basis_grid(basis, xs) @ coef,
                               rtol=0, atol=atol)


class TestPpTable:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_table_is_the_pp_form(self, data):
        basis = data.draw(knot_vectors(high_degrees=True))
        coef = np.array(data.draw(st.lists(
            st.floats(-1e3, 1e3, **finite), min_size=basis.n_basis,
            max_size=basis.n_basis)))
        check_pp_table(basis, coef, data.draw(points(basis, finite_only=True)))

    def test_subnormal_coefficient(self):
        # a draw that needs the subnormal floor of the tolerance: on this
        # grid two scores differ from the dense product by 2^-1074, and
        # 1e-12 * sum|coef| underflows to 0
        basis = SplineBasis(2, [-1.0, -1.0, -1.0, 0.0, 2.0, 2.0, 2.0])
        check_pp_table(basis, np.array([0.0, 0.0, 0.0, 2.2e-313]),
                       np.linspace(-1.0, 2.0, 31))


def identity_design(basis, xs):
    """The rotated fold design of one fold with the identity rotation."""
    return _fold_designs(xs[:, None], basis.knots[None, None], basis.degree,
                         np.eye(basis.n_basis))[0]


class TestBasisMatrixIsTheIdentityRotation:
    """The basis matrix written from the spline table is, bit for bit,
    the table times the identity (the rotated-design path)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_eval_basis_grid(self, data):
        basis = data.draw(knot_vectors())
        xs = data.draw(points(basis))
        B = eval_basis_grid(basis, xs)
        assert B.shape == (len(xs), basis.n_basis)
        np.testing.assert_array_equal(bits(B),
                                      bits(identity_design(basis, xs)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_block_of_transform(self, data):
        # up to three bases of the first one's degree and size
        first = data.draw(knot_vectors())
        d, K = first.degree, first.n_basis
        bases = [first] + data.draw(st.lists(
            knot_vectors(degree=d, n_interior=K - d - 1), max_size=2))
        n = data.draw(st.integers(0, 20))
        X = np.column_stack(
            [np.resize(data.draw(points(b, finite_only=True)), n)
             if n else np.empty(0) for b in bases]).reshape(n, len(bases))
        Z = transform(X, BasisExpansion(bases))
        for j, basis in enumerate(bases):
            np.testing.assert_array_equal(
                bits(Z[:, K * j:K * (j + 1)]),
                bits(identity_design(basis, X[:, j])))


def counted_window(knots, x):
    """The window index by its rule: the number of knots at or below x,
    less one, or the last nonempty interval at the right end."""
    if x >= knots[-1]:
        return np.flatnonzero(knots[1:] > knots[:-1])[-1]
    return np.count_nonzero(knots <= x) - 1


class TestWindows:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 12), st.integers(0, 3),
           st.sampled_from([None, 255, 256, 300]), st.booleans(),
           st.integers(1, 50))
    def test_window_index_is_the_counting_rule(self, seed, F, p, n, degree,
                                               n_interior, per_set_points,
                                               slice_len):
        # clamped knots drawn from few values, so many repeat, interior
        # ones on either end too, and every knot among the points; wide
        # vectors count past one byte
        rng = np.random.default_rng(seed)
        n_interior = n_interior or int(rng.integers(0, 10))
        width = 2 * degree + 2 + n_interior
        values = rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 8)))
        knots = np.sort(rng.choice(values, size=(F, p, width)), axis=-1)
        # about half the vectors get a right end above every interior knot
        raised = rng.random((F, p)) < 0.5
        knots[..., -1] = np.where(
            raised, knots[..., -1] + 0.5,
            np.maximum(knots[..., -1], knots[..., 0] + 0.5))
        knots[..., :degree + 1] = knots[..., :1]
        knots[..., -degree - 1:] = knots[..., -1:]
        # points beyond both ends, inside, on every knot of their set and
        # just below its right end, where every interior knot counts
        below_end = np.nextafter(knots[..., -1], -np.inf)  # (F, p)
        X = np.stack([np.concatenate([rng.uniform(-1.5, 1.5, size=(n, p)),
                                      knots[f].T, below_end[f][None]])
                      for f in range(F)])
        if not per_set_points:
            X = X[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splines, "_SLICE", slice_len)
            start, first, clamped = _windows(knots, degree, X)
        rows = X.shape[-2]
        Xs = np.broadcast_to(X, (F, rows, p))
        start = start.reshape(F, rows, p)
        first = first.reshape(F, rows, p)
        clamped = clamped.reshape(F, rows, p)
        for f in range(F):
            for j in range(p):
                t = knots[f, j]
                x = np.clip(Xs[f, :, j], t[0], t[-1])
                np.testing.assert_array_equal(bits(clamped[f, :, j]),
                                              bits(x))
                expect = np.array([counted_window(t, v) for v in x])
                # the window starts at knot mu - degree of the flat knots
                np.testing.assert_array_equal(
                    start[f, :, j] - width * (f * p + j), expect - degree)
                np.testing.assert_array_equal(first[f, :, j], expect)

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_right_end_of_a_subnormal_domain(self, degree):
        # the largest double below the right end is the left end or an
        # interior knot, so the cap counts exactly the knots below the end
        for lo, interior, hi in [(0.0, [], 5e-324),
                                 (0.0, [0.0, 5e-324], 5e-324),
                                 (-5e-324, [0.0], 5e-324),
                                 (0.0, [1e-320, 1e-320], 1.5e-320)]:
            knots = clamped_knots(degree, interior, lo, hi)
            X = np.array([lo, hi, np.nextafter(hi, -np.inf), *interior,
                          2 * hi, -1.0])
            _, first, x = _windows(knots[None, None], degree, X[:, None])
            clipped = np.clip(X, lo, hi)
            np.testing.assert_array_equal(bits(x), bits(clipped))
            np.testing.assert_array_equal(
                first, [counted_window(knots, v) for v in clipped])


class TestBasisRows:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 3),
           st.integers(0, 12), st.integers(0, 3), st.integers(0, 6),
           st.booleans(), st.booleans(), st.integers(1, 50))
    def test_rows_are_each_vectors_basis_matrix(self, seed, F, p, n, degree,
                                                extra, repeated,
                                                per_set_points, slice_len):
        # F sets of p clamped knot vectors of one width, each on its own
        # span: every point's row, in its own vector, is that vector's
        # ``eval_basis_grid`` row, bit for bit
        rng = np.random.default_rng(seed)
        width = 2 * degree + 2 + extra
        u = np.sort(rng.uniform(size=(F, p, width)), axis=-1)
        if repeated:
            u = np.round(u, 1)
        u[..., :degree + 1], u[..., -degree - 1:] = 0.0, 1.0
        lo = rng.uniform(-5.0, 5.0, size=(F, p, 1))
        span = 10.0 ** rng.uniform(-3.0, 3.0, size=(F, p, 1))
        knots = lo + span * u
        # points beyond both ends, inside, and on every knot of each vector
        X = np.concatenate([lo + span * rng.uniform(-0.5, 1.5,
                                                    size=(F, p, n)),
                            knots], axis=-1).transpose(0, 2, 1)
        if not per_set_points:
            X = X.reshape(-1, p)  # every set's points for every set
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splines, "_SLICE", slice_len)
            rows = splines._basis_rows(knots, degree, X)
        n_rows = X.shape[-2]
        rows = rows.reshape(F, n_rows, p, width - degree - 1)
        Xs = np.broadcast_to(X, (F, n_rows, p))
        for f in range(F):
            for j in range(p):
                expect = eval_basis_grid(SplineBasis(degree, knots[f, j]),
                                         Xs[f, :, j])
                np.testing.assert_array_equal(bits(rows[f, :, j]),
                                              bits(expect))
