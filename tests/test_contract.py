"""The entry-point contract: every public name that takes an array or a
count returns or raises a ``PenplsError`` subclass, whatever it is given.

One hypothesis test draws, per call, arrays of a wrong shape (0 rows,
0 columns, 1-D, 3-D), a wrong dtype (bool, int, object, complex, strings),
non-finite entries or an extreme scale, and counts that are not positive
integers, around an otherwise valid call of each entry point.

Floating-point overflow is outside the contract: a result beyond the
double range, such as the components X M X' r of a fit on X * 2^500, is
returned as inf, as numpy computes it, so the calls run with numpy's
floating-point warnings off.
"""
import functools
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import penpls
from penpls import (FitConfig, PenaltySpec, PenplsError, Preconditioner,
                    SplineBasis, eval_basis_grid, fit_gam, fitted_function,
                    gram_matrix, kernel_penalized_pls_fit, loocv, make_basis,
                    nipals_fit, pcg_iterates, penalized_pls_fit, predict,
                    transform)

N, P, K = 12, 2, 6
COUNTS = st.sampled_from([0, -1, 2.5, True, np.int64(3), 3, None, "3"])


@st.composite
def arrays(draw, shape):
    """An array meant to have ``shape``: as it is, or with 0 rows,
    0 columns, one axis fewer or one more, a bool, int, object or complex
    dtype or a string entry, a NaN or an infinity, or scaled by 2^-500 or
    2^500."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([shape, (0,) + shape[1:], shape[:1] + (0,),
                                  shape[:-1], shape + (2,)]))
    a = rng.standard_normal(shape)
    a *= draw(st.sampled_from([1.0, 1.0, 2.0**-500, 2.0**500]))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None and a.size:
        a.flat[rng.integers(a.size)] = bad
    kind = draw(st.sampled_from(
        ["float", "float", "bool", "int", "object", "complex", "str"]))
    if kind == "bool":
        return a > 0
    if kind == "int":
        return np.where(np.isfinite(a), a, 0).clip(-1e9, 1e9).astype(int)
    if kind == "complex":
        return a + 1j
    if kind == "object":
        return a.astype(object)
    if kind == "str" and a.size:
        a = a.astype(object)
        a.flat[0] = "x"
    return a


def ascending(a):
    """A numeric array sorted along its last axis, so that knot vectors
    pass the nondecreasing check and meet the later ones."""
    if a.dtype.kind in "biufc" and a.ndim:
        return np.sort(a, axis=-1)
    return a


def symmetric(a):
    """A float matrix times its transpose, so the Gram matrix checks pass."""
    return a @ a.T if a.ndim == 2 and a.dtype.kind == "f" else a


def centered(a):
    """A float array less its column means, so the centering checks pass."""
    if a.dtype.kind != "f" or a.ndim == 0 or not a.size:
        return a
    with np.errstate(all="ignore"):
        return a - a.mean(axis=0)


@functools.lru_cache(maxsize=None)
def fitted_model():
    X, y = np.random.default_rng(0).standard_normal((2, N, P))
    return fit_gam(X, y[:, 0], PenaltySpec.shared(1.0, P, K), 2)


M = Preconditioner(PenaltySpec.shared(1.0, P, K))
# a preconditioner argument: M, or no preconditioner, a string, or one of
# the wrong dimension
PRECONDITIONERS = st.sampled_from(
    [M, M, M, None, "M", Preconditioner(PenaltySpec.shared(1.0, P, K + 1))])

# name -> a call of it with one draw per array or count argument
CALLS = {
    "SplineBasis": lambda d: SplineBasis(d(COUNTS), d(
        arrays((10,)) | arrays((10,)).map(ascending))),
    "PenaltySpec": lambda d: Preconditioner(PenaltySpec(
        d(arrays((P,))), d(COUNTS), d(COUNTS))),
    "Preconditioner": lambda d: getattr(M, d(st.sampled_from(
        ["apply", "apply_inverse", "scale"])))(d(arrays((P * K,)))),
    "eval_basis_grid": lambda d: eval_basis_grid(
        make_basis(np.arange(10.0), K), d(arrays((N,)))),
    "make_basis": lambda d: make_basis(d(arrays((N,))), d(COUNTS),
                                       d(COUNTS)),
    "transform": lambda d: transform(d(arrays((N, P))), penpls.BasisExpansion(
        [make_basis(np.arange(10.0), K)] * P)),
    "nipals_fit": lambda d: nipals_fit(centered(d(arrays((N, P * K)))),
                                       centered(d(arrays((N,)))),
                                       FitConfig(3)),
    "penalized_pls_fit": lambda d: penalized_pls_fit(
        centered(d(arrays((N, P * K)))), centered(d(arrays((N,)))),
        d(PRECONDITIONERS), FitConfig(3)),
    "gram_matrix": lambda d: gram_matrix(d(arrays((N, P * K))),
                                         d(PRECONDITIONERS)),
    "kernel_penalized_pls_fit": lambda d: kernel_penalized_pls_fit(
        symmetric(d(arrays((N, N)))), d(arrays((N,))), d(COUNTS)),
    "pcg_iterates": lambda d: pcg_iterates(
        d(arrays((N, P * K))), d(arrays((N,))), d(PRECONDITIONERS),
        d(COUNTS)),
    "fit_gam": lambda d: fit_gam(d(arrays((N, P))), d(arrays((N,))),
                                 PenaltySpec.shared(1.0, P, K), d(COUNTS)),
    "predict": lambda d: predict(fitted_model(), d(arrays((N, P)))),
    "loocv": lambda d: loocv(d(arrays((N, P))), d(arrays((N,))),
                             lambdas=d(arrays((3,))),
                             max_components=d(COUNTS), n_basis=d(COUNTS),
                             degree=d(COUNTS), diff_order=d(COUNTS)),
    "FitConfig": lambda d: FitConfig(d(COUNTS)),
    "fitted_function": lambda d: fitted_function(fitted_model(), d(COUNTS),
                                                 d(COUNTS)),
}

# public names that take neither an array nor a count: error and result
# types, containers of already checked parts, files and model objects
OTHER = {"BasisExpansion", "CgResult", "CvChoice", "CvGrid", "Dataset",
         "FittedFunction", "GamModel", "KernelFit", "PlsFit",
         "default_lambda_grid", "ingest", "ingest_for_model", "load_model",
         "make_preconditioner", "save_model"}


def test_every_public_callable_is_classified():
    names = {name for name in penpls.__all__
             if callable(getattr(penpls, name))
             and not (inspect.isclass(getattr(penpls, name))
                      and issubclass(getattr(penpls, name), Exception))}
    assert names == set(CALLS) | OTHER


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_entry_points_return_or_raise_package_errors(name, data):
    try:
        with np.errstate(all="ignore"):
            CALLS[name](data.draw)
    except PenplsError:
        pass



# the entry points that take a preconditioner, as calls on (X, y, it)
WITH_PRECONDITIONER = {
    "pcg_iterates": lambda X, y, pre: pcg_iterates(X, y, pre, 3),
    "gram_matrix": lambda X, y, pre: gram_matrix(X, pre),
    "penalized_pls_fit": lambda X, y, pre: penalized_pls_fit(
        X, y, pre, FitConfig(3)),
}


def _centered_xy(d):
    rng = np.random.default_rng(1)
    X, y = rng.standard_normal((N, d)), rng.standard_normal(N)
    return X - X.mean(axis=0), y - y.mean()


@pytest.mark.parametrize("name", sorted(WITH_PRECONDITIONER))
@pytest.mark.parametrize("preconditioner", [None, "M", 3])
def test_a_preconditioner_of_another_type_is_refused(name, preconditioner):
    X, y = _centered_xy(P * K)
    with pytest.raises(penpls.ConfigurationError,
                       match="preconditioner must be a Preconditioner, got "
                             + type(preconditioner).__name__):
        WITH_PRECONDITIONER[name](X, y, preconditioner)


@pytest.mark.parametrize("name", sorted(WITH_PRECONDITIONER))
def test_a_column_mismatch_is_stated_up_front(name):
    X, y = _centered_xy(P * K - 1)
    with pytest.raises(penpls.ConfigurationError,
                       match=f"X has {P * K - 1} columns, preconditioner "
                             f"expects {P * K}"):
        WITH_PRECONDITIONER[name](X, y, M)
