"""Command-line front end: fit, cv, predict, curves.

Exit codes: 0 success, 1 data or runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import model_io
from .errors import DataError, PenplsError
from .gam import fit_gam, fitted_function, predict
from .penalty import DEFAULT_DIFF_ORDER, PenaltySpec
from .selection import loocv
from .splines import DEFAULT_DEGREE, DEFAULT_N_BASIS


def _positive_int(value):
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive integer")
    return n


def _nonneg_float(value):
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not math.isfinite(x) or x < 0:
        raise argparse.ArgumentTypeError(f"{x} is not a finite nonnegative number")
    return x


def _lambda_list(value):
    grid = [_nonneg_float(v) for v in value.split(",") if v.strip()]
    if not grid:
        raise argparse.ArgumentTypeError("lambda grid is empty")
    return grid


def _add_data_args(sub):
    sub.add_argument("--data", required=True, help="comma-delimited input file")
    sub.add_argument("--response", required=True, help="name of the response column")


def _add_basis_args(sub):
    sub.add_argument("--basis-size", type=_positive_int, default=DEFAULT_N_BASIS,
                     help="B-spline basis functions per variable (default %(default)s)")
    sub.add_argument("--degree", type=_positive_int, default=DEFAULT_DEGREE,
                     help="spline degree (default %(default)s)")
    sub.add_argument("--diff-order", type=_positive_int, default=DEFAULT_DIFF_ORDER,
                     help="difference order of the penalty (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penpls",
        description="Additive regression with B-splines and penalized "
                    "partial least squares.")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit a model and write a model file")
    _add_data_args(fit)
    _add_basis_args(fit)
    fit.add_argument("--lambda", dest="lam", type=_nonneg_float, default=1.0,
                     help="shared penalty weight (default %(default)s)")
    fit.add_argument("--components", type=_positive_int, default=5,
                     help="number of PLS components (default %(default)s)")
    fit.add_argument("--output", required=True, help="model file to write")

    cv = subs.add_parser("cv", help="leave-one-out cross-validation grid")
    _add_data_args(cv)
    _add_basis_args(cv)
    cv.add_argument("--lambda-grid", type=_lambda_list, default=None,
                    help="comma list of lambda candidates "
                         "(default: 20 log-spaced points in 1e-2..1e6)")
    cv.add_argument("--max-components", type=_positive_int, default=10,
                    help="largest component count to score (default %(default)s)")

    pred = subs.add_parser("predict", help="score new data with a model file")
    pred.add_argument("--model", required=True, help="model file")
    pred.add_argument("--data", required=True, help="comma-delimited input file")
    pred.add_argument("--output", default=None,
                      help="write predictions here instead of stdout")

    curves = subs.add_parser("curves", help="export per-variable fitted functions")
    curves.add_argument("--model", required=True, help="model file")
    curves.add_argument("--output-dir", required=True,
                        help="directory for the per-variable tables")
    curves.add_argument("--grid-size", type=_positive_int, default=200,
                        help="grid points per variable (default %(default)s)")
    return parser


def _rmse(residuals) -> float:
    """Root mean square of the residuals, summed in units of 2^e with e the
    binary exponent of the largest one, so no square overflows or
    underflows to zero."""
    exponent = int(np.frexp(np.max(np.abs(residuals)))[1])
    scaled = np.ldexp(residuals, -exponent)
    return float(np.ldexp(np.sqrt(np.mean(scaled * scaled)), exponent))


def _cmd_fit(args) -> int:
    data = model_io.ingest(args.data, args.response)
    penalty = PenaltySpec.shared(args.lam, data.p, args.basis_size,
                                 args.diff_order)
    model = fit_gam(data.X, data.y, penalty, args.components,
                    degree=args.degree)
    model_io.save_model(args.output, model, data.predictor_names,
                        data.response_name,
                        dataset_checksum=model_io.file_sha256(args.data))
    print(f"training_rmse = {_rmse(data.y - model.fitted)!r}")
    print(f"components = {model.n_components}")
    if model.early_stopped:
        print(f"warning = early stop before {model.requested_components} "
              f"components")
    return 0


def _cmd_cv(args) -> int:
    data = model_io.ingest(args.data, args.response)
    grid, choice = loocv(data.X, data.y, lambdas=args.lambda_grid,
                         max_components=args.max_components,
                         n_basis=args.basis_size, degree=args.degree,
                         diff_order=args.diff_order)
    header = ["lambda"] + [str(m) for m in range(1, grid.max_components + 1)]
    print(",".join(header))
    for lam, row in zip(grid.lambdas, grid.errors):
        print(",".join([repr(float(lam))] + [repr(float(e)) for e in row]))
    print(f"chosen: lambda={choice.lambda_opt!r}, m={choice.m_opt}, "
          f"loo={choice.loo_error!r}")
    if grid.early_stops.any():
        per_lambda = ", ".join(
            f"lambda={float(lam)!r}: {int(k)}"
            for lam, k in zip(grid.lambdas, grid.early_stops) if k)
        print(f"warning = early stop before {grid.max_components} components "
              f"in {int(grid.early_stops.sum())} fold fits ({per_lambda})")
    return 0


def _cmd_predict(args) -> int:
    model, predictors, response = model_io.load_model(args.model)
    X, y = model_io.ingest_for_model(args.data, predictors, response)
    preds = predict(model, X)
    out = sys.stdout if args.output is None else open(args.output, "w")
    try:
        out.write("".join(f"{v:.17g}\n" for v in preds.tolist()))
    finally:
        if out is not sys.stdout:
            out.close()
    if y is not None:
        print(f"rmse = {_rmse(y - preds)!r}", file=sys.stderr)
    return 0


def _cmd_curves(args) -> int:
    model, predictors, _ = model_io.load_model(args.model)
    # a name is written as part of a file name inside --output-dir
    bad = [n for n in predictors
           if any(c and c in n for c in (os.sep, os.altsep, "\0"))]
    if bad:
        raise DataError(
            f"predictor names {bad} cannot name a curve file (no name may "
            f"contain a path separator or a NUL character)")
    os.makedirs(args.output_dir, exist_ok=True)
    for j, name in enumerate(predictors):
        fn = fitted_function(model, j, args.grid_size)
        path = os.path.join(args.output_dir, f"curve_{name}.csv")
        with open(path, "w") as fh:
            fh.write("x,f\n")
            for x, v in zip(fn.grid.tolist(), fn.values.tolist()):
                fh.write(f"{x!r},{v!r}\n")
        print(path)
    return 0


_DISPATCH = {"fit": _cmd_fit, "cv": _cmd_cv, "predict": _cmd_predict,
             "curves": _cmd_curves}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (PenplsError, OSError, MemoryError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
