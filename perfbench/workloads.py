"""The benchmark's three workloads: inputs, one operation, and its checks.

Every workload draws its data from ``testkit.gen_additive`` with the seed it
is given.  ``prepare`` builds the inputs (part of set-up), ``reference``
computes what the checks compare against (not part of set-up), ``run`` is one
timed operation and returns its stage timings and outputs, and ``check``
returns a list of problems with those outputs (empty when they are correct).

Library calls go through module attributes (``gam.fit_gam``, not a name bound
at import) so that a tracer installed on those attributes sees them.
"""
from __future__ import annotations

import contextlib
import io
import os
from time import perf_counter

import numpy as np

from penpls import cg, cli, gam, kernel, penalty, pls, selection, splines
from penpls import testkit

TRUTHS = ("sine", "quadratic", "linear", "step")


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _data(seed, n, p, noise=0.3):
    spec = testkit.SyntheticSpec(seed=seed, n=n, p=p, noise=noise,
                                 functions=tuple(TRUTHS[j % len(TRUTHS)]
                                                 for j in range(p)))
    X, y, _ = testkit.gen_additive(spec)
    return X, y


class Tall:
    """Fit on n rows, predict fresh rows, export curves, CLI fit + predict."""

    name = "tall"
    SIZES = {"full": dict(n=2000, n_new=20000, p=5, K=20, lam=10.0, m=5),
             "toy": dict(n=60, n_new=200, p=3, K=8, lam=10.0, m=3)}

    def __init__(self, size, seed, workdir):
        self.cfg = self.SIZES[size]
        self.seed = seed
        self.train_csv = os.path.join(workdir, "train.csv")
        self.model_txt = os.path.join(workdir, "model.txt")
        self.preds_txt = os.path.join(workdir, "preds.txt")

    def prepare(self):
        c = self.cfg
        X, y = _data(self.seed, c["n"] + c["n_new"], c["p"])
        self.X, self.y = X[:c["n"]], y[:c["n"]]
        self.X_new = X[c["n"]:]
        self.spec = penalty.PenaltySpec.shared(c["lam"], c["p"], c["K"])
        testkit.write_csv(self.train_csv, self.X, self.y)

    def reference(self, outputs):
        pass  # every check of this workload is self-contained

    def run(self):
        c = self.cfg
        t0 = perf_counter()
        model = gam.fit_gam(self.X, self.y, self.spec, c["m"])
        t1 = perf_counter()
        y_new = gam.predict(model, self.X_new)
        t2 = perf_counter()
        curves = [gam.fitted_function(model, j) for j in range(c["p"])]
        t3 = perf_counter()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = (
                cli.main(["fit", "--data", self.train_csv, "--response", "y",
                          "--lambda", repr(c["lam"]), "--basis-size",
                          str(c["K"]), "--components", str(c["m"]),
                          "--output", self.model_txt]),
                cli.main(["predict", "--model", self.model_txt,
                          "--data", self.train_csv,
                          "--output", self.preds_txt]))
        t4 = perf_counter()
        stages = {"fit_s": t1 - t0,
                  "predict_rows_per_s": len(self.X_new) / (t2 - t1),
                  "curves_s": t3 - t2, "cli_s": t4 - t3}
        return stages, (model, y_new, curves, codes)

    def check(self, outputs):
        model, y_new, curves, codes = outputs
        problems = []
        if codes != (0, 0):
            problems.append(f"CLI exit codes {codes}")
            return problems
        if not np.all(np.isfinite(y_new)):
            problems.append("non-finite predictions on fresh rows")
        if not all(np.all(np.isfinite(f.values)) for f in curves):
            problems.append("non-finite fitted function")
        library = gam.predict(model, self.X)
        err = rel_err(library, model.fitted)
        if not err <= 1e-10:
            problems.append(f"predict(X_train) vs fitted: rel err {err:.3g}")
        with open(self.preds_txt) as fh:
            from_cli = np.array([float(line) for line in fh])
        if not np.array_equal(from_cli, library):
            problems.append("CLI predictions differ from the library's")
        return problems


class Loocv:
    """Leave-one-out selection over the default lambda grid."""

    name = "loocv"
    SIZES = {"full": dict(n=100, p=3, K=20, max_m=10, lambdas=None),
             "toy": dict(n=15, p=2, K=8, max_m=3,
                         lambdas=(1.0, 100.0, 1e4))}

    def __init__(self, size, seed, workdir):
        self.cfg = self.SIZES[size]
        self.seed = seed

    def prepare(self):
        c = self.cfg
        self.X, self.y = _data(self.seed, c["n"], c["p"])

    def run(self):
        c = self.cfg
        t0 = perf_counter()
        grid, choice = selection.loocv(self.X, self.y, lambdas=c["lambdas"],
                                       max_components=c["max_m"],
                                       n_basis=c["K"])
        t1 = perf_counter()
        return {"cv_s": t1 - t0}, (grid, choice)

    def reference(self, outputs):
        """Recompute the chosen cell by n explicit fit_gam + predict folds."""
        _, choice = outputs
        c = self.cfg
        n = len(self.y)
        spec = penalty.PenaltySpec.shared(choice.lambda_opt, c["p"], c["K"])
        sq = 0.0
        for i in range(n):
            keep = np.arange(n) != i
            fold = gam.fit_gam(self.X[keep], self.y[keep], spec, choice.m_opt)
            sq += float(self.y[i] - gam.predict(fold, self.X[i:i + 1])[0]) ** 2
        self.ref_cell = sq / n
        self.ref_choice = (choice.lambda_opt, choice.m_opt)

    def check(self, outputs):
        grid, choice = outputs
        problems = []
        if (choice.lambda_opt, choice.m_opt) != self.ref_choice:
            problems.append(f"chosen cell moved to "
                            f"({choice.lambda_opt!r}, {choice.m_opt})")
            return problems
        li = int(np.flatnonzero(grid.lambdas == choice.lambda_opt)[0])
        err = rel_err(grid.errors[li, choice.m_opt - 1], self.ref_cell)
        if not err <= 1e-8:
            problems.append(f"chosen cell vs explicit folds: rel err {err:.3g}")
        return problems


class Wide:
    """Primal fit_gam, then the dual (kernel) fit and CG on the same design."""

    name = "wide"
    SIZES = {"full": dict(n=300, p=50, K=40, lam=10.0, m=10),
             "toy": dict(n=20, p=6, K=8, lam=10.0, m=4)}

    def __init__(self, size, seed, workdir):
        self.cfg = self.SIZES[size]
        self.seed = seed

    def prepare(self):
        c = self.cfg
        self.X, self.y = _data(self.seed, c["n"], c["p"])
        self.spec = penalty.PenaltySpec.shared(c["lam"], c["p"], c["K"])
        # the centered expansion fit_gam builds internally
        expansion = splines.BasisExpansion(
            [splines.make_basis(self.X[:, j], c["K"]) for j in range(c["p"])])
        Z = splines.transform(self.X, expansion)
        self.Zc = Z - Z.mean(axis=0)
        self.yc = self.y - float(self.y.mean())

    def reference(self, outputs):
        M = penalty.make_preconditioner(self.spec)
        self.ref_path = pls.penalized_pls_fit(
            self.Zc, self.yc, M, pls.FitConfig(self.cfg["m"])).beta_path

    def run(self):
        m = self.cfg["m"]
        t0 = perf_counter()
        model = gam.fit_gam(self.X, self.y, self.spec, m)
        t1 = perf_counter()
        M = penalty.make_preconditioner(self.spec)
        dual = kernel.kernel_penalized_pls_fit(kernel.gram_matrix(self.Zc, M),
                                               self.yc, m)
        t2 = perf_counter()
        path = cg.pcg_iterates(self.Zc, self.yc, M, m)
        t3 = perf_counter()
        stages = {"fit_s": t1 - t0, "dual_fit_s": t2 - t1, "cg_s": t3 - t2}
        return stages, (model, dual, path)

    def check(self, outputs):
        model, dual, path = outputs
        problems = []
        err = rel_err(model.fitted - model.intercept, dual.fitted)
        if not err <= 1e-8:
            problems.append(f"primal vs dual fitted values: rel err {err:.3g}")
        err = rel_err(model.beta, self.ref_path[:, -1])
        if not err <= 1e-8:
            problems.append(f"fit_gam beta vs PLS path: rel err {err:.3g}")
        if path.iterates.shape != self.ref_path.shape:
            problems.append(f"CG made {path.n_steps} steps, PLS "
                            f"{self.ref_path.shape[1]} components")
            return problems
        err = max(rel_err(path.iterates[:, k], self.ref_path[:, k])
                  for k in range(path.n_steps))
        if not err <= 1e-8:
            problems.append(f"CG iterates vs PLS path: rel err {err:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (Tall, Loocv, Wide)}
