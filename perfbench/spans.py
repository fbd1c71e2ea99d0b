"""Span tracing of penpls's public functions, installed from outside the package.

Each traced function is wrapped once.  The wrapper is then bound in place of
the original wherever a ``penpls`` module holds it (``penpls.gam.transform``,
``penpls.selection.penalized_pls_fit``, the package namespace, ...), because
those module attributes are what callers look up at call time.  Methods are
wrapped on their class.  No file of the package changes, and ``uninstall``
puts every original back.

A span is ``(name, parent index, start, end)``; spans stay in memory until
``write_spans``.  The per-point ``splines.eval_basis`` is deliberately not
wrapped: it runs 100k+ times per operation and the wrapper would become the
measurement.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_transform(tracer, args, kwargs, result):
    # one point evaluation per (row, variable)
    tracer.add("splines.transform.evals", result.shape[0] * len(
        _first_arg(args[1:], kwargs, "expansion").bases))


def _count_apply(tracer, args, kwargs, result):
    tracer.add("penalty.apply.vectors",
               1 if result.ndim == 1 else result.shape[1])


def _count_pls(tracer, args, kwargs, result):
    tracer.add("pls.components", result.n_components)
    tracer.add("pls.requested_components", result.requested_components)
    if result.early_stopped and tracer.inside("selection.loocv"):
        tracer.add("selection.early_stopped_fits", 1)


def _count_kernel(tracer, args, kwargs, result):
    tracer.add("kernel.components", result.n_components)


def _count_cg(tracer, args, kwargs, result):
    tracer.add("cg.steps", result.n_steps)


def _count_loocv(tracer, args, kwargs, result):
    tracer.add("selection.folds", len(_first_arg(args, kwargs, "X")))


def _count_ingest(tracer, args, kwargs, result):
    tracer.add("model_io.ingest.rows", result.n)


def _count_save(tracer, args, kwargs, result):
    tracer.add("model_io.model_bytes",
               os.path.getsize(_first_arg(args, kwargs, "path")))


# every counter the hooks above add to
COUNTERS = ("splines.transform.evals", "penalty.apply.vectors",
            "pls.components", "pls.requested_components",
            "selection.early_stopped_fits", "kernel.components", "cg.steps",
            "selection.folds", "model_io.ingest.rows", "model_io.model_bytes")

# (span name, module, attribute path, count hook or None)
TARGETS = (
    ("splines.make_basis", "penpls.splines", "make_basis", None),
    ("splines.eval_basis_grid", "penpls.splines", "eval_basis_grid", None),
    ("splines.transform", "penpls.splines", "transform", _count_transform),
    ("penalty.make_preconditioner", "penpls.penalty", "make_preconditioner",
     None),
    ("penalty.apply", "penpls.penalty", "Preconditioner.apply", _count_apply),
    ("penalty.apply_inverse", "penpls.penalty",
     "Preconditioner.apply_inverse", None),
    ("pls.penalized_pls_fit", "penpls.pls", "penalized_pls_fit", _count_pls),
    ("kernel.gram_matrix", "penpls.kernel", "gram_matrix", None),
    ("kernel.kernel_penalized_pls_fit", "penpls.kernel",
     "kernel_penalized_pls_fit", _count_kernel),
    ("cg.pcg_iterates", "penpls.cg", "pcg_iterates", _count_cg),
    ("gam.fit_gam", "penpls.gam", "fit_gam", None),
    ("gam.predict", "penpls.gam", "predict", None),
    ("gam.fitted_function", "penpls.gam", "fitted_function", None),
    ("selection.loocv", "penpls.selection", "loocv", _count_loocv),
    ("model_io.ingest", "penpls.model_io", "ingest", _count_ingest),
    ("model_io.ingest_for_model", "penpls.model_io", "ingest_for_model",
     None),
    ("model_io.save_model", "penpls.model_io", "save_model", _count_save),
    ("model_io.load_model", "penpls.model_io", "load_model", None),
    ("cli.main", "penpls.cli", "main", None),
)

OP_SPAN = "op"


class Tracer:
    """Records spans and counts while ``on``; a no-op pass-through otherwise."""

    def __init__(self):
        self.on = False
        self.spans = []      # (name, parent index, start, end)
        self._stack = []     # indices of open spans
        self._names = []     # names of open spans, parallel to _stack
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._restore = []   # (holder, attribute, original)

    # -- recording -----------------------------------------------------
    def add(self, counter: str, value: float):
        self.counts[counter] += value

    def inside(self, name: str) -> bool:
        return name in self._names

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._names.append(name)
        return idx, (self._stack[-2] if len(self._stack) > 1 else -1)

    def _close(self, idx, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self._names.pop()
        self.spans[idx] = (name, parent, start, end)

    def wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx, parent = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- one traced operation -------------------------------------------
    def begin_op(self) -> int:
        """Open the root span of one operation and switch recording on."""
        self.on = True
        idx, _ = self._open(OP_SPAN)
        self._op_start = perf_counter()
        return idx

    def end_op(self, idx: int):
        self._close(idx, -1, OP_SPAN, self._op_start)
        self.on = False

    # -- installation ----------------------------------------------------
    def install(self):
        """Rebind every target in every loaded penpls module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "penpls"
                                         or n.startswith("penpls."))]
        for name, module_name, attr, count in TARGETS:
            holder = sys.modules[module_name]
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                holder = getattr(holder, part)
            original = getattr(holder, leaf)
            wrapped = self.wrap(name, original, count)
            if owner_path:  # a method: the class is its only binding
                self._rebind(holder, leaf, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapped)

    def _rebind(self, holder, key, original, wrapped):
        setattr(holder, key, wrapped)
        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- summaries -------------------------------------------------------
    def summarize(self) -> dict:
        """Calls, total and self seconds per span name, over every span."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, parent, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[idx]
        return dict(out)

    def write_spans(self, path):
        """Write every recorded span as CSV: index, name, parent, start, end."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end\n")
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx},{name},{parent},{start!r},{end!r}\n")
