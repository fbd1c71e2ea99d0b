"""penpls benchmark: one closed-loop client running one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tall|loocv|wide --seed N \\
        --seconds S --trace 0|1

One client in one process starts the next operation only when the previous
one has finished (a closed loop).  Set-up imports the package from ``src/``,
generates the seeded inputs (three times, keeping the median), and runs one
untimed warm-up operation.  Then operations run until the next one would end
past ``--seconds``; every operation's outputs are checked.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` wraps the public functions of each package module from outside
(see ``spans.py``), traces every other operation, and reports the per-layer
metrics: per traced operation, the calls, total and self seconds of each
traced function, the work counts, and the tracing overhead (median traced
minus median untraced operation time).  The last line of standard output is
one JSON object; the lines before it, prefixed ``#``, give the environment,
every workload-specific stage figure with its tail percentile and sample
count, and the error rate.  Results and spans are also written under
``.perfbench/out/``.  ``--size toy`` shrinks every workload for the
self-test in ``test_run.py``.
"""
from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402

# Pin BLAS to one thread before numpy is loaded: on a 2-core machine with the
# default two threads, one penalized fit on the wide design ranged from 45 to
# 470 ms; with one thread, from 50 to 52 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tall", "loocv", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    return parser.parse_args(argv)


def tail(values, better):
    """Highest percentile (on the worse side) with >= 10 samples beyond it."""
    import numpy as np
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            side = q if better == "lower" else 100.0 - q
            return f"p{side:g}", float(np.percentile(values, side))
    return None, None


def blas_info():
    """Configuration string and live thread count of each bundled OpenBLAS."""
    import numpy
    import scipy
    libs = []
    for pkg in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                               pkg.__name__ + ".libs", "*openblas*")
        libs += sorted(glob.glob(pattern))
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)  # already loaded: returns the same handle
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("scipy_openblas", ""), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            out.append({"library": os.path.basename(path),
                        "config": config().decode(),
                        "threads": threads()})
            break
    return out


def environment(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_env_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "openblas": blas_info()}


def per_layer(tracer, traced_s, untraced_s):
    """Per traced operation: span calls/seconds/self seconds, counts, overhead."""
    n_traced = len(traced_s)
    out = {}
    for name, entry in tracer.summarize().items():
        for key, value in entry.items():
            out[f"{name}.{key}"] = value / n_traced
    for counter, value in tracer.counts.items():
        out[counter] = value / n_traced
    requested = tracer.counts["pls.requested_components"]
    out["pls.component_yield"] = (tracer.counts["pls.components"] / requested
                                  if requested else 0.0)
    out["trace.op_s"] = statistics.median(traced_s)
    out["trace.overhead_s"] = (statistics.median(traced_s)
                               - statistics.median(untraced_s))
    # the op span's self time is operation time outside every traced call
    out["trace.unattributed_s"] = out.pop("op.self_s")
    del out["op.calls"], out["op.s"]
    return out


def run(args, spec, figure_units):
    sys.path.insert(0, SRC)
    from spans import Tracer
    from workloads import WORKLOADS  # imports penpls, numpy and scipy
    import_s = perf_counter() - T_START

    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.prepare()
            prepare_s.append(perf_counter() - start)
        if args.trace:
            tracer.install()
        start = perf_counter()
        _, warm = workload.run()
        warmup_s = perf_counter() - start
        setup_s = import_s + statistics.median(prepare_s) + warmup_s

        workload.reference(warm)
        problems = [f"warm-up: {p}" for p in workload.check(warm)]

        figures = defaultdict(list)
        traced_s, untraced_s = [], []
        attempted = failed = 0
        deadline = perf_counter() + args.seconds
        last = 0.0
        min_ops = 2 if args.trace else 1  # trace needs a traced and an untraced
        while attempted < min_ops or perf_counter() + last <= deadline:
            traced = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            start = perf_counter()
            root = tracer.begin_op() if traced else None
            try:
                stages, outputs = workload.run()
            except Exception:
                traceback.print_exc()
                outputs = None
            if traced:
                tracer.end_op(root)
            op_s = perf_counter() - start
            last = op_s
            if outputs is None:
                failed += 1
                continue
            (traced_s if traced else untraced_s).append(op_s)
            if not traced:
                figures["op_s"].append(op_s)
                for key, value in stages.items():
                    figures[key].append(value)
            found = workload.check(outputs)
            if found:
                failed += 1
                problems += [f"operation {attempted}: {p}" for p in found]
            last = perf_counter() - start
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    summary = {}
    for key, values in sorted(figures.items()):
        unit, better = figure_units[key]["unit"], figure_units[key]["better"]
        pname, pvalue = tail(values, better)
        summary[key] = {"median": statistics.median(values), "unit": unit,
                        "n": len(values), "tail": pname, "tail_value": pvalue,
                        "values": values}
        print(f"# {key} = {summary[key]['median']!r} {unit} "
              f"(n={len(values)}, tail {pname or 'none'} = {pvalue!r})")
    print(f"# error_rate = {failed / attempted!r} ({failed}/{attempted})")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        measured = per_layer(tracer, traced_s, untraced_s)
        names = spec["per_layer"]
        tracer.write_spans(os.path.join(
            outdir, f"spans-{args.workload}-seed{args.seed}.csv"))
    else:
        measured = {"op_s": summary["op_s"]["median"],
                    "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in names}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, env=env, figures=summary, problems=problems,
                  setup={"import_s": import_s, "prepare_s": prepare_s,
                         "warmup_s": warmup_s},
                  measured=measured)
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "penpls", "__init__.py")):
        print(f"error: no penpls sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        figure_units = json.load(fh)["figures"]
    return run(args, spec, figure_units)


if __name__ == "__main__":
    sys.exit(main())
