"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload planted-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``, and scratch files go to ``.bench_out/``. Set-up runs several
times; then whole rounds of the workload run until ``--seconds`` have
passed. The last line printed is one JSON object: whether every check
passed, how many operations were attempted and failed, and the metrics,
end to end with ``--trace 0`` and per layer, from spans around the
program's functions, with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# Set-up runs at least this often and for at least this long; setup_s is
# the median. Timed once, a set-up of a fraction of a second reads mostly
# the machine's momentary speed.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 5.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Figures a workload reports besides the end-to-end metrics, where they apply.
FIGURES = [("preprocess_docs_per_s", "1/s"), ("train_docs_per_s", "1/s"),
           ("eval_docs_per_s", "1/s"), ("npmi", "1"), ("topic_diversity", "1"),
           ("proxy_macro_f1", "1"), ("blocks_covered", "count")]


def pin_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    n = min(int(asked), cores) if asked.isdigit() and int(asked) > 0 else cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(pinned: int) -> dict:
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = pinned
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "cores": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "paretopic", "__init__.py")):
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pinned = pin_blas_threads()
    sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]
    import paretopic
    if not os.path.abspath(paretopic.__file__).startswith(SRC + os.sep):
        print(f"error: paretopic imported from {paretopic.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(pinned)
    print("# env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT)
    workload = workloads.WORKLOADS[args.workload]()
    rounds = []
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
            d = os.path.join(work, f"setup{len(setup_s)}")
            os.makedirs(d)
            t0 = time.perf_counter()
            workload.setup(d, args.seed)
            setup_s.append(time.perf_counter() - t0)
            if len(setup_s) > 1:
                shutil.rmtree(os.path.join(work, f"setup{len(setup_s) - 2}"))
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            r = os.path.join(work, f"round{len(rounds)}")
            os.makedirs(r)
            ops = workloads.Ops(tracer)
            if tracer is not None:
                tracer.round = len(rounds)
            try:
                extra = workload.round(ops, r)
            except workloads.OperationError:
                extra = {}
            rounds.append((ops, extra))
            shutil.rmtree(r)
            for err in ops.errors:
                print(f"# round {len(rounds) - 1}: {err}", file=sys.stderr)
            if ops.errors:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(ops.attempted for ops, _ in rounds)
    failed = sum(ops.failed for ops, _ in rounds)
    if tracer is not None:
        values = tracer.per_layer(len(rounds))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        trace_dir = os.path.join(OUT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))
    else:
        values = {"wall_s": statistics.median(ops.wall_s for ops, _ in rounds),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for i, (ops, extra) in enumerate(rounds):
        print(f"# round {i} " + json.dumps({"wall_s": ops.wall_s, "seconds": ops.seconds,
                                            **extra}, sort_keys=True))
    print(f"# setup_s {json.dumps(setup_s)}")
    for name, unit in FIGURES:
        per_round = [extra[name] for _, extra in rounds if name in extra]
        if per_round:
            print(f"# {name} = {statistics.median(per_round)!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
