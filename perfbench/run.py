#!/usr/bin/env python3
"""Benchmark of `drsinet forward` and `drsinet eval` through the CLI.

    python3 perfbench/run.py --workload fwd-s640 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each operation is one in-process ``drsinet.cli.main([...])`` call
whose exit code is checked.  The loop is closed (one client, one process),
runs whole rounds over the workload's inputs until its calls have taken
``--seconds``, and follows one untimed warm-up call of each command.  Every
output is checked against the references in ``refcheck.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times an
untraced half and a traced half of the same loop and prints the per-layer
metrics of ``spans.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1       # fixed, and no larger than any machine's CPU count
IMPORT_REPEATS = 5     # fresh interpreters that time the package import
TIME_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import drsinet.cli; "
               "print(time.perf_counter() - t)")


def invoke(main, argv):
    """Run ``main(argv)`` with captured output; returns (rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:      # an operation that raises is a failed call
            rc = "exception"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def import_seconds(src):
    """Median import time of ``drsinet.cli`` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", TIME_IMPORT, str(src)],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def timed_phase(main, ops, seconds, first_call, tracer=None):
    """Whole rounds over ``ops`` until ``seconds`` of calls have passed.

    The cyclic garbage collector runs after every call, outside the timed
    wall, so each call starts with only its own objects to collect and the
    peak RSS holds one call's live memory, as in a one-call CLI process.
    """
    gc.collect()
    calls, n, wall = [], first_call, 0.0
    while True:
        for op in ops:
            argv, out = op.command(n)
            t = perf_counter()
            if tracer is None:
                rc, text, err = invoke(main, argv)
            else:
                rc, text, err = tracer.run(n, invoke, main, argv)
            s = perf_counter() - t
            wall += s
            calls.append({"n": n, "op": op, "s": s, "rc": rc,
                          "stdout": text, "stderr": err, "out": out,
                          "traced": tracer is not None})
            n += 1
            gc.collect()
        if wall >= seconds:
            return calls, wall


def environment():
    """CPU, interpreter, library and BLAS facts, and the source commit."""
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError:
            pass
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "commit": commit}


def blas_threads():
    """OpenBLAS's own thread count when it can be asked, else the setting."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def per_op_mean(calls):
    by_op = {}
    for c in calls:
        by_op.setdefault(c["op"].key, []).append(c["s"])
    return {k: statistics.fmean(v) for k, v in by_op.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "drsinet" / "cli.py").is_file():
        print(f"error: no drsinet sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("DRSI_SEED", None)
    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    import drsinet.cli
    if Path(drsinet.cli.__file__).resolve().parent != src / "drsinet":
        print(f"error: imported drsinet from {drsinet.cli.__file__}", file=sys.stderr)
        return 2

    import numpy as np
    import refcheck
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    env["blas_threads_set"] = BLAS_THREADS
    (work / "env.json").write_text(json.dumps(env, indent=1))
    print("env: " + json.dumps(env))

    spec = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed, sorted(workloads.WORKLOADS).index(args.workload)])
    inputs = work / "inputs"
    inputs.mkdir()
    benches = workloads.make_benches(spec, rng, inputs)
    ops = [op for bench in benches for op in bench.ops]
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        setup_times = [t for bench in benches for t in bench.setup(tracer)]
        if tracer is not None:
            tracer.uninstall()
        for bench in benches:
            bench.prepare_reference()
        gc.collect()
        main_fn = drsinet.cli.main
        for bench in benches:      # one untimed call of each part
            rc, _, err = invoke(main_fn, bench.ops[0].command("warmup")[0])
            if rc != 0:
                print(f"warm-up call exit {rc}: {err.strip()}", file=sys.stderr)
            gc.collect()

        untimed = args.seconds / 2 if args.trace else args.seconds
        calls, wall = timed_phase(main_fn, ops, untimed, 0)
        traced = []
        if tracer is not None:
            tracer.install()
            traced, _ = timed_phase(main_fn, ops, args.seconds / 2, len(calls), tracer)
            tracer.uninstall()

        failed, correct = 0, True
        for call in calls + traced:
            if call["rc"] != 0:
                failed += 1
                print(f"call {call['n']} ({call['op'].key}) exit {call['rc']}: "
                      f"{call['stderr'].strip()}", file=sys.stderr)
                continue
            try:
                call["op"].bench.check(call)
            except refcheck.CheckError as exc:
                correct = False
                print(f"call {call['n']} ({call['op'].key}) wrong: {exc}", file=sys.stderr)

        ok = [c for c in calls if c["rc"] == 0]
        if tracer is None:
            # The mean, not the median: on a shared host call times switch
            # between speed states up to 1.8x apart, and a median of a few
            # dozen calls jumps between them where the mean moves smoothly.
            metrics = {
                "latency_mean_s": {"value": statistics.fmean(c["s"] for c in ok)
                                   if ok else wall, "unit": "s"},
                "throughput_ops_per_s": {"value": len(ok) / wall, "unit": "1/s"},
                "setup_s": {"value": import_s + (statistics.median(setup_times)
                                                 if setup_times else 0.0), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
        else:
            base, over = per_op_mean(calls), per_op_mean(traced)
            overhead = sum(over.values()) / sum(base[k] for k in over) - 1.0
            metrics = spans.layer_metrics(
                tracer, [c["n"] for c in traced],
                [f"setup-{r}" for r in range(len(setup_times))], overhead)
            trace_path = work / f"trace-seed{args.seed}.jsonl"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "env": env})
            print(f"trace: {trace_path.relative_to(ROOT)}")
            if tracer.absent:
                print("absent: " + " ".join(tracer.absent))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(inputs, ignore_errors=True)

    result = {"correct": correct, "attempted": len(calls) + len(traced),
              "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(dict(result, calls=[
        {"n": c["n"], "op": c["op"].key, "s": c["s"], "rc": c["rc"], "traced": c["traced"]}
        for c in calls + traced]), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
