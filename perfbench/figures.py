#!/usr/bin/env python3
"""One-off reference figures for configs too slow to be workloads.

    python3 perfbench/figures.py --config configs/drsinet-l.json --size 640

Times three `drsinet forward` calls (after one warm-up call) and three
bare model forwards through the public API on one seeded frame, with
the benchmark's BLAS thread count, and prints medians and the peak resident
memory of the process as one JSON line.  Run one config per process so the
memory figure is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALLS = 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--size", type=int, required=True)
    args = parser.parse_args(argv)

    import run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from drsinet import cli, network, profiler, tensor

    (HERE / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        tmp = Path(tmp)
        cfg = network.ModelConfig.from_file(ROOT / args.config)
        profiler.save_weights(network.build_model(cfg, seed=0), tmp / "w.drsi")
        x = np.random.default_rng(0).standard_normal((1, 3, args.size, args.size),
                                                     dtype=np.float32)
        x.tofile(tmp / "frame.f32")
        argv = ["forward", "--config", str(ROOT / args.config), "--weights",
                str(tmp / "w.drsi"), "--image", str(tmp / "frame.f32"),
                "--shape", f"1,3,{args.size},{args.size}", "--conf", "0.29",
                "--out", str(tmp / "dets.json")]
        run.invoke(cli.main, argv)
        calls = []
        for _ in range(CALLS):
            t = perf_counter()
            rc, _, err = run.invoke(cli.main, argv)
            calls.append(perf_counter() - t)
            if rc != 0:
                raise SystemExit(f"forward failed: {err}")
        model = profiler.load_weights(network.build_model(cfg, seed=0), tmp / "w.drsi")
        forwards = []
        for _ in range(CALLS):
            t = perf_counter()
            model(tensor.tensor(x))
            forwards.append(perf_counter() - t)
    print(json.dumps({
        "config": args.config, "size": args.size, "calls": CALLS,
        "blas_threads": run.BLAS_THREADS,
        "forward_call_p50_s": statistics.median(calls),
        "model_forward_p50_s": statistics.median(forwards),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


if __name__ == "__main__":
    sys.exit(main())
