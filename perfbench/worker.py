"""One benchmark process: set up, run one workload as a closed loop, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
The BLAS thread pools are capped before numpy is first imported, and
cqmlab is imported from the checkout's ``src/`` (never from an
installed copy), so a directory without the sources fails here.

    python3 perfbench/worker.py --workload sphere-nets --seed 1 --seconds 10 --trace 0
    python3 perfbench/worker.py --workload sphere-nets --seed 1 --setup-only
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 2          # the scenario check compares every pass with the first


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def set_up(blas_threads: int):
    """Cap BLAS, import cqmlab from ``src/`` and fill its module caches."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "QGH_THREADS"):
        os.environ[var] = str(blas_threads)
    src = ROOT / "src"
    if not (src / "cqmlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cqmlab sources under {src}")
    sys.path.insert(0, str(src))
    import cqmlab
    from cqmlab import cli, examples  # noqa: F401  (cli imports every module)
    if Path(cqmlab.__file__).resolve().parent != (src / "cqmlab").resolve():
        raise SystemExit(f"perfbench: imported cqmlab from {cqmlab.__file__}, not {src}")
    examples.su2_grid()                  # the shared default SU(2) grid


def environment(blas_threads: int) -> dict:
    import platform
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def closed_loop(workload, seconds: float, tracer=None):
    """Run passes back to back until ``seconds`` have elapsed (at least
    MIN_PASSES).  With a tracer, the first pass is an untraced warm-up
    and the passes after it alternate traced and untraced, so the
    tracing overhead is measured between warm passes.  Returns the
    per-pass records."""
    min_passes = MIN_PASSES if tracer is None else MIN_PASSES + 1
    passes = []
    start = time.monotonic()
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            out, layer, fired = tracer.trace_pass(workload.run_pass)
            elapsed = layer["trace.pass_s"]
        else:
            t0 = time.perf_counter()
            out = workload.run_pass()
            elapsed = time.perf_counter() - t0
            layer = fired = None
        t0 = time.perf_counter()
        rows = workload.check(out)
        quality = {}
        if all(ok for _, ok, _ in rows):
            quality = workload.quality(out)
        passes.append({"pass_s": elapsed, "check_s": time.perf_counter() - t0,
                       "traced": traced, "rows": rows, "quality": quality,
                       "layer": layer, "fired": fired})
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    set_up(args.blas_threads)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        passes = closed_loop(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        getattr(workload, "close", lambda: None)()

    rows = [r for p in passes for r in p["rows"]]
    untraced = [p["pass_s"] for p in passes if not p["traced"]]
    quality = {}
    for key in sorted({k for p in passes for k in p["quality"]}):
        quality[key] = statistics.median(p["quality"][key] for p in passes
                                         if key in p["quality"])
    bounded = {k: v for k, v in quality.items() if k in workload.bounded}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(args.blas_threads),
        "ready": ready,
        "passes": len(passes),
        "pass_times_s": [p["pass_s"] for p in passes],
        "check_times_s": [p["check_s"] for p in passes],
        "pass_s": statistics.median(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(rows),
        "failed": sum(1 for _, ok, _ in rows if not ok),
        "failures": [[name, note] for name, ok, note in rows if not ok][:20],
        "quality": bounded,
        "quality_unbounded": {k: v for k, v in quality.items() if k not in bounded},
    }
    if tracer is not None:
        from tracer import summarize
        traced = [p for p in passes if p["traced"]]
        warm = [p["pass_s"] for p in passes[1:] if not p["traced"]]
        result["layers"] = summarize([p["layer"] for p in traced], warm)
        result["layer_status"] = tracer.status([p["fired"] for p in traced])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
