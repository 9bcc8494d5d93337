"""Check that the traced run's counters repeat exactly.

    python3 perfbench/check_counters.py [--seed 0] [--workload NAME ...]

Counts of work (eigensolved matrices, objective evaluations, L-BFGS
stages, iterations and non-convergences, net points and cap hits, ...)
must not depend on the machine, the run or the BLAS thread count.  For
each workload this runs two traced workers, with the BLAS pools capped
at 1 and at 2 threads, and compares every count metric (units ``count``
and ``B``).  It exits with code 1 if the two runs disagree.  It also
prints, for information, where the counts differ from the seed-commit
counts recorded in ``baseline.json`` (for seed 0); a change that moves
work is expected to move those.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracer import METRICS  # noqa: E402  (the tracer module imports nothing heavy)

COUNT_UNITS = ("count", "B")


def traced_counts(workload: str, seed: int, blas_threads: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--blas-threads", str(blas_threads)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: value for name, value in result["layers"].items()
            if METRICS[name][0] in COUNT_UNITS}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="check that traced counters repeat")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args(argv)
    baseline = json.loads((HERE / "baseline.json").read_text())

    ok = True
    for name in args.workload:
        first = traced_counts(name, args.seed, blas_threads=1)
        second = traced_counts(name, args.seed, blas_threads=2)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        ok = ok and not diff
        print(f"{name}: {len(first)} counters, "
              f"{'identical' if not diff else 'DIFFER ' + json.dumps(diff)} "
              f"across BLAS caps 1 and 2")
        recorded = baseline["workloads"][name].get("counters_seed0", {})
        if args.seed == 0 and recorded:
            moved = {k: (recorded.get(k), v) for k, v in first.items() if recorded.get(k) != v}
            print(f"  vs seed commit: {'unchanged' if not moved else json.dumps(moved)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
