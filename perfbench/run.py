"""cqmlab benchmark entry point.

    python3 perfbench/run.py --workload sphere-solve --seed 1 --seconds 10 --trace 0

Runs one workload as a closed loop with one client (``worker.py``: the
next pass starts only when the previous one has completed) and prints
the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it is a JSON detail record: the environment stamp
(seed, git SHA, Python/numpy/scipy versions, BLAS thread cap, nproc),
pass times, failures, and the metrics that do not apply (``n/a``) or
whose hook target no longer exists (``absent``).

``setup_s`` is the time from starting an interpreter to the start of
its first timed pass (imports, module caches, input generation), taken
as the median over the worker and SETUP_PROBES set-up-only processes.
This process imports no numpy; it only starts workers and waits for
them.  It exits with code 1, printing no result, when a worker fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170
NOT_APPLICABLE = 1.0     # value of an end-to-end metric a workload does not produce


def git_sha() -> str:
    """HEAD's commit, read from the checkout's own .git; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(args: list, timeout: float) -> tuple[dict, float]:
    """Run worker.py; return (its last-line JSON, monotonic start time)."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="cqmlab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, started = start_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)
            setups.append(probe["ready"] - started)
        result, started = start_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            WORKER_TIMEOUT_S)
        setups.append(result["ready"] - started)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    status = {}
    if args.trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        status = result["layer_status"]
    else:
        measured = dict(result["quality"],
                        setup_s=statistics.median(setups),
                        pass_s=result["pass_s"],
                        peak_rss_mb=result["peak_rss_mb"],
                        ok_ratio=(attempted - failed) / attempted)
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in measured:
                status[m["name"]] = "n/a"
            metrics[m["name"]] = {"value": measured.get(m["name"], NOT_APPLICABLE),
                                  "unit": m["unit"]}

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "environment": result["environment"],
        "loop": "closed, 1 client", "passes": result["passes"],
        "pass_times_s": result["pass_times_s"], "check_times_s": result["check_times_s"],
        "setup_samples_s": setups, "failures": result["failures"], "status": status,
        "seed_noisy": result["quality_unbounded"],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
