"""Benchmark of the selinf library: three seeded closed-loop workloads.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload lp_criterion --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Human-readable lines before it name every metric with its unit.  See
perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lp_criterion", "screen_battery", "cli_mixed")
# the same names as harness.BLAS_VARS, which cannot be imported before numpy
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, selinf; print(time.perf_counter() - t0)"
)


def cap_blas_threads() -> dict[str, int]:
    """Cap BLAS thread pools at the CPUs this process may use; must run
    before numpy is imported.  Returns the values set."""
    ncpu = len(os.sched_getaffinity(0))
    caps = {}
    for var in BLAS_VARS:
        raw = os.environ.get(var, "")
        caps[var] = min(int(raw), ncpu) if raw.isdigit() and int(raw) > 0 else ncpu
        os.environ[var] = str(caps[var])
    return caps


def import_seconds() -> float:
    """Median time to import numpy and selinf in a fresh interpreter, over
    IMPORT_REPEATS child processes run one after the other."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_lines(workload: str, metrics: dict) -> list[str]:
    return [f"{workload:15s} {name:28s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]


def run_all(args) -> int:
    """Each workload in its own child process, one after the other, so that
    set-up time and peak memory are per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "selinf", "__init__.py")):
        print(f"error: no library sources at {os.path.join(ROOT, 'src', 'selinf')}", file=sys.stderr)
        return 2
    caps = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)

    import_s = import_seconds()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import selinf
    import harness
    if not os.path.abspath(selinf.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: selinf imported from {selinf.__file__}, not ./src", file=sys.stderr)
        return 2

    res = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    name = args.workload
    print(f"{name:15s} blas threads: " + ", ".join(f"{k}={v}" for k, v in caps.items()))
    print(f"{name:15s} loop: closed, 1 client; seed {args.seed}; {res['samples']} timed items; "
          f"tail = p{res['tail_percentile']:g} of {res['items']} pool items, "
          f"{res['items_above']} items above it with {res['samples_above']} executions")
    print(f"{name:15s} exact-repeat counts over the first items: {json.dumps(res['counts'])}"
          + ("" if res["repeat_ok"] else f"  MISMATCH {res['repeat_mismatches']}"))
    if res["oracle_rejected"]:
        print(f"{name:15s} oracle rejected pool items {res['oracle_rejected']}")
    if res["error"]:
        print(res["error"], file=sys.stderr)
    if args.trace:
        # end-to-end numbers of a traced run mix traced and untraced items
        metrics = res["per_layer"]
        print("\n".join(metric_lines(name, metrics)))
    else:
        print("\n".join(metric_lines(name, res["end_to_end"])))
        metrics = {k: v for k, v in res["end_to_end"].items() if k != "failed_ratio"}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
