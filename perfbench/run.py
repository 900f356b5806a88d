"""Benchmark of the stabeq certificate pipeline.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in fresh child processes
(perfbench/worker.py) with OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1, so its
peak RSS is its own and it keeps to one core.  Untraced (--trace 0), the run
prints the end-to-end metrics named in BENCHMARK.json; traced (--trace 1),
the per-layer ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Without --workload every
workload runs in turn and the last line maps workload names to such objects.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import SPECS

HERE = Path(__file__).resolve().parent

BENCHMARK = HERE.parent / "BENCHMARK.json"

# Set-up runs per untraced run (all but one in their own process, the last in
# the measuring process); setup_s is their median.
SETUP_RUNS = 3

# A child that outlives its run by this much has hung.
CHILD_GRACE_S = 120


def child(workload: str, role: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--role", role,
    ]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=seconds + CHILD_GRACE_S
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{workload}: {role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns the result line's object and notes for people."""
    spec = json.loads(BENCHMARK.read_text())
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    if traced:
        runs = [child(workload, "trace", seed, seconds)]
        metrics = runs[0]["metrics"]
    else:
        runs = [child(workload, "setup", seed, 0) for _ in range(SETUP_RUNS - 1)]
        runs.append(child(workload, "measure", seed, seconds))
        metrics = dict(runs[-1]["metrics"])
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"{workload}: no value for {', '.join(missing)}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    notes = {
        "fail_frac": failed / attempted,
        "digest_drift": sum(r["drifted"] for r in runs),
        "samples": metrics.get("samples"),
        "problems": [p for r in runs for p in r["problems"]],
    }
    return result, notes


def show(workload: str, result: dict, notes: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:38s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:15s} {'fail_frac':38s} {notes['fail_frac']:.6g} frac "
          f"({result['failed']} of {result['attempted']} certificates)")
    if notes["samples"] is not None:
        print(f"{workload:15s} {'samples':38s} {notes['samples']} certificates timed")
    print(f"{workload:15s} {'digest_drift':38s} {notes['digest_drift']} reports differ from golden.json")
    for problem in notes["problems"]:
        print(f"{workload:15s} problem: {problem}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = [args.workload] if args.workload else list(SPECS)
    results = {}
    for name in names:
        results[name], notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        show(name, results[name], notes)
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))


if __name__ == "__main__":
    main()
