#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics as one JSON file.

Runs bench/run.py in a fresh subprocess N times per workload of
BENCHMARK.json (seeds 1..N, each run as long as its run_seconds) and
writes the git sha (and whether tracked files differ from it), the Python
version, os.cpu_count() and, per workload, the median and quartiles of
every end-to-end metric with the values of each run.  With --baseline,
every run is paired with a run of the same workload and seed in another
checkout (for example the parent commit), the order inside each pair
alternating, and the file records both sides and how many pairs this
checkout won on each metric.  After the end-to-end runs, one --trace 1 run
per workload and side (seed 1) gives the per-layer metrics, recorded under
"layers" beside that workload's summary.

    python3 scripts/record_bench.py --runs 10 --out BENCH.json
    python3 scripts/record_bench.py --baseline ../parent --out pair.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(root: Path, *argv):
    """Output of a git command in root, or None outside a repository."""
    try:
        out = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One bench/run.py run in a fresh interpreter; its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results: list) -> dict:
    """Median, quartiles and values of each metric over a side's runs."""
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "values": values,
        }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload (default 10)")
    ap.add_argument("--baseline", type=Path, help="another checkout to pair every run with")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    sides = {"change": ROOT}
    if args.baseline:
        sides["baseline"] = args.baseline.resolve()
    results = {side: {w: [] for w in workloads} for side in sides}
    for i, seed in enumerate(seeds):
        for w in workloads:
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                out = run_once(sides[side], w, seed, seconds)
                results[side][w].append(out)
                print(f"{side} {w} seed {seed}: wall_s "
                      f"{out['metrics']['wall_s']['value']:.3f}", file=sys.stderr)

    record = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": args.runs,
        "seconds": seconds,
        "seeds": seeds,
    }
    for side, root in sides.items():
        status = git(root, "status", "--porcelain", "--untracked-files=no")
        record[side] = {
            "git_sha": git(root, "rev-parse", "HEAD"),
            "tracked_files_modified": None if status is None else bool(status),
            "workloads": {w: summary(rs) for w, rs in results[side].items()},
        }
    for w in workloads:
        for side, root in sides.items():
            traced = run_once(root, w, seeds[0], seconds, trace=1)
            record[side]["workloads"][w]["layers"] = traced["metrics"]
    if args.baseline:
        # pairs the change wins, by metric, where lower is better
        lower = {m["name"] for m in spec["end_to_end"] if m["better"] == "lower"}
        record["pairs_won"] = {
            w: {
                name: sum(
                    c["metrics"][name]["value"] < b["metrics"][name]["value"]
                    for c, b in zip(results["change"][w], results["baseline"][w])
                )
                for name in results["change"][w][0]["metrics"] if name in lower
            }
            for w in workloads
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
