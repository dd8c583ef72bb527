"""Benchmark of tameprod: one seeded workload per run.

    python3 bench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Workloads: spectra, invariants, cgc, verify (see README.md).  The run
replays one seeded round of queries, with the program's caches emptied
before each round, until --seconds have passed, in this one process with
one caller in a closed loop.  It then checks every distinct output.  The
last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it holds the run record.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh processes timed from spawn to ready; setup_s is their median
MIN_QUERIES = 100  # per run, so that at least ten lie beyond the 90th percentile


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["spectra", "invariants", "cgc", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import the benchmark's workloads module and, through it, tameprod."""
    if not (SRC / "tameprod" / "__init__.py").is_file():
        raise SystemExit(f"tameprod sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup(workload: str, seed: int):
    """What a run does before its first timed query, made in fresh
    interpreters: each imports the program and makes the inputs, and is
    timed from spawn to its 'ready' line.  Returns those times and the
    round of queries, which this process then replays.  Making the inputs
    here instead would fill the benchmark's own caches and could set this
    process's peak memory before the first query."""
    workloads = import_program()
    times, rounds = [], set()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"setup probe failed with code {code}: {line}{rest}")
        times.append(ready - start)
        rounds.add(rest)
    if len(rounds) != 1:
        raise SystemExit("the same seed gave different inputs")
    queries = [workloads.Query(*q) for q in ast.literal_eval(rounds.pop())]
    return times, workloads.Program(), queries


def setup_probe(workload: str, seed: int):
    workloads = import_program()
    workloads.Program()
    queries = workloads.make(workload, seed)
    print("ready", flush=True)
    print(repr([dataclasses.astuple(q) for q in queries]))


def max_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha():
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


class Outputs:
    """Each query's distinct outputs, with the number of rounds that gave each."""

    def __init__(self, program, queries):
        self.program = program
        self.queries = queries
        self.seen = [dict() for _ in queries]  # fingerprint -> [record, rounds]

    def add(self, i, output):
        q = self.queries[i]
        if isinstance(output, BaseException):
            key, rec = ("raised", repr(output)), None
        else:
            key = self.program.fingerprint(q, output)
        slot = self.seen[i].get(key)
        if slot is None:
            if not isinstance(output, BaseException):
                rec = self.program.record(q, output)
            self.seen[i][key] = slot = [rec, 0, key]
        slot[1] += 1

    def check(self, log):
        """(failed operations, wrong outputs): an operation fails when it
        raised, exited non-zero or gave an output its checker rejects."""
        failed = wrong = 0
        expanded = {}
        for q, seen in zip(self.queries, self.seen):
            if q.kind == "expand":
                for rec, _, _ in seen.values():
                    if rec is not None:
                        expanded.setdefault((q.factors, q.target, q.k), rec[1])
        for q, seen in zip(self.queries, self.seen):
            for rec, rounds, key in seen.values():
                if rec is None:
                    err, errored = f"raised {key[1]}", True
                else:
                    errored = q.kind not in ("oracle", "expand", "act") and rec[0] != 0
                    try:
                        err = self.program.check(q, rec, expanded)
                    except Exception as e:  # output too malformed to check
                        err = f"checker raised {e!r}"
                if err:
                    failed += rounds
                    wrong += 0 if errored else rounds
                    log(f"FAILED {q.kind} {q.expression()} k={q.k}: {err}")
        return failed, wrong


def run_rounds(program, queries, seconds, tracer):
    """Replay the round until `seconds` have passed.  With a tracer, rounds
    go untraced, traced, traced, untraced, repeating, so that both kinds see
    the same share of early and late rounds."""
    caches = program.caches()
    outputs = Outputs(program, queries)
    plain = {"walls": [], "latencies": []}
    traced = {"walls": [], "summaries": [], "compound": []}
    start = time.perf_counter()
    n = 0
    while True:
        for c in caches:
            c.cache_clear()
        tracing = tracer is not None and n % 4 in (1, 2)
        if tracing:
            tracer.install()
        state: dict = {}
        lat = []
        try:
            for i, q in enumerate(queries):
                t0 = time.perf_counter()
                try:
                    out = program.call(q, state)
                except Exception as e:  # a failed operation; the run goes on
                    out = e
                lat.append(time.perf_counter() - t0)
                outputs.add(i, out)
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced["walls"].append(sum(lat))
            traced["summaries"].append(tracer.take())
            info = program.weyl.compound_multiplier.cache_info()
            traced["compound"].append((info.hits, info.misses))
        else:
            plain["walls"].append(sum(lat))
            plain["latencies"].extend(lat)
        n += 1
        done = time.perf_counter() - start >= seconds and n * len(queries) >= MIN_QUERIES
        # With a tracer, stop only when traced and untraced rounds are even.
        if done and (tracer is None or n % 2 == 0):
            return n, outputs, plain, traced


def layer_metrics(traced, plain):
    """Per-layer metrics, each the mean over the traced rounds."""
    import spans

    rounds = len(traced["summaries"])
    fn_total: dict = {}
    layer_self: dict = {layer: 0.0 for layer in spans.LAYERS}
    counts: dict = {}
    for s in traced["summaries"]:
        for key, (calls, total, own) in s["functions"].items():
            row = fn_total.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for layer, own in s["layers"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        for name, v in s["counts"].items():
            counts[name] = counts.get(name, 0) + v

    def total(layer, names, col=1):
        return sum(v[col] for (l, n), v in fn_total.items() if l == layer and n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    hits = sum(h for h, _ in traced["compound"])
    misses = sum(m for _, m in traced["compound"])
    m = {f"{layer}.self_s": (own / rounds, "s") for layer, own in layer_self.items() if layer != "trace"}
    m.update({
        "weyl_calculus.decompose_calls": (total("weyl_calculus", {"tensor_decompose"}, 0) / rounds, "count"),
        "weyl_calculus.compound_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "weyl_calculus.spectrum_terms": (counts.get("spectrum_terms", 0) / rounds, "count"),
        "invariants.diophantine_s": (total("invariants", {"diophantine_solutions"}) / rounds, "s"),
        "invariants.constraints_s": (total("invariants", {"unipotent_constraints"}) / rounds, "s"),
        "invariants.exponent_matrices": (counts.get("exponent_matrices", 0) / rounds, "count"),
        "invariants.constraint_rows": (counts.get("constraint_rows", 0) / rounds, "count"),
        "invariants.distinct_row_ratio": (
            ratio(counts.get("distinct_rows", 0), counts.get("constraint_rows", 0)), "ratio"),
        "invariants.expand_s": (total("invariants", {"InvariantBasis.element"}) / rounds, "s"),
        "linalg.nullspace_s": (total("linalg", {"nullspace_primitive"}) / rounds, "s"),
        "linalg.rank_ratio": (ratio(counts.get("rank", 0), counts.get("nonzero_rows", 0)), "ratio"),
        "polynomials.mul_s": (total("polynomials", spans.MUL) / rounds, "s"),
        "polynomials.mul_calls": (total("polynomials", spans.MUL, 0) / rounds, "count"),
        "polynomials.act_s": (total("polynomials", spans.ACT) / rounds, "s"),
        "fock_pairing.pair_s": (total("fock_pairing", {"pair"}) / rounds, "s"),
        "fock_pairing.pair_calls": (total("fock_pairing", {"pair"}, 0) / rounds, "count"),
        "fock_pairing.nonzero_ratio": (
            ratio(counts.get("pair_nonzero", 0), total("fock_pairing", {"pair"}, 0)), "ratio"),
        "trace.wall_s": (statistics.median(traced["walls"]), "s"),
        "trace.overhead_s": (
            statistics.median(traced["walls"]) - statistics.median(plain["walls"]), "s"),
    })
    return m


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    setup_times, program, queries = setup(args.workload, args.seed)
    setup_rss_mib = max_rss_mib()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    rounds, outputs, plain, traced = run_rounds(program, queries, args.seconds, tracer)
    peak_rss_mib = max_rss_mib()
    failed, wrong = outputs.check(lambda msg: print(msg, file=sys.stderr))
    attempted = rounds * len(queries)

    if args.trace:
        metrics = layer_metrics(traced, plain)
    else:
        lat = plain["latencies"]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(plain["walls"]), "s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "queries_per_round": len(queries),
        "attempted": attempted,
        "failed": failed,
        "setup_samples_s": setup_times,
        "rss_before_rounds_mib": setup_rss_mib,
        "peak_rss_mib": peak_rss_mib,
        "round_walls_s": plain["walls"],
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
