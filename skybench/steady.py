#!/usr/bin/env python3
"""Steadiness check and smoke test for the SkyServer benchmark.

Run from the repository root:

    python3 skybench/steady.py                      # 2 sets of seeds 1-10 per workload
    python3 skybench/steady.py --runs 5 --sets 1 --workload web_browse
    python3 skybench/steady.py --smoke              # every output check, Tiny scale

The steadiness mode runs each workload once per seed (seeds 1 to --runs),
with the command and run length from BENCHMARK.json, and repeats that set
--sets times.  For every end-to-end metric of every set it reports the
median, the quartiles (statistics.quantiles(values, n=4)) and their spread
(Q3 - Q1) / median against the metric's bound; a spread below a third of
the bound is "steady".  The spread of setup_s is shown but not gated: a
cold start's spread is mostly the shared machine's, and setup_s is held
instead by comparing medians.  Every later set's median of every metric,
setup_s included, must lie within the metric's bound of the first set's.
Every run must be correct, and the share of failed operations must be the
same in every run.  The runs are written to skybench/out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace, extra=()):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def smoke(bench):
    ok = True
    for name in [w["name"] for w in bench["workloads"]] + ["release_churn"]:
        for trace in (0, 1):
            result, elapsed = run_once(bench, name, 1, 1, trace, ("--scale", "tiny"))
            share = result["failed"] / result["attempted"]
            good = result["correct"] and result["attempted"] > 0
            ok &= good
            print(f"{name:14} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({share:.2%}) metrics={len(result['metrics'])} {elapsed:.1f}s")
    return ok


def one_set(bench, workload, runs, label):
    """Run seeds 1..runs once each; print and gate each metric's spread."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in range(1, runs + 1):
        result, elapsed = run_once(bench, workload, seed, bench["run_seconds"], 0)
        results.append(result)
        print(f"  {workload} {label} seed {seed}: {elapsed:.1f}s "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratio = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    ok = correct
    print(f"{workload} {label}: correct={correct} failed share(s)={sorted(ratio)} "
          f"from {len(shares)} (failed, attempted) pairs")
    print(f"  {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    medians = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("inf")
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        if name == "setup_s":
            verdict += " (not gated)"
        else:
            ok &= spread <= bound
        print(f"  {name:20} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound:6.2f}  {verdict}")
    return ok, results, medians, ratio


def steadiness(bench, workloads, runs, sets):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    ok = True
    for workload in workloads:
        record[workload] = []
        medians = []
        ratios = set()
        for k in range(sets):
            good, results, med, ratio = one_set(bench, workload, runs, f"set {k + 1}")
            ok &= good
            record[workload].append(results)
            medians.append(med)
            ratios |= ratio
        ok &= len(ratios) == 1
        if sets < 2:
            continue
        print(f"{workload}: medians of each set against set 1 "
              f"(failed share(s) over all sets: {sorted(ratios)})")
        for name, bound in bounds.items():
            first = medians[0][name]
            changes = [(m[name] - first) / first if first else float("inf") for m in medians[1:]]
            agree = all(abs(c) <= bound for c in changes)
            ok &= agree
            shown = " ".join(f"{c:+8.4f}" for c in changes)
            print(f"  {name:20} {first:12.4f} {shown} {bound:6.2f}  {'agree' if agree else 'DISAGREE'}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as f:
        json.dump(record, f, indent=1)
    return ok


def main():
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set, 1 to RUNS (at least 2)")
    parser.add_argument("--sets", type=int, default=2, help="sets of runs per workload, compared by median")
    parser.add_argument("--workload", action="append",
                        help="workload(s) to run (default: those of BENCHMARK.json; release_churn is also accepted)")
    parser.add_argument("--smoke", action="store_true", help="run every output check at Tiny scale")
    args = parser.parse_args()
    if args.smoke:
        ok = smoke(bench)
    else:
        if args.runs < 2:
            parser.error("--runs needs at least 2 runs for quartiles")
        if args.sets < 1:
            parser.error("--sets needs at least 1 set")
        ok = steadiness(bench, args.workload or names, args.runs, args.sets)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
