#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarises each metric's spread.

Examples (from the repository root):

    # ten seeds per workload, end-to-end metrics; save the raw results
    python3 perfbench/repeat.py --runs 10 --save set1.json

    # the noisiest workload only, five seeds
    python3 perfbench/repeat.py --workloads mc-heavy --runs 5

    # compare two saved sets against the bounds in BENCHMARK.json
    python3 perfbench/repeat.py --compare set1.json set2.json

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), and the spread: the
inter-quartile distance as a share of the median. A bound in
BENCHMARK.json should sit at three times the largest spread seen for its
metric (setup_s excepted, which only has its medians compared). --compare
reports, per metric, how much worse the second set's median is than the
first's, against the metric's bound, and whether the failed-operation
shares agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s seed %d: no output (exit %d)" %
                           (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        raise RuntimeError("%s seed %d: run failed (exit %d)" %
                           (workload, seed, out.returncode))
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def collect(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for workload in workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            runs.append(run_once(workload, seed, seconds, args.trace))
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        results[workload] = runs
    return results


def report(results, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload, runs in results.items():
        print("%s (%d runs)" % (workload, len(runs)))
        names = list(runs[0]["metrics"].keys())
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            if len(values) < 2:
                print("  %-28s %14.6g %s" % (name, values[0], unit))
                continue
            median, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s":
                note = "  bound %.3f, spread/bound %.2f" % (bound,
                                                           spread / bound)
            print("  %-28s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f%s"
                  % (name, median, q1, q3, spread, note))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("  failed share(s): %s" % sorted(shares))


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload in a:
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            flag = "ok" if worse <= bound else "WORSE"
            ok = ok and worse <= bound
            print("%-16s %-22s %12.6g -> %12.6g  worse by %+.4f (bound %.3f) %s"
                  % (workload, name, ma, mb, worse, bound, flag))
    for workload in a:
        sa = {r["failed"] / r["attempted"] for r in a[workload]}
        sb = {r["failed"] / r["attempted"] for r in b[workload]}
        if sa != sb:
            ok = False
            print("%s: failed shares differ: %s vs %s" % (workload, sa, sb))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(0 if compare(args.compare[0], args.compare[1], spec) else 1)
    results = collect(args, spec)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    report(results, spec)


if __name__ == "__main__":
    main()
