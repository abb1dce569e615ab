#!/usr/bin/env python3
"""Check that the benchmark is steady: run every workload of
BENCHMARK.json on seeds 1 to 10 and report, per end-to-end metric, the
spread between the first and third quartile as a share of the median,
against the metric's bound.

    python3 perfbench/steady.py [--save FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

A later change is judged by the shift of each metric's median over ten
seeds, so a spread must stay within the metric's bound; the run fails
when one does not.  The steadiness target is a spread below a third of
the bound, which leaves the median's own noise well inside it; spreads
above the target are marked "above target" without failing the run,
since a spread measured over ten runs moves by up to half its size from
one set to the next.  --compare takes two saved sets of the same
program and fails when a metric's median got worse by more than its
bound.  Run from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def cpu_ticks():
    # /proc/stat's first line: user nice system idle iowait irq softirq
    # steal ...; the steal share says how much the host took back.
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


def run_once(b, workload, seed):
    cmd = b["command"] + ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(b["run_seconds"]), "--trace", "0"]
    t0, (total0, steal0) = time.monotonic(), cpu_ticks()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - t0
    total1, steal1 = cpu_ticks()
    run_once.steal = (steal1 - steal0) / max(1, total1 - total0)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: failed (exit {p.returncode})")
    return result, elapsed


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def report(b, results):
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        print(f"{workload} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            steady &= sp <= bound
            verdict = ("ok" if sp < bound / 3 else
                       "above target" if sp <= bound else "TOO NOISY")
            print(f"  {name:16} median {med:14.6g}  spread {sp:8.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
    return steady


def compare(b, first, second):
    worse_ok = True
    for m in b["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            c = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            change = (c - a) / a if better == "lower" else (a - c) / a
            ok = change <= bound
            worse_ok &= ok
            print(f"{workload:15} {name:16} {a:14.6g} -> {c:14.6g}  "
                  f"worse by {change:+.4f} (bound {bound})"
                  f"{'' if ok else '  REGRESSION'}")
    return worse_ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    b = bench()
    if args.compare:
        sets = [json.load(open(path)) for path in args.compare]
        return 0 if compare(b, *sets) else 1
    results = {}
    for w in (w["name"] for w in b["workloads"]):
        results[w] = []
        for seed in SEEDS:
            result, elapsed = run_once(b, w, seed)
            print(f"# {w} seed {seed}: {elapsed:.1f} s, "
                  f"steal {100 * run_once.steal:.1f}%", flush=True)
            results[w].append(result)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    return 0 if report(b, results) else 1


if __name__ == "__main__":
    sys.exit(main())
