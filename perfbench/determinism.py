#!/usr/bin/env python3
"""Determinism test for the benchmark's seed plumbing.

    python3 perfbench/determinism.py

For each workload in BENCHMARK.json: two 2-second runs with seed 7
must make the identical op sequence (the "# op sequence" digest) and
report identical deterministic metrics, both end-to-end (len_geomean,
period_geomean) and per-layer (compaction.passes, engine.hit_ratio,
*.alloc_mw, ...); a run with seed 8 must make a different op sequence
and still pass every output check.  Run from the root of the checkout;
exits non-zero on any difference.
"""

import json
import subprocess
import sys

DETERMINISTIC = {
    0: ["len_geomean", "period_geomean", "ok_ratio"],
    1: ["compaction.passes", "compaction.useful_ratio", "compaction.alloc_mw",
        "startup.alloc_mw", "simulator.alloc_mw", "simulator.messages",
        "export.bytes", "engine.hit_ratio", "engine.evictions",
        "statefile.bytes"],
}

SEED, OTHER_SEED, SECONDS = 7, 8, 2


def run(command, workload, seed, trace):
    p = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    digest = next(l.split()[-1] for l in lines
                  if l.startswith("# op sequence"))
    result = json.loads(lines[-1])
    ok = p.returncode == 0 and result["correct"]
    values = {k: result["metrics"][k]["value"] for k in DETERMINISTIC[trace]}
    return ok, digest, values


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    failures = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            first = run(command, w, SEED, trace)
            second = run(command, w, SEED, trace)
            for name, (ok, _, _) in (("first", first), ("second", second)):
                if not ok:
                    failures.append(f"{w} trace {trace}: {name} run failed")
            if first[1] != second[1]:
                failures.append(f"{w} trace {trace}: op sequences differ")
            for k, v in first[2].items():
                if second[2][k] != v:
                    failures.append(
                        f"{w} trace {trace}: {k} {v} != {second[2][k]}")
            print(f"{w} trace {trace}: op sequence {first[1]} "
                  + " ".join(f"{k}={v}" for k, v in first[2].items()),
                  flush=True)
        ok, digest, _ = run(command, w, OTHER_SEED, 0)
        if not ok:
            failures.append(f"{w}: seed {OTHER_SEED} failed its checks")
        if digest == first[1]:
            failures.append(f"{w}: seed {OTHER_SEED} made the same ops")
    for f in failures:
        print("FAIL:", f)
    print("determinism:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
