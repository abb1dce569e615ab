#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run builds
perfbench/perfbench.exe and bin/ccsched.exe into .bench_build/ (release
profile); later runs reuse that build.  Everything the benchmark writes
stays inside the checkout: the build in .bench_build/, span files and
the daemon's temporary directories in .bench_out/.

The last line of standard output is the JSON result.  The exit code is
the benchmark's: 0 when every output check passed, non-zero otherwise
(and non-zero, with no result, when the source tree is missing).
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
CCSCHED = os.path.join(BUILD_DIR, "default", "bin", "ccsched.exe")
RUN_TIMEOUT_S = 175


def main():
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a "
                  "cyclosched source checkout", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/perfbench.exe",
         "./bin/ccsched.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 2
    sys.stdout.flush()
    # One CPU for the benchmark and the daemon it starts, so the
    # calibration kernel times the CPU the work runs on.
    cpu = max(os.sched_getaffinity(0))
    try:
        bench = subprocess.run(
            [EXE, *sys.argv[1:], "--ccsched", CCSCHED, "--out", OUT_DIR],
            timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
