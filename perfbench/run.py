#!/usr/bin/env python3
"""Build the Perm benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds perfbench/perf.exe with
dune (release profile, build directory .bench_build, dune cache off, so it
writes nothing outside the tree), runs it with the given arguments and
passes its standard output through; the last line is the JSON result.
The exit code is the benchmark's, or 1 if the build fails or the run
times out, or 2 when the tree holds no Perm sources to build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perf.exe")
OUT = os.path.join(BUILD_DIR, "perfbench-out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main(argv):
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} missing next to the benchmark; "
                  "nothing to build", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled", "-j", "2",
             "./perfbench/perf.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run(
            [os.path.join(ROOT, EXE), "--out", OUT] + argv,
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
