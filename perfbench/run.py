#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload batch-o0 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The harness is built with dune into the
checkout's own _build directory (the shared dune cache is disabled, so
nothing is written outside the checkout). Every argument is passed on to
the harness, whose last line of standard output is the JSON result.
Exits non-zero, printing no result, if the build fails or the harness
overruns its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("perfbench", "main.exe")
LIMIT_S = 170  # the harness itself finishes well inside this


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./" + TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: harness exceeded {LIMIT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
