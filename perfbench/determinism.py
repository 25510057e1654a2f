#!/usr/bin/env python3
"""Determinism self-test: every count metric must repeat exactly.

    python3 perfbench/determinism.py [WORKLOAD ...]

For each workload (default: all three) the benchmark runs three times in
each mode, with seeds 1, 2 and 1 again, and the quality metrics (--trace 0)
and the work counts (--trace 1) must be identical across the three runs:
across two runs of one seed and across two seeds, which differ only in
program or request order. Exits 1 on any difference or failed run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["batch-o0", "batch-o1", "serve-edit"]
SEEDS = [1, 2, 1]
COUNTS = {
    0: ["usher_slowdown_pct", "msan_slowdown_pct", "usher_checks_pct"],
    1: ["analysis.solve_iterations", "vfg.states_explored",
        "vfg.opt2_redirected", "instr.compressed_away", "vm.steps",
        "ir.instrs", "instr.checks", "vfg.nodes", "vfg.edges"],
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ok = True
    for workload in sys.argv[1:] or WORKLOADS:
        for trace, names in COUNTS.items():
            runs = [run(workload, seed, trace) for seed in SEEDS]
            for name in names:
                values = [r[name] for r in runs]
                same = all(v == values[0] for v in values)
                ok &= same
                print(f"{workload:10} {name:28} {'same' if same else 'DIFFERS'}"
                      f"  {values}")
    print("determinism: OK" if ok else "determinism: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
