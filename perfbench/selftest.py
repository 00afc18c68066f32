"""Self-test of the benchmark: the deterministic per-layer counters (memo
states, flag DPs, Monk covers, cones, rank-oracle calls, 2-permutations,
contract failures, ...) must repeat exactly on two traced runs of one seed.

    python3 perfbench/selftest.py

Every workload runs twice with seed 7, each time in a fresh process; the
shortest run still makes one untraced, one span and one counting pass.
Exits 1 on any difference or failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

from common import WORKLOADS
from tracing import DETERMINISTIC

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: wrong outputs\n{proc.stdout}")
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


def main():
    status = 0
    for workload in WORKLOADS:
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        nonzero = {k: v for k, v in first.items() if v}
        print(f"{workload}: {'DIFFER ' + repr(differ) if differ else 'identical'} {nonzero}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
