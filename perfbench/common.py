"""Paths, metric names and `cq` process helpers shared by the workloads."""

import gc
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("tables", "products", "combinatorics", "cli")

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Set-up (import plus input generation) is repeated for this many seconds
# before the first pass and again after every pass.  The slot is kept
# small, so that most of a run goes to passes.
SETUP_SLOT_S = 0.1
CHILD_TIMEOUT_S = 60
# What a `cq` console script runs, pointed at the checkout's sources.
CQ_CODE = "import sys; from cqcalc.cli import main; sys.exit(main())"
# Every op is timed in at least this many passes, so that its best time
# is taken over samples spread through the run.
MIN_PASSES = 3


def cq_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cq(argv, cwd, env):
    """One cold `cq` process; returns (wall seconds, CompletedProcess or None
    on timeout).  subprocess.run kills and reaps the child on timeout."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CQ_CODE, *map(str, argv)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, None
    return perf_counter() - start, proc


def time_for(seconds, fn, samples):
    """Call fn() once, then again until `seconds` have gone by; appends each
    call's wall time to `samples` and returns the last call's result.  The
    garbage of the previous call is collected outside the timer."""
    stop = perf_counter() + seconds
    while True:
        gc.collect()
        start = perf_counter()
        result = fn()
        samples.append(perf_counter() - start)
        if perf_counter() >= stop:
            return result


def latency_stats(samples):
    """Median, and the highest percentile with at least ten samples beyond it.

    Callers pass each op's best time over the run's passes: on a shared host
    the same op runs up to 1.5x slower for seconds at a time, and the best of
    samples spread through the run is what stays put from run to run."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return statistics.median(ordered), ordered[k], 100 * (k + 1) / len(ordered)


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024
