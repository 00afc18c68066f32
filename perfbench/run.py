"""Benchmark for cqcalc: end-to-end metrics per workload, or a traced run
with per-layer metrics.

Run from the root of the repository (stdlib only, nothing to build):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads: tables, products, combinatorics (in this process) and cli (cold
`cq` processes, one at a time).  `all` runs the four one after another, each
in a fresh process.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print every metric by name and unit.  With --trace 1 the metrics are the
per-layer ones, and the spans of one traced pass are written to
perfbench/out/.  See perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import namedtuple
from time import perf_counter

from common import (
    END_TO_END,
    MIN_PASSES,
    OUT,
    SETUP_SLOT_S,
    SRC,
    WORKLOADS,
    latency_stats,
    peak_rss_mb,
    time_for,
)


# --- in-process workloads -------------------------------------------------

Raised = namedtuple("Raised", "error")


def package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "cqcalc" or name.startswith("cqcalc.")}


def import_fresh():
    for name in package_modules():
        del sys.modules[name]
    return importlib.import_module("cqcalc")


def run_pass(lib, ops, tracer=None):
    """Run every op once; returns (wall seconds, op latencies, results)."""
    clear = lib.quadrics.clear_caches
    clear()
    gc.collect()
    latencies, results = [], []
    pass_start = perf_counter()
    for i, op in enumerate(ops):
        if op.fresh:
            clear()
        if tracer is not None:
            before = tracer.cache_sizes()
            tracer.op = i
        start = perf_counter()
        try:
            if tracer is None:
                result = op.fn(*op.args)
            else:
                result = tracer.call(op.span, op.fn, *op.args)
        except Exception as exc:  # a failed op is counted, never dropped
            result = Raised(repr(exc))
        latencies.append(perf_counter() - start)
        if tracer is not None:
            tracer.add_cache_growth(before)
        results.append(result)
    return perf_counter() - pass_start, latencies, results


def traced_pass(lib, ops, tracer, matroids, counting):
    """One pass with the tracer's span wrappers, or with its counting
    wrappers; returns (wall seconds, per-layer values, results)."""
    tracer.reset()
    tracer.install(matroids, counting)
    try:
        wall, _, results = run_pass(lib, ops, tracer)
    finally:
        tracer.uninstall()
    return wall, tracer.pass_metrics(), results


def run_inprocess(name, seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as IN_PROCESS
    from tracing import COUNTED, DETERMINISTIC, Tracer

    build, check = IN_PROCESS[name]

    def set_up():
        lib = import_fresh()
        return lib, build(lib, random.Random(seed))

    setup = []
    lib, ops = time_for(SETUP_SLOT_S, set_up, setup)
    # Every later set-up imports afresh too, then these modules go back into
    # sys.modules: clear_caches() finds the schubert module it clears there.
    modules = package_modules()

    tracer = Tracer(lib) if trace else None
    matroids = [op.matroid for op in ops if op.matroid is not None]
    plain, traced, counted, spans = [], [], [], None
    deadline = perf_counter() + seconds
    while True:
        plain.append(run_pass(lib, ops))
        time_for(SETUP_SLOT_S, set_up, setup)
        sys.modules.update(modules)
        if tracer is not None:
            traced.append(traced_pass(lib, ops, tracer, matroids, counting=False))
            spans = spans or tracer.spans
            counted.append(traced_pass(lib, ops, tracer, matroids, counting=True))
        if perf_counter() >= deadline and (trace or len(plain) >= MIN_PASSES):
            break
    rss = peak_rss_mb(resource.RUSAGE_SELF)  # before the check's own calls

    all_results = [p[2] for p in plain + traced + counted]
    first = all_results[0]
    try:
        bad = check(lib, ops, first)
    except Exception as exc:  # a check that cannot finish proves nothing
        bad = {i: f"check raised {exc!r}" for i in range(len(ops))}
    for i, (op, r) in enumerate(zip(ops, first)):
        if isinstance(r, Raised):
            bad[i] = f"{op.key}: {r.error}"
        elif any(repr(results[i]) != repr(r) for results in all_results):
            bad.setdefault(i, f"{op.key}: passes differ")
    report = {
        "correct": not bad,
        "attempted": len(ops) * len(all_results),
        "failed": len(bad) * len(all_results),
        "problems": sorted(bad.values())[:5],
    }
    if trace:
        layer = dict(traced[0][1])
        for metric in layer:
            if metric not in DETERMINISTIC:
                layer[metric] = statistics.median(t[1][metric] for t in traced)
        layer.update((metric, counted[0][1][metric]) for metric in COUNTED)
        layer["trace.overhead_ratio"] = (
            statistics.median(t[0] for t in traced) / statistics.median(p[0] for p in plain)
        )
        write_spans(name, seed, spans)
        report["layer"] = layer
        return report
    best = [min(p[1][i] for p in plain) for i in range(len(ops))]
    p50, tail, pct = latency_stats(best)
    report["metrics"] = {
        "wall_s": sum(best),
        "op_p50_ms": 1000 * p50,
        "op_tail_ms": 1000 * tail,
        "peak_rss_mb": rss,
        "setup_s": min(setup),
    }
    report["notes"] = {
        "wall_s": f"sum of {len(ops)} ops, each its best of {len(plain)} passes",
        "op_p50_ms": f"over {len(ops)} ops, each its best of {len(plain)} passes",
        "op_tail_ms": f"p{pct:.2f} of the same {len(ops)} ops",
        "setup_s": f"best of {len(setup)} set-ups",
    }
    return report


def write_spans(name, seed, spans):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans or ():
            handle.write(json.dumps(span) + "\n")


# --- output ---------------------------------------------------------------

def emit(name, seed, report, trace):
    from tracing import LAYER_METRICS

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {name} seed {seed}: {attempted} ops attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.4f}, outputs "
          f"{'correct' if report['correct'] else 'WRONG'}")
    for problem in report.get("problems", ()):
        print(f"  problem: {problem}")
    if trace:
        specs = [(n, u) for n, u, _ in LAYER_METRICS]
        values = report["layer"]
    else:
        specs = END_TO_END
        values = report["metrics"]
    metrics = {}
    for metric, unit in specs:
        note = report.get("notes", {}).get(metric, "")
        print(f"  {metric:32s} {values[metric]:14.6f} {unit:6s} {note}")
        metrics[metric] = {"value": values[metric], "unit": unit}
    print(json.dumps({
        "correct": report["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def run_all(seed, seconds, trace):
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cqcalc" / "__init__.py").is_file():
        print(f"error: no cqcalc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload == "cli":
        from cliload import run_cli

        report = run_cli(args.seed, args.seconds, args.trace)
    else:
        report = run_inprocess(args.workload, args.seed, args.seconds, args.trace)
    emit(args.workload, args.seed, report, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
