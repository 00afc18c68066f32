"""The `cli` workload: cold `cq` processes, one at a time, on a seeded argv
list drawn from every subcommand, plus malformed argv.

Every argv passes `--format json --timings`.  A valid argv must exit 0 and
print a result that matches a published value, a closed form or the
library reached by another route; a malformed one must exit 2 or 3.  No
argv may print a traceback.  Outputs are checked after the timed passes.
"""

import json
import math
import random
import resource
import statistics
import sys
from collections import Counter, namedtuple
from time import perf_counter

from common import (
    MIN_PASSES,
    OUT,
    SETUP_SLOT_S,
    SRC,
    cq_env,
    latency_stats,
    peak_rss_mb,
    run_cq,
    time_for,
)
from workloads import (
    DELTA_POLYNOMIALS,
    PHI_POLYNOMIALS,
    PHI_TABLE,
    _composition,
    _pataki_window,
    _top,
    two_permutation_count,
)

# check(lib, result) -> bool for a valid argv; None for a malformed one.
Case = namedtuple("Case", "argv check")

PROBE_EVERY = 12
WORK_DIR = OUT / "cli"
COMMON = ("--format", "json", "--timings")

# Malformed argv; the first three crash with a traceback (exit 1) at the
# seed commit and stay in the list so that the defect shows as failed ops.
# The other two are an argparse error (exit 2) and a domain error (exit 3);
# the list is kept short so that every argv is timed in more passes.
MALFORMED = (
    ("matroid", "reduced", "--uniform", "3"),
    ("cells", "weight", "--sigma", "a|b"),
    ("segre", "mu", "--data", "[1]", "--i", "1"),
    ("frobnicate",),
    ("delta", "--m", "0", "--n", "3", "--r", "1"),
)

# Cell dimensions of the twelve cells of CQ_3, as published.
CQ3_WEIGHTS = {
    "1|2|3": 5, "1|3|2": 3, "2|1|3": 3, "2|3|1": 2, "3|1|2": 2, "3|2|1": 0,
    "12|3": 4, "13|2": 2, "23|1": 1, "1|23": 4, "2|13": 3, "3|12": 1,
}

# The hexagon (permutohedral fan of rank 2); every maximal cone integrates to 1.
HEXAGON_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
HEXAGON_CONES = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1))


def _poly_json(lib, coeffs):
    poly = lib.exactmath.UnivariatePolynomial(coeffs)
    return {
        "coefficients": [c.numerator if c.denominator == 1 else str(c) for c in poly.coefficients],
        "pretty": poly.to_string(),
    }


def _reduced_from(lib, chi, full_rank):
    if chi.is_zero() or full_rank < 1:
        return None
    quotient, _ = chi.divide_by_linear(1)
    return [abs(c.numerator) for c in reversed(quotient.coefficients)]


def _graph_text(rng):
    v = rng.randint(3, 5)
    edges = [rng.sample(range(1, v + 1), 2) for _ in range(rng.randint(v, 7))]
    return v, edges, f"{v} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def build_cases(rng):
    """Returns (cases, files): the argv list and the input files it reads."""
    files = {
        "hexagon.txt": "2 6 6\n" + "".join(f"{x} {y}\n" for x, y in HEXAGON_RAYS)
        + "".join(f"{a} {b}\n" for a, b in HEXAGON_CONES),
        "hollow_nu.json": json.dumps({"degF": 3, "nL": 3, "mY": 1, "s": [2, -5]}),
    }
    cases = []

    def add(argv, check):
        cases.append(Case(tuple(str(x) for x in argv), check))

    n = rng.randint(3, 5)
    d = rng.randint(1, _top(n))
    add(["phi", "--n", n, "--d", d],
        lambda lib, r, n=n, d=d: r == PHI_TABLE[n][min(d, _top(n) + 1 - d) - 1])
    d = rng.choice(sorted(PHI_POLYNOMIALS))
    add(["phi-poly", "--d", d],
        lambda lib, r, d=d: r == _poly_json(lib, PHI_POLYNOMIALS[d]))
    n = rng.randint(3, 5)
    m, r_ = rng.randint(1, _top(n) - 1), rng.randint(1, n - 1)
    add(["delta", "--m", m, "--n", n, "--r", r_],
        lambda lib, r, m=m, n=n, r_=r_: r == lib.quadrics.delta(_top(n) - m, n, n - r_))
    # delta-poly (2, 2) is in every list: its process has the largest RSS
    # (18 MB against at most 17 MB for any other argv), so peak_rss_mb
    # would otherwise follow the seed.
    m, s = 2, 2
    add(["delta-poly", "--m", m, "--s", s],
        lambda lib, r, key=(m, s): r == _poly_json(lib, DELTA_POLYNOMIALS[key]))
    n = rng.randint(3, 4)
    c, d = rng.randint(1, n - 1), rng.randint(1, _top(n) - 1)
    add(["phi-c", "--n", n, "--c", c, "--d", d],
        lambda lib, r, n=n, c=c, d=d: r == lib.quadrics.phi_c(n, n - c, _top(n) - d))
    n = rng.randint(3, 4)
    a = tuple(rng.choice((0, 1, 2)) for _ in range(n - 1))
    b = _composition(rng, _top(n) - 1 - sum(a), n - 1)
    add(["product", "--n", n, "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b))],
        lambda lib, r, n=n, a=a, b=b: r == lib.quadrics.integrate_monomial(n, a[::-1], b[::-1]))
    n = rng.randint(2, 6)
    m, r_ = rng.randint(1, _top(n) - 1), rng.randint(1, n - 1)
    add(["pataki", "--m", m, "--n", n, "--r", r_],
        lambda lib, r, m=m, n=n, r_=r_: r is _pataki_window(m, n, r_))
    n = rng.randint(3, 6)
    b = _composition(rng, math.comb(n, 2), n - 1)
    order = [slot for slot in range(1, n) for _ in range(b[slot - 1])]
    rng.shuffle(order)
    add(["flag-integral", "--n", n, "--b", ",".join(map(str, b))],
        lambda lib, r, n=n, b=b, order=order: r == lib.schubert.flag_integral(n, b, order=order))
    n = rng.randint(3, 6)
    w = list(range(1, n + 1))
    rng.shuffle(w)
    i = rng.randint(1, n - 1)
    add(["monk", "--i", i, "--w", ",".join(map(str, w))],
        lambda lib, r, i=i, w=tuple(w): r == {
            ",".join(map(str, v)): c
            for v, c in sorted(lib.schubert.monk_multiply_bruhat(i, w).terms.items())})
    d, n = rng.choice((5, 7, 8)), rng.randint(1, 3)
    b = rng.randint(0, n * (d - 2) + 2)
    add(["hypersurface-count", "--d", d, "--n", n, "--b", b],
        lambda lib, r, d=d, n=n, b=b: r == (n * (d - 1) ** (n - 1)) ** b)

    v, edges, text = _graph_text(rng)
    graph = "graph.txt"
    files[graph] = text

    def whitney(lib, v=v, edges=edges):
        m = lib.matroid.matroid_from_graph(lib.matroid.Graph(v, edges))
        return m, lib.matroid.characteristic_polynomial(m, method="whitney")

    def charpoly_ok(lib, r, whitney=whitney):
        m, chi = whitney(lib)
        return r == {"characteristic": _poly_json(lib, chi.coefficients),
                     "reduced": _reduced_from(lib, chi, m.full_rank())}

    def chromatic_ok(lib, r, whitney=whitney, v=v, edges=edges):
        _, chi = whitney(lib)
        shift = lib.matroid.Graph(v, edges).component_count()
        return r == _poly_json(lib, [0] * shift + list(chi.coefficients))

    add(["matroid", "charpoly", "--graph", graph], charpoly_ok)
    add(["matroid", "chromatic", "--graph", graph], chromatic_ok)
    n = rng.randint(2, 6)
    rank = rng.randint(1, n)

    def uniform_ok(lib, r, rank=rank, n=n):
        m = lib.matroid.uniform_matroid(rank, n)
        chi = lib.matroid.characteristic_polynomial(m, method="whitney")
        return r == _reduced_from(lib, chi, rank) and r[-1] == math.comb(n - 1, rank - 1)

    add(["matroid", "reduced", "--uniform", f"{rank},{n}"], uniform_ok)
    nu = [rng.randint(0, 9) for _ in range(rng.randint(2, 6))]
    add(["matroid", "euler", "--nu", ",".join(map(str, nu))],
        lambda lib, r, nu=nu: r == sum((-1) ** i * x for i, x in enumerate(nu)))
    n = rng.randint(2, 3)
    add(["toric", "fan-check", "--permutohedral", n],
        lambda lib, r, n=n: r == {"smooth": True, "complete": True, "rank": n,
                                  "rays": 2 ** (n + 1) - 2,
                                  "maximal_cones": math.factorial(n + 1)})
    add(["toric", "mu-generic", "--n", n],
        lambda lib, r, n=n: r == [math.comb(n, k) for k in range(n + 1)])
    terms = [{"rays": list(cone), "coeff": rng.randint(-5, 5)}
             for cone in rng.sample(HEXAGON_CONES, rng.randint(1, 6))]
    add(["toric", "integral", "--fan", "hexagon.txt", "--class", json.dumps(terms)],
        lambda lib, r, terms=terms: r == sum(t["coeff"] for t in terms))
    n = rng.randint(3, 6)
    add(["cells", "--n", n, "--histogram"],
        lambda lib, r, n=n: sum(r) == two_permutation_count(n) and r == r[::-1]
        and len(r) == _top(n) and (n != 3 or r == [1, 2, 3, 3, 2, 1]))
    n = rng.randint(3, 4)
    add(["cells", "enumerate", "--n", n],
        lambda lib, r, n=n: len(set(r)) == len(r) == two_permutation_count(n))
    sigma = rng.choice(sorted(CQ3_WEIGHTS))
    add(["cells", "weight", "--sigma", sigma],
        lambda lib, r, sigma=sigma: r == CQ3_WEIGHTS[sigma])
    sigma = rng.choice(sorted(CQ3_WEIGHTS))
    add(["cells", "param", "--sigma", sigma],
        lambda lib, r, sigma=sigma: r["free_variable_count"] == CQ3_WEIGHTS[sigma]
        == len(r["free_variables"]))
    sigma = rng.choice(sorted(CQ3_WEIGHTS))
    add(["cells", "verify", "--sigma", sigma, "--random", "--seed", rng.randint(0, 999)],
        lambda lib, r: r is True)
    deg, nl = rng.randint(2, 6), rng.randint(2, 6)
    my = rng.randint(0, nl - 1)
    i = rng.randint(0, nl)
    data = json.dumps({"degF": deg, "nL": nl, "mY": my, "s": [0] * (my + 1)})
    add(["segre", "mu", "--data", data, "--i", i],
        lambda lib, r, deg=deg, i=i: r == (deg - 1) ** i)
    add(["segre", "nu", "--data", "@hollow_nu.json", "--i", 3], lambda lib, r: r == 1)
    mu, n = rng.randint(0, 50), rng.randint(1, 6)
    s = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
    add(["segre", "correct", "--mu", mu, "--n", n, f"--s={','.join(map(str, s))}"],
        lambda lib, r, mu=mu, n=n, s=s: r == mu - sum(math.comb(n, j) * x for j, x in enumerate(s)))
    mu = [rng.randint(1, 9) for _ in range(4)]
    nu = [x - rng.randint(0, 1) for x in mu]
    add(["segre", "compare", "--mu", ",".join(map(str, mu)), "--nu", ",".join(map(str, nu))],
        lambda lib, r, mu=mu, nu=nu: r is ((mu == nu) == (mu[-1] == nu[-1])))
    cases += [Case(argv, None) for argv in MALFORMED]
    rng.shuffle(cases)
    return cases, files


def setup(seed):
    """Input generation plus one untimed warm-up `cq` call, so the bytecode
    cache exists as it does for an installed user."""
    cases, files = build_cases(random.Random(seed))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (WORK_DIR / name).write_text(text, encoding="utf-8")
    _, proc = run_cq(["pataki", "--m", "1", "--n", "3", "--r", "1"], WORK_DIR, cq_env())
    if proc is None or proc.returncode != 0:
        raise RuntimeError("warm-up cq call failed")
    return cases


def startup_ms(env):
    """Wall time, in ms, of a trivial `cq pataki` process."""
    wall, proc = run_cq(["pataki", "--m", "1", "--n", "3", "--r", "1"], WORK_DIR, env)
    if proc is None or proc.returncode != 0 or proc.stdout.strip() != "false":
        raise RuntimeError(f"cq pataki failed: {proc and proc.stderr}")
    return 1000 * wall


def run_pass(cases, env, probes):
    """Run every argv once; returns (pass seconds, [(wall, proc)]).  A
    startup probe goes between every PROBE_EVERY argv, appended to `probes`
    and left out of the pass time, which sums the argv processes' walls."""
    outcomes = []
    for i, case in enumerate(cases):
        if i % PROBE_EVERY == 0:
            probes.append(startup_ms(env))
        outcomes.append(run_cq(case.argv + COMMON, WORK_DIR, env))
    return sum(wall for wall, _ in outcomes), outcomes


def judge(lib, case, proc):
    """Outcome of one argv: "ok", "timeout", "contract" (a traceback or an
    exit code outside the contract) or "wrong" (a bad result), plus the
    handler seconds from --timings when it ran."""
    if proc is None:
        return "timeout", None
    if proc.returncode not in (0, 2, 3) or "Traceback" in proc.stderr:
        return "contract", None
    if case.check is None:
        return ("ok" if proc.returncode != 0 else "contract"), None
    if proc.returncode != 0:
        return "wrong", None
    try:
        payload = json.loads(proc.stdout)
        handler = payload["meta"]["elapsed_ms"] / 1000
        ok = bool(case.check(lib, payload["result"]))
    except Exception:  # unreadable output is a failed op
        return "wrong", None
    return ("ok" if ok else "wrong"), handler


def run_cli(seed, seconds, trace):
    setup_times = []
    cases = time_for(SETUP_SLOT_S, lambda: setup(seed), setup_times)
    env = cq_env()
    passes, probes = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(passes) < MIN_PASSES:
        passes.append(run_pass(cases, env, probes))
        time_for(SETUP_SLOT_S, lambda: setup(seed), setup_times)

    sys.path.insert(0, str(SRC))
    import cqcalc as lib

    statuses = Counter()
    problems = set()
    handler, overhead = [], []
    for _, outcomes in passes:
        for case, (wall, proc) in zip(cases, outcomes):
            status, handler_s = judge(lib, case, proc)
            statuses[status] += 1
            if status != "ok":
                problems.add(f"{status}: cq {' '.join(case.argv)}")
            if handler_s is not None:
                handler.append(handler_s)
                overhead.append(wall - handler_s)
    report = {
        # A wrong result makes the run incorrect; a crash or timeout is a
        # failed op.
        "correct": statuses["wrong"] == 0,
        "attempted": len(cases) * len(passes),
        "failed": sum(statuses.values()) - statuses["ok"],
        "problems": sorted(problems),
    }
    if trace:
        from tracing import LAYER_METRICS

        walls = [p[0] for p in passes]
        layer = {name: 0 for name, _, _ in LAYER_METRICS}
        layer["cli.handler_ms"] = 1000 * statistics.median(handler)
        layer["cli.overhead_ms"] = 1000 * statistics.median(overhead)
        layer["cli.contract_failures"] = statuses["contract"] // len(passes)
        layer["cli.startup_ms"] = min(probes)
        # Every pass already runs with --timings, so the odd ("traced")
        # passes do the same work as the even ones: the ratio is noise.
        layer["trace.overhead_ratio"] = (
            statistics.median(walls[1::2]) / statistics.median(walls[0::2])
        )
        report["layer"] = layer
        return report
    best = [min(outcomes[i][0] for _, outcomes in passes) for i in range(len(cases))]
    p50, tail, pct = latency_stats(best)
    report["metrics"] = {
        "wall_s": sum(best),
        "op_p50_ms": 1000 * p50,
        "op_tail_ms": 1000 * tail,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "setup_s": min(setup_times),
    }
    report["notes"] = {
        "wall_s": f"sum of {len(cases)} cq processes, each its best of {len(passes)} passes",
        "op_p50_ms": f"over {len(cases)} cq processes, each its best of {len(passes)} passes",
        "op_tail_ms": f"p{pct:.2f} of the same {len(cases)} cq processes",
        "peak_rss_mb": "largest child process",
        "setup_s": f"best of {len(setup_times)} set-ups",
    }
    return report
