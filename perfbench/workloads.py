"""The in-process workloads: `tables`, `products` and `combinatorics`.

Each workload builds its op list from a seeded `random.Random` and checks
every result afterwards, outside the timed region, against a published
value or a second route that does not reuse the op's own call.  Why each
workload exists is written down in perfbench/README.md.
"""

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

# span: layer span name for the traced run; fn(*args) is the op; fresh: the
# memo tables are cleared (outside the timer) before the op; matroid: the
# matroid whose rank oracle a traced run counts; key: what the checks read.
Op = namedtuple("Op", "span fn args fresh matroid key")

# products and combinatorics draw their monomials and graphs from pools made
# with this fixed seed, and the run's seed varies them in ways that keep
# their cost (see below); inputs drawn afresh for every seed made op_p50_ms
# and op_tail_ms follow the seed by 20-30%.
POOL_SEED = 2111


def _op(span, fn, args, key, fresh=False, matroid=None):
    return Op(span, fn, tuple(args), fresh, matroid, key)


def _top(n):
    return math.comb(n + 1, 2)


# --- tables ---------------------------------------------------------------

PHI_TABLE = {
    3: (1, 2, 4, 4, 2, 1),
    4: (1, 3, 9, 17, 21, 21, 17, 9, 3),
    5: (1, 4, 16, 44, 86, 137, 188, 212, 188),
}

# Coefficients (ascending) printed in the README and pinned by the tests.
PHI_POLYNOMIALS = {1: (1,), 2: (-1, 1), 3: (1, -2, 1)}
DELTA_POLYNOMIALS = {(1, 1): (0, 1), (2, 1): (0, -1, 1), (1, 2): (), (2, 2): ()}


def build_tables(lib, rng):
    """Every phi, delta and phi_c for n <= 6, then the README polynomials;
    the memo is shared across the pass, as when the paper's tables are
    produced.  The seed orders the blocks of one n each, and then the
    polynomials.  Within a block the tables come as the paper prints them
    (the phi row, the delta table, the phi_c table), each in its natural
    order: the memo is keyed by n, so a block's ops cost the same wherever
    the block comes, while shuffling within a block moves the cost of the
    shared memo states from query to query and made op_tail_ms follow the
    seed by up to 30%."""
    q = lib.quadrics
    blocks = []
    for n in range(2, 7):
        top = _top(n)
        blocks.append(
            [_op("quadrics.integrate", q.phi, (n, d), ("phi", n, d))
             for d in range(1, top + 1)]
            + [_op("quadrics.integrate", q.delta, (m, n, r), ("delta", m, n, r))
               for m in range(1, top) for r in range(1, n)]
            + [_op("quadrics.integrate", q.phi_c, (n, c, d), ("phi_c", n, c, d))
               for c in range(1, n) for d in range(1, top)]
        )
    rng.shuffle(blocks)
    polys = [_op("quadrics.poly", q.phi_polynomial, (d,), ("phi_poly", d))
             for d in PHI_POLYNOMIALS]
    polys += [_op("quadrics.poly", q.delta_polynomial, ms, ("delta_poly",) + ms)
              for ms in DELTA_POLYNOMIALS]
    rng.shuffle(polys)
    return [op for block in blocks for op in block] + polys


def _pataki_window(m, n, r):
    return math.comb(n - r + 1, 2) <= m <= _top(n) - math.comb(r + 1, 2)


def check_tables(lib, ops, results):
    value = {op.key: res for op, res in zip(ops, results)}
    index = {op.key: i for i, op in enumerate(ops)}
    bad = {}

    def expect(key, ok, why):
        if not ok:
            bad.setdefault(index[key], f"{key}: {why}")

    for key, got in value.items():
        kind = key[0]
        if kind == "phi":
            _, n, d = key
            top = _top(n)
            if n in PHI_TABLE:
                expect(key, got == PHI_TABLE[n][min(d, top + 1 - d) - 1], "published table")
            expect(key, got == value[("phi", n, top + 1 - d)], "duality d <-> top+1-d")
            # phi_from_delta: n * phi(n, d) = sum of s * delta(d, n, n - s)
            e = 1 if d == top else d
            total = sum(s * value[("delta", e, n, n - s)]
                        for s in range(1, n) if math.comb(s + 1, 2) <= e)
            expect(key, n * got == total, "phi_from_delta identity")
        elif kind == "delta":
            _, m, n, r = key
            expect(key, (got != 0) == _pataki_window(m, n, r), "Pataki window")
            expect(key, got == value[("delta", _top(n) - m, n, n - r)], "reversal")
        elif kind == "phi_c":
            _, n, c, d = key
            if math.comb(n - c + 2, 2) > d:
                expect(key, got == c * value[("phi", n, d)], "phi_c == c * phi")
            expect(key, got == value[("phi_c", n, n - c, _top(n) - d)], "reversal")
        elif kind == "phi_poly":
            _, d = key
            expect(key, tuple(got.coefficients) == PHI_POLYNOMIALS[d], "README polynomial")
            for n in range(2, 7):
                if d <= _top(n):
                    expect(key, got(n) == value[("phi", n, d)], f"value at n={n}")
        elif kind == "delta_poly":
            _, m, s = key
            expect(key, tuple(got.coefficients) == DELTA_POLYNOMIALS[(m, s)],
                   "published polynomial")
            for n in range(max(2, s + 1), 7):
                if m < _top(n):
                    expect(key, got(n) == value[("delta", m, n, n - s)], f"value at n={n}")
    return bad


# --- products -------------------------------------------------------------

# Per pass: (n, count, most empty S slots); S-exponents are in {0, 1, 2}.
# On CQ_6 a monomial with three or four empty S slots costs 2 ms to 0.9 s
# depending on b (mostly on whether it vanishes), and a pure-L one costs
# 0.5-0.75 s; they are left out, because an op that long is timed in too
# few samples to stay put on a shared host.  Pure-L CQ_5 monomials cost
# the same whatever b is (25-40 ms): sixteen of them hold op_tail_ms.
PRODUCT_MIX = ((4, 150, 3), (5, 150, 3), (6, 8, 2))
PURE_L = ((5, 16),)


def _composition(rng, total, parts):
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
    bounds = [-1] + cuts + [total + parts - 1]
    return tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


def product_pool():
    """The fixed pool.  The run's seed picks each monomial's orientation:
    whether a monomial vanishes decides most of its cost, and a monomial
    and its reversal have the same integral and cost about the same."""
    pool = random.Random(POOL_SEED)
    monomials = []
    for n, count, max_empty in PRODUCT_MIX:
        # Every number of empty S slots comes equally often, because the
        # cost of a monomial follows it.
        for i in range(count):
            empty = set(pool.sample(range(n - 1), i % (max_empty + 1)))
            a = tuple(0 if j in empty else pool.choice((1, 2)) for j in range(n - 1))
            monomials.append((n, a, _composition(pool, _top(n) - 1 - sum(a), n - 1)))
    for n, count in PURE_L:
        monomials += [(n, (0,) * (n - 1), _composition(pool, _top(n) - 1, n - 1))
                      for _ in range(count)]
    return monomials


def build_products(lib, rng):
    """Independent top-degree monomials S^a L^b on CQ_4..CQ_6, each as drawn
    or reversed as the seed picks; each op runs on cleared memo tables, so
    nothing is reused between ops."""
    integrate = lib.quadrics.integrate_monomial
    monomials = [(n, a, b) if rng.random() < 0.5 else (n, a[::-1], b[::-1])
                 for n, a, b in product_pool()]
    rng.shuffle(monomials)
    return [_op("quadrics.integrate", integrate, m, m, fresh=True) for m in monomials]


def check_products(lib, ops, results):
    """Reversal symmetry: the integral of S^a L^b equals that of
    S^rev(a) L^rev(b), a different monomial for the engine.  Each runs on
    cleared memo tables, as the op did."""
    bad = {}
    for i, (op, got) in enumerate(zip(ops, results)):
        n, a, b = op.key
        lib.quadrics.clear_caches()
        if got != lib.quadrics.integrate_monomial(n, a[::-1], b[::-1]):
            bad[i] = f"product {op.key}: reversal symmetry"
    lib.quadrics.clear_caches()
    return bad


# --- combinatorics --------------------------------------------------------

def _fan_check(toric, n):
    fan = toric.permutohedral_fan(n)
    return fan.check_smooth(), fan.check_complete(), len(fan.rays), len(fan.maximal_cones)


# Sixteen simple graphs with 10 of the 15 edges on 6 vertices, from the
# fixed pool; the run's seed relabels their vertices and orders their
# edges.  Their characteristic polynomials take 17-31 ms each, by graph,
# and they hold op_tail_ms.
GRAPHS, GRAPH_EDGES = 16, tuple(itertools.combinations(range(1, 7), 2))
# (rank, size) of the uniform matroids, 0.1-9 ms each.
UNIFORM = ((1, 3), (2, 4), (2, 5), (3, 6), (4, 7), (3, 8))


def _graphs(lib, rng):
    pool = random.Random(POOL_SEED)
    graphs = []
    for _ in range(GRAPHS):
        label = dict(zip(range(1, 7), rng.sample(range(1, 7), 6)))
        edges = [(label[a], label[b]) for a, b in pool.sample(GRAPH_EDGES, 10)]
        rng.shuffle(edges)
        graphs.append(lib.matroid.Graph(6, edges))
    return graphs


def _segre_cases(lib, rng):
    """The paper's worked examples, then seeded data with a zero Segre class,
    where mu_i = (degF - 1)^i."""
    data = lib.segre.SegreData
    cases = [
        ("mu", data(degF=4, nL=2, mY=1, s=(0, 6)), 2, 3),
        ("mu", data(degF=3, nL=3, mY=0, s=(4,)), 3, 4),
        ("nu", data(degF=3, nL=3, mY=1, s=(2, -5)), 3, 1),
    ]
    for _ in range(5):
        deg, nl = rng.randint(2, 6), rng.randint(2, 6)
        my = rng.randint(0, nl - 1)
        i = rng.randint(0, nl)
        cases.append(("mu", data(degF=deg, nL=nl, mY=my, s=(0,) * (my + 1)), i, (deg - 1) ** i))
    return cases


def two_permutation_count(n):
    """Ordered partitions of {1..n} into j pairs and n - 2j singletons."""
    return sum(math.factorial(n) * math.factorial(n - j)
               // (2 ** j * math.factorial(j) * math.factorial(n - 2 * j))
               for j in range(n // 2 + 1))


def build_combinatorics(lib, rng):
    """Toric, cells, matroid and segre calls only; quadrics and schubert are
    never entered."""
    toric, cells, matroid, segre = lib.toric, lib.cells, lib.matroid, lib.segre
    ops = [_op("toric.mu_generic", toric.mu_generic, (n,), ("mu_generic", n))
           for n in (2, 3, 4)]
    ops += [_op("toric.fan_check", _fan_check, (toric, n), ("fan", n)) for n in (2, 3, 4, 5)]
    ops.append(_op("cells.chow", cells.chow_group_dimensions, (6,), ("chow", 6)))
    # Two seeded points per cell of CQ_3: these similar ops hold the median.
    for sigma in cells.enumerate_two_permutations(3) * 2:
        names = cells.cell_parametrization(sigma).free_variables()
        values = {name: Fraction(rng.randint(1, 30), rng.randint(1, 11)) * rng.choice((1, -1))
                  for name in names}
        ops.append(_op("cells.verify", cells.verify_cell_point, (sigma, values),
                       ("cell", str(sigma))))
    matroids = [("graph", matroid.matroid_from_graph(g)) for g in _graphs(lib, rng)]
    matroids += [("uniform", matroid.uniform_matroid(k, n)) for k, n in UNIFORM]
    for _ in range(3):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(2)]
        matroids.append(("linear", matroid.matroid_from_subspace(rows)))
    for i, (kind, m) in enumerate(matroids):
        ops.append(_op("matroid.charpoly", matroid.characteristic_polynomial, (m,),
                       ("charpoly", kind, i), matroid=m))
    for kind, data, i, expected in _segre_cases(lib, rng):
        fn = segre.mu_from_segre if kind == "mu" else segre.nu_from_segre
        ops.append(_op("segre.eval", fn, (data, i), ("segre", kind, data, i, expected)))
    rng.shuffle(ops)
    return ops


def check_combinatorics(lib, ops, results):
    bad = {}
    for i, (op, got) in enumerate(zip(ops, results)):
        kind = op.key[0]
        if kind == "mu_generic":
            n = op.key[1]
            ok = got == [math.comb(n, k) for k in range(n + 1)]
        elif kind == "fan":
            n = op.key[1]
            ok = got == (True, True, 2 ** (n + 1) - 2, math.factorial(n + 1))
        elif kind == "chow":
            count = two_permutation_count(op.key[1])
            ok = sum(got) == count and got == got[::-1] and got[0] == 1
        elif kind == "cell":
            ok = got is True
        elif kind == "charpoly":
            ok = got == lib.matroid.characteristic_polynomial(op.matroid, method="whitney")
        else:
            ok = got == op.key[-1]
        if not ok:
            bad[i] = f"{op.key}: got {got!r}"
    return bad


WORKLOADS = {
    "tables": (build_tables, check_tables),
    "products": (build_products, check_products),
    "combinatorics": (build_combinatorics, check_combinatorics),
}
