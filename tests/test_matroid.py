import random
from fractions import Fraction
from itertools import combinations

import pytest

from cqcalc.exactmath import (
    DomainError,
    UnivariatePolynomial,
    binomial,
    is_log_concave,
    matrix_rank,
)
from cqcalc.matroid import (
    Graph,
    characteristic_polynomial,
    chromatic_polynomial,
    complete_graph,
    cycle_graph,
    euler_characteristic_complement,
    matroid_from_graph,
    matroid_from_subspace,
    parse_graph,
    reduced_characteristic_coefficients,
    reduced_coefficients,
    uniform_matroid,
)


def _graph_corpus():
    """Small graphs (<= 10 edges, parallel edges and loops included)."""
    bowtie = Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    parallel = Graph(3, [(1, 2), (1, 2), (2, 3)])
    loopy = Graph(2, [(1, 1), (1, 2)])
    path4 = Graph(4, [(1, 2), (2, 3), (3, 4)])
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    disconnected = Graph(5, [(1, 2), (2, 3), (4, 5)])
    k4_minus = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    return {
        "K3": complete_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "K4": complete_graph(4),
        "path4": path4,
        "star": star,
        "bowtie": bowtie,
        "parallel": parallel,
        "loopy": loopy,
        "disconnected": disconnected,
        "K4_minus_edge": k4_minus,
        "edge": Graph(2, [(1, 2)]),
    }


def test_graphic_rank_examples():
    assert matroid_from_graph(complete_graph(3)).full_rank() == 2
    c4 = matroid_from_graph(cycle_graph(4))
    assert c4.full_rank() == 3
    assert c4.ground_size - c4.full_rank() == 1
    loop = matroid_from_graph(Graph(1, [(1, 1)]))
    assert loop.full_rank() == 0
    assert loop.has_loop()


def test_rank_axioms_spot_checks():
    rng = random.Random(5)
    matroids = [
        matroid_from_graph(_graph_corpus()["bowtie"]),
        uniform_matroid(3, 6),
        matroid_from_subspace([[1, 1, 0, 2], [0, 1, 1, 1]]),
    ]
    for m in matroids:
        assert m.rank(()) == 0
        ground = list(range(m.ground_size))
        for _ in range(40):
            s = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
            t = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
            rs, rt = m.rank(s), m.rank(t)
            assert rs <= len(s)
            if s <= t:
                assert rs <= rt
            assert m.rank(s | t) + m.rank(s & t) <= rs + rt


def test_subspace_matroid_conventions():
    free = matroid_from_subspace([[0, 0, 0]])
    assert free.full_rank() == 3
    assert all(free.rank({i}) == 1 for i in range(3))

    # quotienting by the full space kills every vector
    full = matroid_from_subspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert full.full_rank() == 0

    # a generic a-dimensional subspace of C^n gives the uniform matroid of
    # rank n - a under this (literal) reading
    rng = random.Random(23)
    for n, a in [(4, 1), (5, 2), (6, 3)]:
        rows = [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(a)
        ]
        m = matroid_from_subspace(rows)
        u = uniform_matroid(n - a, n)
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                assert m.rank(subset) == u.rank(subset)


def test_subspace_rank_oracle_matches_stacked_unit_rows():
    # r(S) = rank(V with the unit rows of S stacked on) - rank V, on every
    # subset of seeded matrices (some with dependent or zero rows)
    rng = random.Random(29)
    for _ in range(60):
        n, a = rng.randint(1, 6), rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(a)]
        m = matroid_from_subspace(rows)
        base = matrix_rank(rows)
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                units = [[int(j == i) for j in range(n)] for i in subset]
                assert m.rank(subset) == matrix_rank(rows + units) - base, (rows, subset)


def test_subspace_rational_rows_match_integer_rows():
    # scaling each row by a nonzero rational keeps the row space, so every
    # rank; the tag keeps the rows as given
    rng = random.Random(31)
    for _ in range(20):
        n, a = rng.randint(1, 5), rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(a)]
        scaled = []
        for row in rows:
            factor = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            scaled.append([factor * x for x in row])
        m, mq = matroid_from_subspace(rows), matroid_from_subspace(scaled)
        assert mq.tag == ("linear", tuple(tuple(row) for row in scaled))
        for k in range(n + 1):
            for subset in combinations(range(n), k):
                assert mq.rank(subset) == m.rank(subset), (scaled, subset)


def test_characteristic_polynomial_examples():
    assert characteristic_polynomial(uniform_matroid(3, 3)) == UnivariatePolynomial(
        [-1, 3, -3, 1]
    )  # (x - 1)^3
    c4 = matroid_from_graph(cycle_graph(4))
    assert characteristic_polynomial(c4) == UnivariatePolynomial([-3, 6, -4, 1])
    loopy = matroid_from_graph(Graph(2, [(1, 1), (1, 2)]))
    assert characteristic_polynomial(loopy).is_zero()


def test_characteristic_polynomial_two_routes_agree():
    for name, g in _graph_corpus().items():
        m = matroid_from_graph(g)
        assert characteristic_polynomial(m) == characteristic_polynomial(
            m, method="whitney"
        ), name
    for r, n in [(0, 3), (1, 4), (2, 4), (3, 5), (4, 4)]:
        m = uniform_matroid(r, n)
        assert characteristic_polynomial(m) == characteristic_polynomial(
            m, method="whitney"
        )
    linear = matroid_from_subspace([[1, 1, 0, 2, 1], [0, 1, 1, 1, 3]])
    assert characteristic_polynomial(linear) == characteristic_polynomial(
        linear, method="whitney"
    )


def test_deletion_contraction_matches_whitney_on_families():
    # every labelled simple graph on 4 vertices
    pairs = list(combinations(range(1, 5), 2))
    for bits in range(1 << len(pairs)):
        g = Graph(4, [p for k, p in enumerate(pairs) if bits >> k & 1])
        m = matroid_from_graph(g)
        assert characteristic_polynomial(m) == characteristic_polynomial(
            m, method="whitney"
        ), g.edges
    # every uniform matroid on at most 7 elements
    for n in range(8):
        for r in range(n + 1):
            m = uniform_matroid(r, n)
            assert characteristic_polynomial(m) == characteristic_polynomial(
                m, method="whitney"
            ), (r, n)
    # seeded linear matroids (12 of the 40 have a loop)
    rng = random.Random(17)
    for _ in range(40):
        n, a = rng.randint(1, 7), rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(a)]
        m = matroid_from_subspace(rows)
        assert characteristic_polynomial(m) == characteristic_polynomial(
            m, method="whitney"
        ), rows


def test_chi_at_one_vanishes():
    for name, g in _graph_corpus().items():
        m = matroid_from_graph(g)
        if m.has_loop() or m.ground_size == 0:
            continue
        assert characteristic_polynomial(m)(1) == 0, name


def test_reduced_coefficients_examples():
    assert reduced_characteristic_coefficients(uniform_matroid(3, 3)) == (1, 2, 1)
    assert reduced_characteristic_coefficients(
        matroid_from_graph(cycle_graph(4))
    ) == (1, 3, 3)


def test_reduced_coefficients_uniform_beta():
    # the last reduced coefficient of the rank-a uniform matroid on n
    # elements is the Pascal entry C(n-1, a-1): the degree of the
    # coordinate-inverse of a generic a-dimensional subspace
    for n in range(1, 9):
        for a in range(1, n + 1):
            coeffs = reduced_characteristic_coefficients(uniform_matroid(a, n))
            assert coeffs[-1] == binomial(n - 1, a - 1)
            assert coeffs == tuple(binomial(n - 1, k) for k in range(a))


def test_reduced_coefficients_errors():
    with pytest.raises(DomainError):
        reduced_characteristic_coefficients(uniform_matroid(0, 2))
    with pytest.raises(DomainError, match="chi_M"):
        reduced_characteristic_coefficients(
            matroid_from_graph(Graph(2, [(1, 1), (1, 2)]))
        )


def test_reduced_coefficients_from_chi():
    for name, g in _graph_corpus().items():
        m = matroid_from_graph(g)
        if m.has_loop() or m.full_rank() < 1:
            continue
        chi = characteristic_polynomial(m)
        assert reduced_coefficients(chi) == reduced_characteristic_coefficients(m), name
    with pytest.raises(DomainError, match="chi_M"):
        reduced_coefficients(UnivariatePolynomial([0]))
    with pytest.raises(DomainError, match="chi_M"):
        reduced_coefficients(UnivariatePolynomial([1, 1]))


def test_log_concavity_on_corpus():
    for name, g in _graph_corpus().items():
        m = matroid_from_graph(g)
        if m.has_loop() or m.full_rank() < 1:
            continue
        coeffs = reduced_characteristic_coefficients(m)
        assert is_log_concave(coeffs), (name, coeffs)


def test_chromatic_polynomial_examples():
    # K3: q(q-1)(q-2)
    assert chromatic_polynomial(complete_graph(3)) == UnivariatePolynomial([0, 2, -3, 1])
    # C4 by deletion-contraction on a cycle: (q-1)^4 + (q-1)
    expected = UnivariatePolynomial([0, -3, 6, -4, 1])
    assert chromatic_polynomial(cycle_graph(4)) == expected
    # edgeless graph: q^v
    assert chromatic_polynomial(Graph(3, [])) == UnivariatePolynomial([0, 0, 0, 1])


def test_chromatic_counts_colorings():
    # evaluation at q counts proper colorings; brute force on small graphs
    for g in [complete_graph(3), cycle_graph(4), Graph(3, [(1, 2), (1, 2)])]:
        poly = chromatic_polynomial(g)
        for q in range(4):
            count = 0
            for coloring in range(q**g.vertex_count):
                colors = [(coloring // q**v) % q for v in range(g.vertex_count)]
                if all(colors[u - 1] != colors[v - 1] for u, v in g.edges):
                    count += 1
            assert poly(q) == count


def _bfs_components(g):
    neighbours = {v: set() for v in range(1, g.vertex_count + 1)}
    for u, v in g.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    seen, count = set(), 0
    for start in neighbours:
        if start in seen:
            continue
        count += 1
        queue = [start]
        seen.add(start)
        while queue:
            for w in neighbours[queue.pop(0)] - seen:
                seen.add(w)
                queue.append(w)
    return count


def test_component_count_matches_bfs():
    graphs = list(_graph_corpus().values()) + [
        Graph(0, []),
        Graph(4, []),
        Graph(6, [(2, 2), (3, 4), (4, 3), (3, 4), (6, 6)]),
        Graph(7, [(1, 2), (2, 3), (5, 6), (7, 7)]),
    ]
    rng = random.Random(11)
    for _ in range(40):
        v = rng.randint(1, 8)
        edges = [(rng.randint(1, v), rng.randint(1, v)) for _ in range(rng.randint(0, 8))]
        graphs.append(Graph(v, edges))
    for g in graphs:
        assert g.component_count() == _bfs_components(g), g.edges


def test_graphic_rank_matches_definition():
    # rank(S) = |V(S)| - components(S) over the subgraph the edges of S span
    graphs = list(_graph_corpus().values())
    rng = random.Random(12)
    for _ in range(40):
        v = rng.randint(1, 6)
        edges = [(rng.randint(1, v), rng.randint(1, v)) for _ in range(rng.randint(0, 9))]
        graphs.append(Graph(v, edges))
    for g in graphs:
        m = matroid_from_graph(g)
        for size in range(len(g.edges) + 1):
            for subset in combinations(range(len(g.edges)), size):
                chosen = [g.edges[i] for i in subset]
                touched = sorted({v for e in chosen for v in e})
                label = {v: k for k, v in enumerate(touched, start=1)}
                spanned = Graph(len(touched), [(label[u], label[v]) for u, v in chosen])
                expected = len(touched) - _bfs_components(spanned)
                assert m.rank(subset) == expected, (g.edges, subset)


def test_euler_characteristic_complement():
    assert euler_characteristic_complement((1, 1, 1)) == 1
    assert euler_characteristic_complement((1, 1, 1, 1)) == 0
    assert euler_characteristic_complement((1, 2, 2, 1)) == 0


def test_parse_graph():
    g = parse_graph("4 4\n1 2\n2 3\n3 4\n4 1\n")
    assert g.vertex_count == 4
    assert g.edges == ((1, 2), (2, 3), (3, 4), (4, 1))
    with pytest.raises(DomainError):
        parse_graph("2 1\n1 3\n")
    with pytest.raises(DomainError):
        parse_graph("2 2\n1 2\n")
    assert parse_graph("3 2\n1 2 2\n3\n").edges == ((1, 2), (2, 3))
    assert parse_graph("0 0\n").edges == ()


@pytest.mark.parametrize("text, needle", [
    ("a b\n", "line 'a b' is not all integers"),
    ("3 1\n1 2.5\n", "line '1 2.5' is not all integers"),
    ("3 -1\n", "must be nonnegative"),
    ("-2 0\n", "must be nonnegative"),
    ("3 1\n1 2 3\n", "dangling token 3"),
    ("3\n", "needs a 'v e' header"),
])
def test_parse_graph_rejects_malformed_files(text, needle):
    with pytest.raises(DomainError, match=needle):
        parse_graph(text)
