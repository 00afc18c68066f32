"""Matroids from graphs, subspaces and uniform parameters; characteristic,
reduced characteristic, and chromatic polynomials; Euler-characteristic sums.

The characteristic polynomial is computed two independent ways, compared
against each other in the test suite on every matroid of the corpus:

* deletion-contraction (the default, which answers every caller): an
  iterative walk over the minors (contract a set C, delete a set D) with
  an explicit stack, so its depth is not bounded by the recursion limit.
  A minor is never built: its rank is r(S | C) - r(C) on the base oracle,
  and r(C) = |C| because only non-loops are contracted.  A branch stops
  at a free minor (chi = (x - 1)^size) or at a minor with a loop
  (chi = 0); each free leaf adds its sign to a count c_k indexed by the
  coloops on its path, and the polynomial is sum_k c_k (x - 1)^k,
  expanded once with integer binomials;
* Whitney's rank-sum over all subsets of the ground set (`method="whitney"`),
  the independent oracle.
"""

from fractions import Fraction
from itertools import combinations

from .exactmath import (
    DomainError,
    UnivariatePolynomial,
    _integer_line,
    _integer_rows,
    binomial,
    matrix_rank,
)


class Graph:
    """Undirected multigraph; vertices 1..v, loops and parallel edges allowed."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count, edges):
        edges = [tuple(e) for e in edges]
        for u, v in edges:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise DomainError(f"edge ({u},{v}) outside vertex range")
        self.vertex_count = vertex_count
        self.edges = tuple(edges)

    def component_count(self):
        """Connected components, isolated vertices included: the rank of
        the graphic matroid is the vertex count minus this."""
        return self.vertex_count - matroid_from_graph(self).full_rank()


def cycle_graph(k):
    return Graph(k, [(i, i % k + 1) for i in range(1, k + 1)])


def complete_graph(k):
    return Graph(k, list(combinations(range(1, k + 1), 2)))


def parse_graph(text):
    """Parse the plain graph format: a "v e" header line, then e lines "i j"
    with 1-based vertex indices (loops written "i i")."""
    tokens = [
        t for line in text.splitlines() for t in _integer_line(line, "graph file")
    ]
    if len(tokens) < 2:
        raise DomainError("graph file needs a 'v e' header")
    v, e = tokens[0], tokens[1]
    if v < 0 or e < 0:
        raise DomainError(f"graph header 'v e' must be nonnegative, got '{v} {e}'")
    ends = tokens[2:]
    if len(ends) % 2:
        raise DomainError(
            f"graph file ends in a dangling token {ends[-1]}: an edge is two vertices"
        )
    if len(ends) != 2 * e:
        raise DomainError(f"expected {e} edges, found {len(ends) // 2}")
    return Graph(v, zip(ends[::2], ends[1::2]))


class Matroid:
    """Ground set {0..ground_size-1} with a rank oracle and a realization tag."""

    __slots__ = ("ground_size", "_rank", "tag")

    def __init__(self, ground_size, rank_oracle, tag):
        self.ground_size = ground_size
        self._rank = rank_oracle
        self.tag = tag

    def rank(self, subset):
        return self._rank(frozenset(subset))

    def full_rank(self):
        return self.rank(range(self.ground_size))

    def is_loop(self, element):
        return self.rank({element}) == 0

    def has_loop(self):
        return any(self.is_loop(e) for e in range(self.ground_size))


def matroid_from_graph(g):
    """Graphic matroid: the rank of an edge set is the size of a spanning
    forest of the subgraph it spans, counted as the unions that succeed in
    a union-find over the vertices (a list indexed 0..v, path halving)."""
    edges = g.edges
    roots = list(range(g.vertex_count + 1))

    def rank(subset):
        parent = roots[:]
        forest = 0
        for i in subset:
            u, v = edges[i]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                forest += 1
        return forest

    return Matroid(len(edges), rank, ("graphic", g))


def matroid_from_subspace(rows):
    """Matroid on column indices 1..N of a subspace spanned by the given
    rows: a set is independent when the corresponding coordinate vectors
    stay independent modulo the subspace."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    if not rows:
        raise DomainError("need at least one row (possibly zero) to fix N")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise DomainError("rows of unequal length")
    # Each row scaled to integers once; the row space, and so every rank,
    # is unchanged.
    int_rows, _ = _integer_rows(rows)
    base_rank = matrix_rank(int_rows)

    def rank(subset):
        # The unit vectors of S together with V span |S| dimensions plus
        # those of V restricted to the columns outside S.
        kept = [j for j in range(ncols) if j not in subset]
        restricted = [[row[j] for j in kept] for row in int_rows]
        return len(subset) + matrix_rank(restricted) - base_rank

    return Matroid(ncols, rank, ("linear", tuple(rows)))


def uniform_matroid(r, n):
    if not 0 <= r <= n:
        raise DomainError("uniform matroid needs 0 <= r <= n")

    def rank(subset):
        return min(len(subset), r)

    return Matroid(n, rank, ("uniform", (r, n)))


def characteristic_polynomial(m, method="deletion_contraction"):
    """Characteristic polynomial of a matroid; identically zero when the
    matroid has a loop."""
    if method == "whitney":
        return _charpoly_whitney(m)
    if method == "deletion_contraction":
        return _charpoly_dc(m._rank, m.ground_size)
    raise DomainError(f"unknown method {method!r}")


def _charpoly_whitney(m):
    full = m.full_rank()
    coeffs = [0] * (full + 1)
    elements = list(range(m.ground_size))
    for size in range(m.ground_size + 1):
        sign = -1 if size % 2 else 1
        for subset in combinations(elements, size):
            coeffs[full - m.rank(subset)] += sign
    return UnivariatePolynomial(coeffs)


def _charpoly_dc(rank, size):
    """Deletion-contraction, always on the least element i of the minor's
    ground set {i..size-1}, so a minor is fixed by i and its contracted set
    C, which is independent in the base matroid.  A stack entry carries i,
    C, the base rank of {i..size-1} | C, the coloops met on the path and
    the sign of the branch.  A branch ends at a free minor, whose elements
    are all coloops, or at a minor with a loop, whose chi is 0."""
    coloop_counts = [0] * (size + 1)
    stack = [(0, frozenset(), rank(frozenset(range(size))), 0, 1)]
    while stack:
        i, contracted, ground_rank, coloops, sign = stack.pop()
        minor_rank = ground_rank - len(contracted)
        if minor_rank == size - i:
            # a free minor: every remaining element is a coloop
            coloop_counts[coloops + minor_rank] += sign
            continue
        if minor_rank == 0:
            continue  # a nonempty minor of rank 0 is all loops: chi = 0
        with_e = contracted | {i}
        if rank(with_e) == len(contracted):
            continue  # i is a loop of the minor: chi = 0
        rest_rank = rank(contracted.union(range(i + 1, size)))
        if rest_rank < ground_rank:
            # coloop: chi(M) = (x - 1) chi(M / i)
            stack.append((i + 1, with_e, ground_rank, coloops + 1, sign))
        else:
            stack.append((i + 1, contracted, rest_rank, coloops, sign))
            stack.append((i + 1, with_e, ground_rank, coloops, -sign))
    coeffs = [0] * (size + 1)
    for k, c in enumerate(coloop_counts):
        if c:
            for j in range(k + 1):
                coeffs[j] += c * binomial(k, j) * (-1) ** (k - j)
    return UnivariatePolynomial(coeffs)


def reduced_characteristic_coefficients(m):
    """Unsigned coefficients, top degree first, of the characteristic
    polynomial divided exactly by (x - 1)."""
    if m.full_rank() < 1:
        raise DomainError("matroid must have rank >= 1")
    return reduced_coefficients(characteristic_polynomial(m))


def reduced_coefficients(chi):
    """Unsigned coefficients, top degree first, of chi / (x - 1), for a
    characteristic polynomial chi already in hand."""
    quotient, remainder = chi.divide_by_linear(1)
    if remainder != 0 or chi.is_zero():
        raise DomainError("chi_M(1) != 0")
    out = []
    for c in reversed(quotient.coefficients):
        if c.denominator != 1:
            raise RuntimeError("non-integer reduced coefficient")
        out.append(abs(c.numerator))
    return tuple(out)


def chromatic_polynomial(g):
    """Chromatic polynomial of a graph: q^(#components) times the
    characteristic polynomial of its graphic matroid."""
    chi = characteristic_polynomial(matroid_from_graph(g))
    shift = g.component_count()
    out = [0] * shift + list(chi.coefficients)
    return UnivariatePolynomial(out)


def euler_characteristic_complement(nu):
    """Alternating sum of projective degrees: the topological Euler
    characteristic of the complement of the defining hypersurface."""
    return sum((-1) ** i * v for i, v in enumerate(nu))
