"""Intersection products on the space of complete quadrics CQ_n.

CQ_n compactifies the graph of matrix inversion on symmetric n x n
matrices; its dimension is C(n+1,2) - 1.  The degree-one classes come in
two families: hyperplane pullbacks L_1..L_{n-1} (a basis) and degeneration
divisors S_1..S_{n-1}, related by S_i = -L_{i-1} + 2 L_i - L_{i+1} with
L_0 = L_n = 0.

A top-degree monomial in these classes is integrated by rewriting it until
only the locus of completely degenerate quadrics remains.  That locus is a
complete flag variety, where the restriction of L_i is twice the Schubert
divisor of the transposition s_{n-i} (the extra 2 comes from the rank-one
locus sitting in its ambient space by a quadratic Veronese map), so the
value there is 2^(sum of exponents) times a flag-variety integral, read
off the Weyl volume polynomial (Monk's rule is its test oracle).  The
reduction builds these flag leaves itself, with exponents already checked,
so it sends them straight to `schubert._weyl_integral` rather than through
`flag_integral`; a leaf with a 0 exponent is 0 and never reaches the
table, whose key packing takes every exponent to be at least 1.

The rewriting expands hyperplane classes in mixed bases of S's and L's.
Their coordinates come from the closed-form inverse of the Cartan matrix
and have the common denominator k + 1 for a run of k degeneration classes;
the reduction keeps integer numerators and divides each sum exactly, so
every intermediate value is the integer integral of a top-degree class.
`l_in_mixed_basis` solves the same basis change as a linear system and is
the independent check on the closed form.

Most nodes of the rewriting are 0, and a dimension count finds them first.
A node with every a_i in {0, 1} is the integral of L^b over the stratum
Z_A cut out by the S_i with a_i = 1.  Each L_j is base-point-free, the
pullback of O(1) along Q -> Lambda^j Q (De Concini-Procesi, Thaddeus), and
on Z_A a chosen set of them factors through a bundle over a partial flag
variety whose fibres are smaller CQ_m (see `_exceeds_stratum`).  A product
of pulled-back classes of degree above the dimension of the space they
come from is 0, so such a node is answered 0 before it recurses.  The
flag leaves (every a_i = 1) skip the bound: they go straight to the flag
layer, where a vanishing integral is a miss in its volume table and costs
less than the bound.  The surplus nodes (some a_i >= 2) carry signed terms
and are rewritten as before.

A node with exactly one a_i = 0 is the integral of L^b over the stratum
cut out by every other S_j, which fibres over a partial flag variety with
fibre the smallest CQ_m, CQ_2 = P^2.  It is answered in closed form, with
no recursion and no bound (see `_one_free_slot`): there the mixed basis of
L_{i+1} is L_{i+1} = (S_{i+1} + L_i + L_{i+2}) / 2, so the node is half
a flag leaf plus half of two nodes of the same shape with one unit of b_i
moved to a neighbour, and unrolled, with F the flag leaf,
V(b) = sum over s < b_i of 2^-(s+1) sum over x + y = s of
C(s, x) F(b - (s+1) e_i + x e_{i-1} + y e_{i+1}).

What a node needs of its degeneration exponents a alone -- its kind, the
first surplus slot with its lowered a, the flag factor 2^C(n,2), the zero
slots and their set, the cut steps of the bound -- is worked out once per
(n, a) into a `_Shape` record by `_shape`, an lru_cache that
`clear_caches` empties; there are at most 3^(n-1) such a against many b.

For n = 2 the space is the plane of binary quadrics and the same relations
hold with S_1 = 2 L_1, so no special casing is needed.

`phi`, `phi_c` and `delta` do not run the reduction.  `delta` is the
Nie-Ranestad-Sturmfels formula, delta(m, n, r) = sum of psi_I psi_{[n]-I}
over the I in [n] with |I| = n - r and sum(I) = m, where psi_I are
Lascoux coefficients (Pfaffians of the pair values, found by elimination
and not memoized); `phi_c` expands its one L_c factor in S_1..S_{n-1}
through the Cartan inverse, which turns it into a sum of deltas; and `phi`
is phi_c(n, 1, d).  Only `intersection_product` and `integrate_monomial`
reduce, and they refuse n > 8, where the reduction has no bound on its
work; on the monomials that the closed forms name, `_reduce` is their
independent test oracle.

Everything here is pure and deterministic; the memo tables are the only
shared state and individual dict operations are atomic, so concurrent
callers always read complete entries.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactmath import (
    DomainError,
    FrozenRecord,
    UnivariatePolynomial,
    binomial,
    integer_exponents,
    interpolate,
    solve_linear_system,
)
from . import schubert
# `flag_integral` is not called here: the reduction builds its own flag
# leaves and sends them straight to `_weyl_integral`.  The name stays bound
# because perfbench/tracing.py spans it.
from .schubert import _weyl_integral, flag_integral  # noqa: F401


def cq_dimension(n):
    return binomial(n + 1, 2) - 1


class DivisorClass:
    """Degree-one class on CQ_n, stored in the basis L_1..L_{n-1}."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if n < 2 or len(coeffs) != n - 1:
            raise DomainError(f"need {n-1} coordinates for CQ_{n}")
        self.n = n
        self.coeffs = coeffs

    @classmethod
    def hyperplane(cls, n, i):
        """The class L_i."""
        if not 1 <= i <= n - 1:
            raise DomainError(f"L_{i} undefined on CQ_{n}")
        return cls(n, tuple(1 if j == i else 0 for j in range(1, n)))

    @classmethod
    def degeneration(cls, n, i):
        """The class S_i = -L_{i-1} + 2 L_i - L_{i+1}."""
        if not 1 <= i <= n - 1:
            raise DomainError(f"S_{i} undefined on CQ_{n}")
        coeffs = [0] * (n - 1)
        for j, c in ((i - 1, -1), (i, 2), (i + 1, -1)):
            if 1 <= j <= n - 1:
                coeffs[j - 1] += c
        return cls(n, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, DivisorClass)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"DivisorClass({self.n}, {list(self.coeffs)!r})"


class CQProduct(FrozenRecord):
    """Exponent profile for the monomial S_1^a_1..S_{n-1}^a_{n-1} *
    L_1^b_1..L_{n-1}^b_{n-1} on CQ_n."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n, a, b):
        a, b = integer_exponents(a), integer_exponents(b)
        if n < 2:
            raise DomainError("CQ_n needs n >= 2")
        if len(a) != n - 1 or len(b) != n - 1:
            raise DomainError(f"exponent vectors must have length {n - 1}")
        if min(a + b) < 0:
            raise DomainError("negative exponent")
        super().__init__(n, a, b)

    def total_degree(self):
        return sum(self.a) + sum(self.b)


@lru_cache(maxsize=None)
def _mixed_basis_expansion(n, i, frozen_x):
    """L_i in the basis {S_j : j in X} u {L_j : j not in X}, as integer
    numerators over one common denominator: (denominator, {(kind, j): num}).

    Outside X, L_i is a basis vector.  Inside a maximal run [p, q] of X with
    k = q - p + 1, the relations S_j = -L_{j-1} + 2 L_j - L_{j+1} for j in
    the run form the k x k Cartan matrix, whose inverse has entries
    min(r, s)(k + 1 - max(r, s)) / (k + 1); the neighbours L_{p-1} and
    L_{q+1} (when they exist) enter through its first and last columns.
    """
    if i not in frozen_x:
        return 1, {("L", i): 1}
    p, q = i, i
    while p - 1 in frozen_x:
        p -= 1
    while q + 1 in frozen_x:
        q += 1
    k, r = q - p + 1, i - p + 1
    out = {}
    for j in range(p, q + 1):
        s = j - p + 1
        out[("S", j)] = min(r, s) * (k + 1 - max(r, s))
    if p > 1:
        out[("L", p - 1)] = k + 1 - r
    if q < n - 1:
        out[("L", q + 1)] = r
    return k + 1, out


def l_in_mixed_basis(n, i, X):
    """Coordinates of L_i in the basis {S_j : j in X} u {L_j : j not in X}.

    Any subset X of 1..n-1 yields a basis, so the underlying linear system
    is never singular.  This solves the system directly; it is the
    independent check on the closed form the reduction uses.
    """
    if not 1 <= i <= n - 1:
        raise DomainError(f"index {i} out of range for CQ_{n}")
    X = frozenset(X)
    if any(not 1 <= j <= n - 1 for j in X):
        raise DomainError("basis selector out of range")
    columns = []
    for j in range(1, n):
        cls = (
            DivisorClass.degeneration(n, j)
            if j in X
            else DivisorClass.hyperplane(n, j)
        )
        columns.append(cls.coeffs)
    matrix = [[columns[c][r] for c in range(n - 1)] for r in range(n - 1)]
    rhs = [1 if r == i - 1 else 0 for r in range(n - 1)]
    solution = solve_linear_system(matrix, rhs)
    out = {}
    for j in range(1, n):
        coeff = solution[j - 1]
        if coeff != 0:
            out[("S" if j in X else "L", j)] = coeff
    return out


_product_memo = {}


def clear_caches():
    """Drop all memo tables of the reduction (here and in the flag-variety
    layer); only useful for timing measurements.  The closed forms for phi,
    phi_c and delta keep no memo."""
    _product_memo.clear()
    _shape.cache_clear()
    _mixed_basis_expansion.cache_clear()
    schubert.clear_caches()


class _Shape:
    """What a reduction node on CQ_n learns from its degeneration exponents
    a alone; `_shape` builds one per (n, a).

    kind is "surplus" (some a_i >= 2), "flag" (every a_i = 1), "single"
    (exactly one a_i = 0) or "open"; a field that the kind does not use is
    None.

    * children, lowered: at the first surplus slot i, the (slot,
      coefficient) pairs of S_i = -L_{i-1} + 2 L_i - L_{i+1}, and a with
      a_i one less.
    * flag_factor: 2^C(n,2), the 2^(sum of b) of a flag leaf, whose b has
      degree C(n,2) = dim Fl_n; a single node's leaves take it too.
    * zero_slots, zero_set: the slots i with a_i = 0, and (open nodes only)
      the X = {i + 1} of `_mixed_basis_expansion`.
    * cuts: for an open node, the steps of the longest-path bound over the
      cut points of a, from `_cut_steps`.  Flag and single nodes skip the
      bound.
    """

    __slots__ = (
        "kind", "children", "lowered", "flag_factor", "zero_slots", "zero_set", "cuts",
    )

    def __init__(self, kind, children, lowered, flag_factor, zero_slots, zero_set, cuts):
        self.kind = kind
        self.children = children
        self.lowered = lowered
        self.flag_factor = flag_factor
        self.zero_slots = zero_slots
        self.zero_set = zero_set
        self.cuts = cuts


def _cut_steps(n, a):
    """The steps of `_exceeds_stratum`'s longest path over the cut points
    of a (0, n and the i with a_i != 0), as (steps, last).

    A cut point q < n has the step (p, q - 1, 2 - (q - p), squares,
    (n - q)^2): b[p:q-1] is the block from the previous cut point p,
    b[q-1] is b_q, and squares lists (q - c)^2 over the cut points c before
    q.  last is (p, 2 - (n - p), squares) for the step to n, whose block is
    b[p:].
    """
    points, steps = [0], []
    for q, x in enumerate(a, 1):
        if x:
            p = points[-1]
            squares = [(q - c) ** 2 for c in points]
            steps.append((p, q - 1, 2 - q + p, squares, (n - q) ** 2))
            points.append(q)
    p = points[-1]
    return steps, (p, 2 - n + p, [(n - c) ** 2 for c in points])


@lru_cache(maxsize=None)
def _shape(n, a):
    """The `_Shape` of the degeneration exponents a on CQ_n."""
    if max(a) >= 2:
        i = 0
        while a[i] < 2:
            i += 1
        children = [(j, c) for j, c in ((i - 1, -1), (i, 2), (i + 1, -1)) if 0 <= j <= n - 2]
        lowered = a[:i] + (a[i] - 1,) + a[i + 1 :]
        return _Shape("surplus", children, lowered, None, None, None, None)
    if min(a) == 1:
        return _Shape("flag", None, None, 2 ** binomial(n, 2), None, None, None)
    zero_slots = [i for i, x in enumerate(a) if not x]
    if len(zero_slots) == 1:
        return _Shape("single", None, None, 2 ** binomial(n, 2), zero_slots, None, None)
    zero_set = frozenset([i + 1 for i in zero_slots])
    return _Shape("open", None, None, None, zero_slots, zero_set, _cut_steps(n, a))


def _exceeds_stratum(n, a, b):
    """True when L^b vanishes on the stratum Z_A = (intersection of the S_i
    with a_i = 1) for a dimension reason; a must lie in {0, 1}^(n-1).

    The cut points 0 = c_0 < ... < c_{k+1} = n are 0, n and the i with
    a_i = 1; Z_A fibres over the partial flag variety F(A; n) with fibre the
    product of CQ_m over the blocks (c_t, c_{t+1}) of size m.  For P in A
    and a set T of blocks with both ends in P u {0, n}, the L_j with j in P
    or inside a block of T are pulled back from a bundle over F(P; n) with
    fibres those CQ_m, of dimension (n^2 - sum of d^2)/2 (d over the gaps of
    P u {0, n}) plus the C(m+1, 2) - 1 of each block in T.  A product of
    classes pulled back from a space, of degree above its dimension, is 0.

    The best (P, T) is a longest path over the cut points, scored twice
    over so that it stays integral: a step of length d that ends on the cut
    point q earns d^2 + 2 b_q (b_n = 0), and a step between neighbouring
    cut points that takes its block into T earns 2 (b summed inside the
    block) - d + 2 + 2 b_q instead.  The monomial dies when the best path
    to n scores above n^2, and the walk stops as soon as a path that goes
    on straight to n would.  At an open node, the only kind the reduction
    asks, the steps come from the shape record of a; any other a has them
    worked out afresh.
    """
    steps, last = _shape(n, a).cuts or _cut_steps(n, a)
    limit = n * n
    best = [0]
    for p, hi, rise, squares, to_n in steps:
        # an empty block scores what the step from p scores
        top = best[-1] + 2 * sum(b[p:hi]) + rise if p < hi else 0
        for v, square in zip(best, squares):
            v += square
            if v > top:
                top = v
        top += 2 * b[hi]
        if top + to_n > limit:
            # the step from here straight to n already scores above n^2
            return True
        best.append(top)
    p, rise, squares = last
    top = best[-1] + 2 * sum(b[p:]) + rise if p < n - 1 else 0
    for v, square in zip(best, squares):
        v += square
        if v > top:
            top = v
    return top > limit


def _one_free_slot(n, i, b, flag_factor):
    """Integer value of S^a L^b on CQ_n where a has its only 0 at slot i.

    There X = {i + 1} and L_{i+1} = (S_{i+1} + L_i + L_{i+2}) / 2, so
    V(b) = (F(b - e_i) + V(b - e_i + e_{i-1}) + V(b - e_i + e_{i+1})) / 2,
    with F the flag leaf 2^C(n,2) times the integral over Fl_n and
    V(b) = 0 once b_i = 0.  Unrolled, a path of s steps that moves x units
    of b_i to slot i - 1 and y = s - x to slot i + 1 and then stops at a
    leaf contributes C(s, x) F(b - (s+1) e_i + x e_{i-1} + y e_{i+1}) /
    2^(s+1).  A missing neighbour (i at an end, or n = 2) keeps its share
    at 0.  The sum is scaled by 2^(b_i) and divided once at the end.  A
    leaf with a 0 exponent is 0 and is skipped before the table is asked.
    """
    top = b[i]
    left = i > 0
    right = i < n - 2
    # slots i - 1, i, i + 1 change from leaf to leaf; any other 0 kills all
    if 0 in b[: i - 1 if left else i] or 0 in b[i + 2 if right else i + 1 :]:
        return 0
    leaf = list(b)
    # a neighbour at 0 must take at least one unit
    low_x = 1 if left and not b[i - 1] else 0
    low_y = 1 if right and not b[i + 1] else 0
    total = 0
    # the leaf of a path of s steps keeps b_i - s - 1 >= 1 at slot i
    for s in range(top - 1):
        leaf[i] = top - s - 1
        subtotal = 0
        # x of the s units go left and s - x right; a missing side takes none
        for x in range(max(low_x, 0 if right else s), min(s - low_y, s if left else 0) + 1):
            if left:
                leaf[i - 1] = b[i - 1] + x
            if right:
                leaf[i + 1] = b[i + 1] + s - x
            subtotal += comb(s, x) * _weyl_integral(n, tuple(leaf))
        total += subtotal << (top - s - 1)
    total *= flag_factor
    # Every leaf is a top-degree class, so the sum is an integer.
    value, rest = divmod(total, 1 << top)
    if rest:
        raise RuntimeError(f"non-integer intersection product {total}/{1 << top}")
    return value


def _reduce(n, a, b, pick):
    """Integer value of the top-degree monomial S^a L^b on CQ_n."""
    memoize = pick is None
    if memoize:
        cached = _product_memo.get((n, a, b))
        if cached is not None:
            return cached

    shape = _shape(n, a)
    if shape.kind == "surplus":
        # Surplus degeneration factors: trade one S_i for its L-expansion.
        lowered = shape.lowered
        value = 0
        for j, coeff in shape.children:
            value += coeff * _reduce(n, lowered, b[:j] + (b[j] + 1,) + b[j + 1 :], pick)
    elif shape.kind == "flag":
        # Fully degenerate locus: a flag variety, with each L_i restricting
        # to twice a Schubert divisor.  A zero here is a volume-table miss,
        # cheaper than the stratum bound.
        value = shape.flag_factor * _weyl_integral(n, b) if 0 not in b else 0
    elif shape.kind == "single":
        value = _one_free_slot(n, shape.zero_slots[0], b, shape.flag_factor)
    elif _exceeds_stratum(n, a, b):
        # L^b has more degree than the data it factors through on Z_A.
        value = 0
    else:
        candidates = [i for i in shape.zero_slots if b[i] > 0]
        if not candidates:
            # Every missing degeneration direction also misses hyperplane
            # factors, and the product dies on a smaller partial-flag locus.
            # The stratum bound already catches this; the branch keeps the
            # reduction right without it, as the tests' oracle runs it.
            value = 0
        else:
            i = candidates[0] if pick is None else pick(candidates)
            denominator, expansion = _mixed_basis_expansion(n, i + 1, shape.zero_set)
            lowered_b = b[:i] + (b[i] - 1,) + b[i + 1 :]
            total = 0
            for (kind, j), coeff in expansion.items():
                if kind == "S":
                    new_a, new_b = a[: j - 1] + (1,) + a[j:], lowered_b
                else:
                    new_a = a
                    new_b = list(lowered_b)
                    new_b[j - 1] += 1
                    new_b = tuple(new_b)
                total += coeff * _reduce(n, new_a, new_b, pick)
            # Every term is a top-degree class, so the sum is an integer.
            value, rest = divmod(total, denominator)
            if rest:
                raise RuntimeError(
                    f"non-integer intersection product {total}/{denominator}"
                )

    if memoize:
        _product_memo[(n, a, b)] = value
    return value


def intersection_product(product, pick=None):
    """Exact integer value of the top intersection product on CQ_n, for
    n <= 8.

    `pick` optionally overrides which eligible hyperplane slot is rewritten
    first; the result is independent of that choice (tests randomize it)
    and the default deterministic strategy is memoized.
    """
    n = product.n
    if product.total_degree() != cq_dimension(n):
        raise DomainError("degree mismatch")
    # Past CQ_8 the reduction has no bound on its work.
    if n > 8:
        raise DomainError(f"intersection product needs n <= 8, got n = {n}")
    return _reduce(n, product.a, product.b, pick)


def integrate_monomial(n, a, b, pick=None):
    return intersection_product(CQProduct(n, tuple(a), tuple(b)), pick=pick)


def _psi(index):
    """Lascoux coefficient psi_I of an increasing tuple I of positive
    integers, with psi_() = 1.

    For i < j, psi_(i,j) = sum of C(i+j-2, k-1) over k = i..j-1.  A longer
    I gives the Pfaffian of the skew matrix [psi_(i,j)]; an I of odd length
    gets 0 in front, with psi_(0,j) = psi_(j) = 2^(j-1).

    The Pfaffian comes from fraction-free elimination: pivot on the entry
    (k, k+1), then replace every later entry (i, j) by the 4 x 4 Pfaffian on
    k, k+1, i, j divided by the previous pivot.  Each entry is then the
    Pfaffian of the leading rows together with i and j, so every division
    is exact, and the last pivot is the Pfaffian.
    """
    if len(index) % 2:
        index = (0,) + index
    size = len(index)
    a = [[0] * size for _ in range(size)]
    for r, i in enumerate(index):
        for c in range(r + 1, size):
            j = index[c]
            a[r][c] = sum(binomial(i + j - 2, t - 1) for t in range(i, j)) if i else 2 ** (j - 1)
            a[c][r] = -a[r][c]
    sign, previous = 1, 1
    for k in range(0, size, 2):
        pivot = next((j for j in range(k + 1, size) if a[k][j]), None)
        if pivot is None:
            return 0
        if pivot != k + 1:
            # swapping the labels k+1 and pivot flips the Pfaffian's sign
            for row in a:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
            a[k + 1], a[pivot] = a[pivot], a[k + 1]
            sign = -sign
        top, below, lead = a[k], a[k + 1], a[k][k + 1]
        for i in range(k + 2, size):
            row = a[i]
            for j in range(k + 2, size):
                row[j] = (lead * row[j] + below[i] * top[j] - top[i] * below[j]) // previous
        previous = lead
    return sign * previous


def _subsets(low, high, size, total):
    """Increasing tuples of `size` integers in low..high that sum to `total`."""
    if size == 0:
        if total == 0:
            yield ()
        return
    # the largest `size` integers of low..high fall short of `total`
    if size * high - size * (size - 1) // 2 < total:
        return
    for i in range(low, high + 1):
        if i * size + size * (size - 1) // 2 > total:
            break
        for rest in _subsets(i + 1, high, size - 1, total - i):
            yield (i,) + rest


# `delta` runs `_psi` twice on each index set, O(n^3) each, so its work is
# (index sets) * n^3.  A call over this budget is refused before its first
# index set: one unit takes about 24 ns at n = 20..40 and more elsewhere
# (Python 3.11, shared 2-CPU host), so a refused call would have taken 20 s
# or more.
_DELTA_WORK = 10**9


def _index_set_count(n, k, m, limit):
    """The number of k-subsets of 1..n that sum to m, or None when that
    number is over `limit`.

    Taking 1..k away from such a subset, sorted, leaves a partition of
    j = m - C(k+1, 2) into at most k parts of at most n - k; their number is
    the coefficient of q^j in the Gaussian binomial [n, k]_q, whose
    coefficients are symmetric about k (n - k) / 2 and unimodal (Sylvester),
    so j is first folded into the lower half and k below n - k.  The DP
    over (parts, sum) multiplies in (1 - q^(n-k+t)) / (1 - q^t) for
    t = 1..k; after step t, c[d] counts the partitions of d into at most t
    parts, which only grows with t, and c at min(j, t (n - k) / 2) is the
    largest c[d] with d <= j, a lower bound on the answer, so the DP stops
    as soon as it is over `limit`.
    """
    j = m - k * (k + 1) // 2
    if not 0 <= j <= k * (n - k):
        return 0
    if limit < 1:
        return None
    j = min(j, k * (n - k) - j)
    k, width = min(k, n - k), max(k, n - k)
    counts = [1] + [0] * j
    for t in range(1, k + 1):
        for d in range(j, width + t - 1, -1):
            counts[d] -= counts[d - width - t]
        for d in range(t, j + 1):
            counts[d] += counts[d - t]
        if counts[min(j, t * width // 2)] > limit:
            return None
    return counts[j]


def _check_delta_work(m, n, rs):
    """Refuse a sum of delta(m, n, r) over r in `rs` whose index sets, times
    n^3, are over the budget, before any term runs.  C(n, r) bounds the
    index sets of one term; they are counted only when those bounds are
    over the budget."""
    limit = _DELTA_WORK // n**3
    bound = 0
    for r in rs:
        bound += comb(n, r)
        if bound > limit:
            break
    else:
        return
    for r in rs:
        count = _index_set_count(n, n - r, m, limit)
        if count is None:
            raise DomainError(
                f"delta(m={m}, n={n}) needs over {_DELTA_WORK // n**3} index "
                f"sets at O(n^3) each, past its work budget"
            )
        limit -= count


def phi(n, d):
    """ML-degree of a generic d-dimensional linear concentration model on
    symmetric n x n matrices: the integral of L_1^(C(n+1,2)-d) L_{n-1}^(d-1).

    For d < C(n+1,2) this is phi_c(n, 1, d).  The single boundary column
    d = C(n+1,2) has no L_1 factor left to expand, and is evaluated through
    the duality phi(n, C(n+1,2)) = phi(n, 1) instead.  `_reduce` on the
    monomial above is the test oracle.
    """
    top = binomial(n + 1, 2)
    if n < 2:
        raise DomainError("phi needs n >= 2")
    if not 1 <= d <= top:
        raise DomainError(f"d={d} out of range 1..{top}")
    return phi_c(n, 1, 1 if d == top else d)


phi_from_delta = phi


def delta(m, n, r):
    """Algebraic degree of semidefinite programming: the integral of
    S_r L_1^(C(n+1,2)-m-1) L_{n-1}^(m-1).

    Computed by the Nie-Ranestad-Sturmfels formula: the sum of
    psi_I psi_{[n]-I} over the I in [n] with |I| = n - r and sum(I) = m.
    `_reduce` on the monomial above is the test oracle.
    """
    top = binomial(n + 1, 2)
    if n < 2:
        raise DomainError("delta needs n >= 2")
    if not 0 < m < top:
        raise DomainError(f"m={m} out of range 1..{top - 1}")
    if not 0 < r < n:
        raise DomainError(f"r={r} out of range 1..{n - 1}")
    _check_delta_work(m, n, (r,))
    total = 0
    for index in _subsets(1, n, n - r, m):
        rest = tuple(j for j in range(1, n + 1) if j not in index)
        total += _psi(index) * _psi(rest)
    return total


def pataki_nonzero(m, n, r):
    """Support window for delta: nonzero exactly when
    C(n-r+1,2) <= m <= C(n+1,2) - C(r+1,2)."""
    top = binomial(n + 1, 2)
    if n < 2 or not 0 < m < top or not 0 < r < n:
        raise DomainError("parameter out of range")
    return binomial(n - r + 1, 2) <= m <= top - binomial(r + 1, 2)


def phi_c(n, c, d):
    """Integral of L_c L_1^(C(n+1,2)-d-1) L_{n-1}^(d-1); equals c * phi(n, d)
    whenever C(n-c+2,2) > d.

    The inverse of the (n-1) x (n-1) Cartan matrix writes L_c as
    (1/n) * sum of min(c, r)(n - max(c, r)) S_r over r = 1..n-1, and the
    integral of S_r against the rest of the monomial is delta(d, n, r).
    `_reduce` on the monomial above is the test oracle.
    """
    top = binomial(n + 1, 2)
    if n < 2 or not 1 <= c <= n - 1:
        raise DomainError("c out of range")
    if not 1 <= d < top:
        raise DomainError(f"d={d} out of range 1..{top - 1}")
    denominator, expansion = _mixed_basis_expansion(n, c, frozenset(range(1, n)))
    _check_delta_work(d, n, [r for _, r in expansion])
    total = sum(coeff * delta(d, n, r) for (_, r), coeff in expansion.items())
    value, rest = divmod(total, denominator)
    if rest:
        raise RuntimeError(f"non-integer phi_c {total}/{denominator}")
    return value


def phi_polynomial(d):
    """The function n -> phi(n, d) as an exact polynomial of degree d - 1.

    Samples d consecutive admissible n starting from the smallest one,
    interpolates, and double-checks the result against one further
    evaluation before returning it.
    """
    if d < 1:
        raise DomainError("d must be positive")
    n0 = 2
    while binomial(n0 + 1, 2) < d:
        n0 += 1
    return _sampled_polynomial(lambda n: phi(n, d), n0, d)


def delta_polynomial(m, s):
    """The function n -> delta(m, n, n-s) as an exact polynomial of degree
    at most m, checked to vanish at n = 0 and at one extra sample point."""
    if m < 1 or s < 1:
        raise DomainError("m and s must be positive")
    n0 = max(2, s + 1)
    while binomial(n0 + 1, 2) <= m:
        n0 += 1
    poly = _sampled_polynomial(lambda n: delta(m, n, n - s), n0, m + 1)
    if poly(0) != 0:
        raise DomainError("polynomiality check failed")
    return poly


def _sampled_polynomial(value, n0, count):
    """The polynomial through `value` at the `count` consecutive n from n0,
    checked against `value` at the next n; every value is taken first."""
    ns = range(n0, n0 + count + 1)
    values = [value(n) for n in ns]
    poly = interpolate(list(zip(ns, values[:-1])))
    if poly(ns[-1]) != values[-1]:
        raise DomainError("polynomiality check failed")
    return poly


def hypersurface_characteristic_number(d, n, b):
    """Count of smooth degree-d hypersurfaces in projective n-space through
    the complementary number of general points and tangent to b general
    hyperplanes: (n (d-1)^(n-1))^b, valid for d = 5 or d >= 7 and
    b < n(d-2) + 3."""
    if n < 1 or not (d == 5 or d >= 7) or not 0 <= b < n * (d - 2) + 3:
        raise DomainError("outside theorem hypotheses")
    return (n * (d - 1) ** (n - 1)) ** b
