"""Affine cell data for the space of complete quadrics.

A generic one-parameter subgroup of the diagonal torus decomposes CQ_n
into affine cells indexed by 2-permutations: ordered partitions of
{1..n} into blocks of size one or two.  The dimension of a cell is the
weight of its 2-permutation, and each cell is parametrized by a
unitriangular matrix X and a symmetric monomial matrix Y with some
entries forced to zero.  So every entry of X, Y and Y's companion is 0, 1,
one variable or a product of distinct variables, and `CellParametrization`
stores it as a plain monomial: None for 0, else the sorted tuple of its
variable names, () for 1.  `format_entry` writes an entry as `0`, `1`,
`x12` or `y1*y2`.

Which route answers: `chow_group_dimensions` runs a subset DP over the
blocks and builds no 2-permutation, so n = 10 takes well under a second,
and it refuses n > 16, where it would run for half a minute or more;
`enumerate_two_permutations` and `weight` list the cells one by one (for
`cq cells enumerate` and `cq cells weight`) and are its oracle in the
tests; the listing refuses n > 8.

Points of CQ_3 are pairs (A, B) of symmetric matrices with A.B scalar;
`verify_cell_point` reconstructs the pair from cell coordinates and
checks that relation exactly, in `int` from end to end.  Each value is
read once as a numerator and a positive denominator.  An entry of X, Y
or the companion (which is written down in closed form) is then one
product of numerators over one product of denominators, and each of the
three matrices is scaled to int rows by the lcm of its own denominators.
adj(X)^t is the cofactor matrix of the scaled X, so both halves of the
pair are built in `int`, and scaling A and B by positive constants keeps
A.B = lambda I true or false.  Y, the companion and B are symmetric, so
every product is some M N^t, taken row by row.  No Fraction is
multiplied or added: `cell_matrices` divides once by the known
denominators, and `verify_generic_point` takes the determinant of the
int rows from `exactmath.determinant`.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import factorial, lcm, prod
from operator import mul

from .exactmath import DomainError, binomial, determinant


class TwoPermutation:
    """Ordered partition of {1..n} into blocks of size 1 or 2; block j is
    the preimage of j under the underlying map {1..n} -> {1..k}."""

    __slots__ = ("n", "blocks")

    def __init__(self, blocks):
        blocks = tuple([tuple(sorted(b)) for b in blocks])
        elements = []
        for b in blocks:
            if len(b) != 1 and (len(b) != 2 or b[0] == b[1]):
                raise DomainError(f"block {b} must have one or two elements")
            elements += b
        n = len(elements)
        if set(elements) != set(range(1, n + 1)):
            raise DomainError("blocks must partition 1..n")
        self.n = n
        self.blocks = blocks

    @classmethod
    def parse(cls, text):
        """Parse the bar syntax used in tables, e.g. "2|13".

        Each digit is one element, unless the text holds a comma or more
        than nine digits; then the elements of a block are separated by
        commas, e.g. "1|2|3|4|5|6|7|8|9|10,11".  Written in digits, every
        2-permutation with n <= 9 has at most nine digits and every one
        with n >= 10 has more, so the two readings never compete."""
        commas = "," in text or sum(map(str.isdigit, text)) > 9
        blocks = []
        for chunk in text.strip().split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise DomainError(f"empty block in {text!r}")
            elements = chunk.split(",") if commas else chunk
            if not all(map(str.isdecimal, elements)):
                raise DomainError(f"block {chunk!r} is not digits")
            blocks.append(tuple(map(int, elements)))
        return cls(blocks)

    def __str__(self):
        sep = "," if self.n >= 10 else ""
        return "|".join(sep.join(map(str, b)) for b in self.blocks)

    def __repr__(self):
        return f"TwoPermutation.parse({str(self)!r})"

    def __eq__(self, other):
        return isinstance(other, TwoPermutation) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def block_of(self, element):
        """1-based index of the block containing the element."""
        for j, b in enumerate(self.blocks, start=1):
            if element in b:
                return j
        raise DomainError(f"element {element} not covered")

    def block_index(self):
        """Map from each element to the 1-based index of its block."""
        return {e: j for j, b in enumerate(self.blocks, start=1) for e in b}


def enumerate_two_permutations(n):
    """All ordered partitions of {1..n} into blocks of size <= 2, in
    lexicographic order of their block sequences."""
    # n = 8 lists 385,560 cells and n = 9 would list 4,740,120, twelve
    # times as much memory; `chow_group_dimensions` counts them instead.
    if n > 8:
        raise DomainError(f"two-permutation enumeration needs n <= 8, got n = {n}")
    if n < 1:
        raise DomainError("need n >= 1")
    out = []

    # Each next block is (e,) and then every (e, f) with f > e, for e in
    # increasing order, so the block sequences come out in order.
    def extend(remaining, blocks):
        if not remaining:
            out.append(TwoPermutation(blocks))
            return
        for k, e in enumerate(remaining):
            rest = remaining[:k] + remaining[k + 1 :]
            extend(rest, blocks + [(e,)])
            for m in range(k, len(rest)):
                extend(rest[:m] + rest[m + 1 :], blocks + [(e, rest[m])])

    extend(tuple(range(1, n + 1)), [])
    return out


def weight(sigma):
    """Dimension of the cell: the number of non-inversions of the block map
    plus the number of ascents of block maxima."""
    n = sigma.n
    block_index = sigma.block_index()
    part1 = sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if block_index[i] <= block_index[j]
    )
    maxima = [max(b) for b in sigma.blocks]
    part2 = sum(1 for j in range(len(maxima) - 1) if maxima[j] < maxima[j + 1])
    return part1 + part2


def chow_group_dimensions(n):
    """Histogram of cell dimensions: entry m counts the cells of dimension
    m, which is the rank of the m-th Chow group.

    A subset DP over the blocks, added left to right: a new block B after
    the used elements U adds sum_{j in B} #{i in U : i < j} to the weight,
    plus 1 if |B| = 2, plus 1 if the previous block's maximum is below
    max B.  The state is (U as a bit mask, previous block's maximum), and
    each state carries its weight histogram as one integer, the generating
    polynomial evaluated at t = 2^bits (no count reaches 2^bits, so the
    coefficients never overlap)."""
    # n = 15 takes about 4 s and n = 16 about 10 s, and each further n costs
    # about 2.5 times more time and memory.
    if n > 16:
        raise DomainError(f"Chow-group histogram needs n <= 16, got n = {n}")
    if n < 2:
        raise DomainError("need n >= 2")
    # n! orders times 2^n ways to pair neighbours bound every count.
    bits = (factorial(n) << n).bit_length()
    full = (1 << n) - 1
    # states[U]: {previous block's maximum: packed histogram}; n + 1 stands
    # for "no block yet", which no maximum exceeds.  A block only adds
    # elements, so U grows and the masks are finished in increasing order.
    states = {0: {n + 1: 1}}
    for used in range(full):
        here = states.pop(used)
        free = [j for j in range(1, n + 1) if not used >> (j - 1) & 1]
        below = {j: (used & ((1 << (j - 1)) - 1)).bit_count() for j in free}
        blocks = [(1 << (j - 1), j, below[j]) for j in free]
        blocks += [(1 << (i - 1) | 1 << (j - 1), j, below[i] + below[j] + 1)
                   for i, j in combinations(free, 2)]
        for last, packed in here.items():
            for block, top, gain in blocks:
                after = states.setdefault(used | block, {})
                shifted = packed << (gain + (last < top)) * bits
                after[top] = after.get(top, 0) + shifted
    total = sum(states[full].values())
    low = (1 << bits) - 1
    return [total >> (m * bits) & low for m in range(binomial(n + 1, 2))]


# `one_parameter_exponents` checks its exponent chain, which pins the cell
# decomposition, for n up to this.
EXPONENT_CHAIN_N = 16


def one_parameter_exponents(n):
    """A concrete choice of torus exponents d_i = 4^i; the pairwise sums
    d_i + d_j (i <= j) must be strictly increasing in the block order
    (1,1) < (1,2) < (2,2) < (1,3) < ..., which pins the cell decomposition."""
    if not 1 <= n <= EXPONENT_CHAIN_N:
        raise DomainError(f"exponent chain checked only for n <= {EXPONENT_CHAIN_N}")
    d = [4**i for i in range(1, n + 1)]
    chain = [d[i - 1] + d[j - 1] for j in range(1, n + 1) for i in range(1, j + 1)]
    if any(x >= y for x, y in zip(chain, chain[1:])):
        raise RuntimeError("exponent chain violated")
    return tuple(d)


def _x_name(i, j, n):
    return f"x{i}{j}" if n <= 9 else f"x{i}_{j}"


def format_entry(entry):
    """A cell matrix entry as text: 0, 1, or its variables joined by '*'."""
    return "0" if entry is None else "*".join(entry) or "1"


class CellParametrization:
    """Symbolic coordinates of one cell.  Each entry of X, Y and the
    companion is None for 0, else the sorted tuple of its variable names,
    () for 1.

    X is lower unitriangular in the variables x_ij (i < j, entry at row j,
    column i), with x_ij = 0 exactly when the block of i comes after the
    block of j.  Y is symmetric with monomial entries in y_1..y_{k-1}
    (projectively normalized so the first block's entry is 1), with y_j = 0
    exactly when the maxima of blocks j and j+1 descend.

    The companion is the adjugate of Y with its common monomial and sign
    cleared: where Y carries y_1 ... y_{t-1}, the companion carries
    y_t ... y_{k-1}, so Y times the companion is y_1 ... y_{k-1} I.
    """

    __slots__ = (
        "sigma",
        "X",
        "Y",
        "companion",
        "free_x",
        "free_y",
        "forced_x",
        "forced_y",
        "free_variable_count",
    )

    def __init__(self, sigma):
        n = sigma.n
        k = len(sigma.blocks)

        self.sigma = sigma
        block_index = sigma.block_index()

        self.forced_x = tuple(
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if block_index[i] > block_index[j]
        )
        maxima = [max(b) for b in sigma.blocks]
        self.forced_y = tuple(
            j for j in range(1, k) if maxima[j - 1] > maxima[j]
        )

        forced_x = set(self.forced_x)
        x_rows = []
        free_x = []
        for r in range(1, n + 1):
            row = []
            for c in range(1, n + 1):
                if r == c:
                    row.append(())
                elif c < r and (c, r) not in forced_x:
                    name = _x_name(c, r, n)
                    free_x.append(name)
                    row.append((name,))
                else:
                    row.append(None)
            x_rows.append(tuple(row))
        self.X = tuple(x_rows)
        self.free_x = tuple(free_x)

        self.Y = _block_monomial_matrix(sigma, lambda t: range(1, t), self.forced_y)
        self.companion = _block_monomial_matrix(
            sigma, lambda t: range(t, k), self.forced_y
        )
        self.free_y = tuple(
            f"y{j}" for j in range(1, k) if j not in self.forced_y
        )
        self.free_variable_count = len(self.free_x) + len(self.free_y)

    def free_variables(self):
        return self.free_x + self.free_y


def _block_monomial_matrix(sigma, span, forced_y):
    """Symmetric n x n matrix that carries the product of y_u over u in
    span(t) at the positions of the t-th block: its diagonal entry for a
    singleton, the two off-diagonal entries for a pair.  An entry whose
    product contains a forced y_u is 0."""
    n = sigma.n
    entries = {}
    for t, block in enumerate(sigma.blocks, start=1):
        us = span(t)
        if not any(u in forced_y for u in us):
            mono = tuple(sorted(f"y{u}" for u in us))
            entries[(block[0], block[-1])] = entries[(block[-1], block[0])] = mono
    return tuple(
        tuple(entries.get((r, c)) for c in range(1, n + 1))
        for r in range(1, n + 1)
    )


@lru_cache(maxsize=1024)
def cell_parametrization(sigma):
    """The cell's `CellParametrization`, built once per 2-permutation and
    shared by every caller."""
    return CellParametrization(sigma)


def _integer_matrix(matrix, nums, dens):
    """A symbolic matrix at the values, given as numerator and denominator
    maps, as int rows scaled by the lcm of its entries' denominators, and
    that lcm.  Entries are monomials, so each is one product of numerators
    over one product of denominators."""
    num, den = nums.__getitem__, dens.__getitem__
    num_rows = [[0 if e is None else prod(map(num, e)) for e in row] for row in matrix]
    den_rows = [[1 if e is None else prod(map(den, e)) for e in row] for row in matrix]
    scale = lcm(*chain.from_iterable(den_rows))
    return [[v * (scale // d) for v, d in zip(num_row, den_row)]
            for num_row, den_row in zip(num_rows, den_rows)], scale


def _cofactors(m):
    """Cofactor matrix adj(m)^t of a 3 x 3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, f * g - d * i, d * h - e * g),
        (c * h - b * i, a * i - c * g, b * g - a * h),
        (b * f - c * e, c * d - a * f, a * e - b * d),
    )


def _checked_values(sigma, values):
    """The cell's parametrization and the assignment as two maps, from each
    variable to the numerator and to the (positive) denominator of its
    value, after checking that it gives every free variable a nonzero
    value.  A value that is not an int or a Fraction is read by Fraction."""
    param = cell_parametrization(sigma)
    expected = set(param.free_variables())
    if expected != set(values):
        raise DomainError(
            f"free variables are {sorted(expected)}, got {sorted(values)}"
        )
    nums, dens = {}, {}
    for name, v in values.items():
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        nums[name], dens[name] = v.numerator, v.denominator
    if 0 in nums.values():
        raise DomainError("assignments must be nonzero")
    return param, nums, dens


def _integer_pair(sigma, values):
    """The pair (A, B) of `cell_matrices` as int rows and their positive
    denominators: A = a / a_den and B = b / b_den.

    X, Y and the companion are each scaled by the lcm of their own
    denominators (sx, sy and sc), and adj(X)^t is taken as the cofactors
    of sx X, which are sx^2 adj(X)^t; every product after that is in
    `int`.  Y and the companion are symmetric, so X Y = X Y^t and every
    product here is some M N^t."""
    if sigma.n != 3:
        raise DomainError("companion matrix construction only specified for n=3")
    param, nums, dens = _checked_values(sigma, values)
    x, sx = _integer_matrix(param.X, nums, dens)
    y, sy = _integer_matrix(param.Y, nums, dens)
    companion, sc = _integer_matrix(param.companion, nums, dens)
    r = _cofactors(x)
    a = _mul_transpose(_mul_transpose(x, y), x)
    b = _mul_transpose(_mul_transpose(r, companion), r)
    return a, sx * sx * sy, b, sx**4 * sc


def cell_matrices(sigma, values):
    """Numeric pair (A, B) on the cell of a 2-permutation of {1,2,3}.

    A = X Y X^t and B = adj(X)^t Ytilde adj(X), where Ytilde is the cleared
    adjugate companion of Y; the pair construction is only pinned down for
    n = 3.  Both are built in integers and divided by their denominators
    once."""
    a, a_den, b, b_den = _integer_pair(sigma, values)
    return (
        tuple(tuple(Fraction(v, a_den) for v in row) for row in a),
        tuple(tuple(Fraction(v, b_den) for v in row) for row in b),
    )


def _mul_transpose(a, b):
    """a b^t for square matrices given as rows: entry (r, c) is row r of a
    times row c of b."""
    return [[sum(map(mul, row, other)) for other in b] for row in a]


def verify_cell_point(sigma, values):
    """Check that the reconstructed pair (A, B) satisfies A.B = lambda I
    for some scalar lambda (possibly zero).  The check runs on the integer
    matrices a and b, positive integer multiples of A and B; b is
    symmetric, so a.b = a b^t."""
    a, _, b, _ = _integer_pair(sigma, values)
    product = _mul_transpose(a, b)
    lam = product[0][0]
    return product == [[lam, 0, 0], [0, lam, 0], [0, 0, lam]]


def verify_generic_point(sigma, values):
    """Weaker membership check available for any n: when the reconstructed
    primary matrix A is invertible, the full tuple of its compounds lies on
    the inversion graph by construction.  Returns True exactly in that case;
    False is inconclusive (the point may sit in the boundary)."""
    param, nums, dens = _checked_values(sigma, values)
    x, _ = _integer_matrix(param.X, nums, dens)
    y, _ = _integer_matrix(param.Y, nums, dens)
    return determinant(_mul_transpose(_mul_transpose(x, y), x)) != 0
