"""Schubert calculus on the complete flag variety Fl_n.

Permutations are tuples in one-line notation, w(i) = w[i-1].  Classes are
finite integer combinations of permutations, graded by inversion number.

Top-degree integrals of products of the divisors D_1..D_{n-1} (D_k the
class of the transposition s_k) have two routes:

* by default the Weyl volume polynomial: the integral of prod D_k^{e_k}
  is (prod e_k!) times the coefficient of t^e in
  prod_{i<j} (t_i + ... + t_{j-1}) / (j - i), the leading term of the Weyl
  dimension formula.  The n-1 factors t_i take one from every exponent, so
  a 0 exponent gives 0 at once, in `_weyl_integral` itself for every
  caller.  The other coefficients are read from a volume table, built
  once per memo lifetime and kept in `_integral_memo` under its variable
  count: every coefficient of the product of the interval factors on at
  most `TABLE_VARIABLES` = 7 variables (Fl_8), keyed by the exponent
  vector packed as an integer.  Up to Fl_8 an integral is one lookup; on a
  larger Fl_n the first n - 8 variables are dealt out by a forward count
  and the last seven read the table (see `_dealt_count`).  The tables on
  1..7 variables hold 1, 2, 8, 55, 567, 7,958 and 142,396 coefficients.
  The one on 7 takes about 0.2 s to build (Python 3.11, one core of a
  shared 2-CPU host) and keeps 14 MB, with a tracemalloc peak of 25 MB
  and a process peak of about 43 MB, so a lone cold flag integral on Fl_8
  or larger pays that once, against about 10 ms and 17 MB with the table
  on six variables.  In exchange a CQ_8 product, whose leaves are Fl_8
  integrals, reads them all from it.  On 8 variables the table would hold 3,104,160
  coefficients and take about 20 s and 800 MB to build;
* with an explicit multiplication `order`, Monk's rule applied factor by
  factor, extracting the coefficient of the longest permutation.  This is
  the independent oracle the tests compare the default against.

Both normalize the class of a point to 1, and both return exact ints.

All functions are pure; the only shared state is the memo tables, which
are safe under CPython's atomic dict operations and deterministic
regardless of call interleaving (two callers that build the same volume
table build equal ones).
"""

from math import factorial, prod

from .exactmath import DomainError, binomial, exact_quotient, integer_exponents

# variable count -> volume table of the interval factors on that many variables
_integral_memo = {}

# largest variable count a volume table is built for
TABLE_VARIABLES = 7

# largest n of an Fl_n that `flag_integral` computes
FLAG_REACH = 12

# k! for every exponent up to C(12,2), the dimension of Fl_12, and
# prod_{k<n} k! for n <= 12: the factorials of every flag integral.
_FACTORIALS = tuple(factorial(k) for k in range(binomial(FLAG_REACH, 2) + 1))
_FLAG_DENOMINATORS = tuple(prod(factorial(k) for k in range(1, n))
                           for n in range(FLAG_REACH + 1))


def validate_permutation(w):
    w = tuple(w)
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise DomainError(f"not a permutation of 1..{n}: {w!r}")
    return w


def inversion_number(w):
    """Number of pairs i < j with w(i) > w(j); the codimension of the
    corresponding closed cell."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def longest_permutation(n):
    return tuple(range(n, 0, -1))


class SchubertCombination:
    """Integer combination of permutations of a fixed ambient size n."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        for w, c in (terms or {}).items():
            w = tuple(w)
            if len(w) != n:
                raise DomainError("mixed ambient sizes in combination")
            if c:
                self.terms[w] = self.terms.get(w, 0) + c
        self.terms = {w: c for w, c in self.terms.items() if c}

    @classmethod
    def identity(cls, n):
        return cls(n, {tuple(range(1, n + 1)): 1})

    def coefficient(self, w):
        return self.terms.get(tuple(w), 0)

    def is_homogeneous(self):
        degrees = {inversion_number(w) for w in self.terms}
        return len(degrees) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, SchubertCombination)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"SchubertCombination({self.n}, {self.terms!r})"


def monk_multiply(i, w):
    """Product of the codimension-one class for the transposition s_i with
    the class of w, as a combination of covers.

    A pair of positions p <= i < q contributes when w(p) < w(q) and no
    position strictly between p and q carries a value strictly between
    w(p) and w(q); the contribution swaps the values at p and q.
    """
    w = validate_permutation(w)
    n = len(w)
    if not 1 <= i <= n - 1:
        raise DomainError(f"transposition index {i} out of range for n={n}")
    base_inv = inversion_number(w)
    out = {}
    for p in range(1, i + 1):
        for q in range(i + 1, n + 1):
            if w[p - 1] >= w[q - 1]:
                continue
            lo, hi = w[p - 1], w[q - 1]
            if any(lo < w[k - 1] < hi for k in range(p + 1, q)):
                continue
            v = list(w)
            v[p - 1], v[q - 1] = v[q - 1], v[p - 1]
            v = tuple(v)
            assert inversion_number(v) == base_inv + 1
            out[v] = out.get(v, 0) + 1
    return SchubertCombination(n, out)


def monk_multiply_bruhat(i, w):
    """Independent route to the same product: keep exactly the transpositions
    t_{pq} with p <= i < q that raise the inversion number by one."""
    w = validate_permutation(w)
    n = len(w)
    if not 1 <= i <= n - 1:
        raise DomainError(f"transposition index {i} out of range for n={n}")
    base_inv = inversion_number(w)
    out = {}
    for p in range(1, i + 1):
        for q in range(i + 1, n + 1):
            v = list(w)
            v[p - 1], v[q - 1] = v[q - 1], v[p - 1]
            v = tuple(v)
            if inversion_number(v) == base_inv + 1:
                out[v] = out.get(v, 0) + 1
    return SchubertCombination(n, out)


_cover_cache = {}


def _covers(i, w):
    """Cached cover list for the Monk step (coefficients are always 1)."""
    key = (i, w)
    cached = _cover_cache.get(key)
    if cached is None:
        cached = tuple(monk_multiply(i, w).terms)
        _cover_cache[key] = cached
    return cached


def monk_multiply_combination(i, comb):
    """Extend the Monk step linearly to a whole combination."""
    out = {}
    for w, c in comb.terms.items():
        for v in _covers(i, w):
            out[v] = out.get(v, 0) + c
    return SchubertCombination(comb.n, out)


def clear_caches():
    """Drop the volume tables and the Monk cover cache; only useful for
    timing measurements."""
    _integral_memo.clear()
    _cover_cache.clear()


def flag_integral(n, b, order=None):
    """Top intersection number of hyperplane-type generators on Fl_n.

    b lists the exponents of the generators attached to slots 1..n-1; slot s
    multiplies by the class of the transposition s_{n-s}.  The exponents must
    sum to C(n,2), the dimension of Fl_n.  By default the value comes from
    the Weyl volume polynomial through the memoized volume table; an
    explicit `order` (a sequence of slots, each slot s repeated b_s times)
    computes it with Monk's rule in that order instead, which the tests use
    as the oracle.  Both routes refuse n > `FLAG_REACH` = 12 before any
    work: balanced exponents take about 2.6 s and 47 MB at n = 12 and 30 s
    and 270 MB at n = 13 (Python 3.11, shared 2-CPU host).
    """
    b = integer_exponents(b)
    if n < 2:
        raise DomainError(f"Fl_n needs n >= 2, got n={n}")
    if len(b) != n - 1:
        raise DomainError(f"need {n-1} exponents for Fl_{n}, got {b!r}")
    if min(b) < 0:
        raise DomainError("negative exponent")
    if sum(b) != n * (n - 1) // 2:
        raise DomainError("degree mismatch")
    if n > FLAG_REACH:
        raise DomainError(f"flag integral needs n <= {FLAG_REACH}, got n = {n}")
    if order is not None:
        return _monk_integral(n, b, order)
    return _weyl_integral(n, b)


def _volume_table(size):
    """Every coefficient of prod (t_lo + ... + t_hi) over the intervals
    lo < hi of 0..size-1, as {packed exponent vector: coefficient}.

    An exponent vector e packs to sum e_m * base^m with base C(size,2) + 1;
    no exponent exceeds the degree C(size,2), so no two vectors share a key.
    Built once per memo lifetime for each size <= TABLE_VARIABLES.
    """
    table = _integral_memo.get(size)
    if table is None:
        base = binomial(size, 2) + 1
        table = {0: 1}
        for lo in range(size - 1):
            for hi in range(lo + 1, size):
                # the first term shifts every key to a distinct new one
                first = base**lo
                out = {key + first: ways for key, ways in table.items()}
                get = out.get
                for m in range(lo + 1, hi + 1):
                    step = base**m
                    for key, ways in table.items():
                        key += step
                        out[key] = get(key, 0) + ways
                table = out
        _integral_memo[size] = table
    return table


def _weyl_integral(n, b):
    """(prod b_s!) [t^e] prod_{i<j} (t_i+...+t_{j-1}) / prod_{i<j} (j-i),
    where slot s carries t_{n-s}, so e is b reversed.

    The n-1 single-variable factors t_i take one from every exponent,
    leaving the exponents b_s - 1, so a zero exponent is 0 here, before any
    table is read or any row dealt; the key packing and `_dealt_count` take
    each b_s - 1 >= 0.  Up to Fl_8 the interval factors are those of the
    volume table on n-1 variables, so the coefficient is one lookup: the key
    packs the b_s - 1 straight from b, and since these sum to C(n-1,2), one
    less than the table's base, every digit is below the base and no two
    exponent vectors share a key; a key the table lacks has coefficient 0.
    A larger Fl_n, up to `FLAG_REACH`, takes `_dealt_count`.  Either way the
    factorials come from `_FACTORIALS` and `_FLAG_DENOMINATORS`.
    """
    if 0 in b:
        return 0
    size = n - 1
    if size <= TABLE_VARIABLES:
        base = size * (size - 1) // 2 + 1
        key = 0
        for x in b:
            key = key * base + x - 1
        numerator = _volume_table(size).get(key, 0)
    else:
        numerator = _dealt_count(n, b)
    if not numerator:
        return 0
    for x in b:
        numerator *= _FACTORIALS[x]
    return exact_quotient(numerator, _FLAG_DENOMINATORS[n], "flag integral")


def _dealt_count(n, b):
    """[t^e] of the interval factors on Fl_n with n - 1 > TABLE_VARIABLES,
    for the exponents b_s - 1 that `_weyl_integral` leaves.

    The interval factors whose first variable lies among the last
    `TABLE_VARIABLES` are the interval factors on those variables alone,
    so their share of the coefficient is a lookup in that volume table.
    The factors of the first rows (interval factors t_lo+...+t_hi with lo
    below n - 1 - TABLE_VARIABLES) are dealt forward first, by counting
    how many ways each can hand its degree to one of its variables; a
    state is the tuple of exponents still needed, and `cover[m]` counts
    the factors not yet dealt that contain t_m, so a variable needing that
    many must take the current factor.  That keeps every state within its
    cover, so once those rows are dealt the first variables need nothing
    and each state's tail is a table key.
    """
    need = tuple(x - 1 for x in reversed(b))
    size = n - 1
    tail = TABLE_VARIABLES
    head = size - tail
    # intervals [lo, hi] of 0..size-1 containing m, less the singleton
    cover = [(m + 1) * (size - m) - 1 for m in range(size)]
    if any(x > c for x, c in zip(need, cover)):
        return 0
    states = {need: 1}
    for lo in range(head):
        for hi in range(lo + 1, size):
            span = range(lo, hi + 1)
            out = {}
            for state, ways in states.items():
                tight = [m for m in span if state[m] == cover[m]]
                if len(tight) > 1:
                    continue
                for m in tight or [m for m in span if state[m]]:
                    nxt = state[:m] + (state[m] - 1,) + state[m + 1 :]
                    out[nxt] = out.get(nxt, 0) + ways
            for m in span:
                cover[m] -= 1
            states = out
    table = _volume_table(tail)
    base = binomial(tail, 2) + 1
    count = 0
    for state, ways in states.items():
        key = 0
        for x in reversed(state[head:]):
            key = key * base + x
        count += ways * table.get(key, 0)
    return count


def _monk_integral(n, b, order):
    schedule = list(order)
    counts = [0] * (n - 1)
    for slot in schedule:
        if not 1 <= slot <= n - 1:
            raise DomainError(f"slot {slot} out of range for n={n}")
        counts[slot - 1] += 1
    if tuple(counts) != b:
        raise DomainError("order does not match exponents")

    comb = SchubertCombination.identity(n)
    for slot in schedule:
        comb = monk_multiply_combination(n - slot, comb)
        if not comb.terms:
            return 0
    return comb.coefficient(longest_permutation(n))
