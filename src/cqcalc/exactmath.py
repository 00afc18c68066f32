"""Exact arithmetic: rationals, univariate polynomials, interpolation,
linear algebra, small combinatorics.

There is no multivariate polynomial type: the only symbolic entries in
the package are the cell coordinates of `cells`, each 0, 1 or a product
of distinct variables, which `cells` keeps as a tuple of variable names.
`UnivariatePolynomial` is a value, not a ring: it evaluates, compares,
divides by a linear factor and prints, and has no arithmetic operators.

Everything here is exact; no floating point is used anywhere.  Scalars are
`fractions.Fraction` (arbitrary precision, always in lowest terms with a
positive denominator).  All values are immutable after construction and
every operation is a pure function, so the module is safe to use from any
number of threads.

Linear algebra has one elimination kernel, `_echelon`: fraction-free
(Bareiss) row reduction on integer rows.  `matrix_rank`, `determinant` and
`solve_linear_system` all derive from it; rows with rational entries are
first scaled to integers, and all-`int` rows are used as they are.
`interpolate` is `solve_linear_system` on the Vandermonde system of its
points.

The integer invariants of the engines (flag integrals, CQ_n products,
phi_c, localization sums) each end in one division of an integer sum that
must be exact, and `exact_quotient` is the one check on it: it returns
the quotient, or raises RuntimeError naming the value when a remainder is
left.

Equivariant localization (Atiyah-Bott, Topology 23, 1984) has one kernel,
`localization_sum`: the exact integer sum of f(p) / e(p) over the fixed
points p of a torus action, from the integer values of the integrand f
and of the Euler class e of the tangent space at a chosen weight.
"""

import math
import operator
from fractions import Fraction

class DomainError(ValueError):
    """Raised when an operation is called outside its mathematical domain."""


class FrozenRecord:
    """Immutable value whose fields are its `__slots__`, in order.

    Equality, hash, repr (`Name(field=value, ...)`) and pickling go by the
    field values; assigning or deleting a field raises AttributeError.  This
    is what a frozen dataclass provides, without importing `dataclasses`
    (and with it `inspect`) into every process.  A subclass validates its
    arguments in `__init__` and then passes every field to
    `FrozenRecord.__init__`, in slot order.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _integer_line(line, source):
    """The whitespace-separated integers of one line of an input file, or
    a DomainError that names the line."""
    try:
        return [int(t) for t in line.split()]
    except ValueError:
        raise DomainError(f"{source} line {line.strip()!r} is not all integers")


def integer_exponents(values):
    """The exponents `values` as a tuple of ints, or a DomainError if one is
    not an integer.  Anything with `__index__` counts as an integer; 3.0
    and Fraction(3) do not."""
    values = map(operator.index, values)
    try:
        return tuple(values)
    except TypeError:
        raise DomainError("non-integer exponent") from None


def binomial(n, k):
    """Binomial coefficient C(n, k) with C(n, k) = 0 for k < 0, k > n or n < 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def is_log_concave(seq):
    """True iff seq[i]^2 >= seq[i-1]*seq[i+1] everywhere and no zero sits
    between two nonzero entries."""
    if not seq:
        raise DomainError("empty sequence")
    nonzero = [i for i, v in enumerate(seq) if v != 0]
    if nonzero:
        lo, hi = nonzero[0], nonzero[-1]
        if any(seq[i] == 0 for i in range(lo, hi + 1)):
            return False
    return all(
        seq[i] * seq[i] >= seq[i - 1] * seq[i + 1] for i in range(1, len(seq) - 1)
    )


def localization_sum(terms):
    """Sum of f / e over (f, e) pairs of ints, which must be an integer.

    Each term is scaled to the lcm of the |e|, the scaled numerators are
    added, and the total is divided once.  A zero e is a DomainError (the
    weight is not generic); a remainder means the data were not a
    localization and raises RuntimeError."""
    terms = list(terms)
    common = math.lcm(*(e for _, e in terms))
    if common == 0:
        raise DomainError("zero weight at a fixed point")
    total = sum(f * (common // e) for f, e in terms)
    return exact_quotient(total, common, "localization sum")


def exact_quotient(total, divisor, what):
    """total // divisor for ints that must divide exactly; a remainder means
    a value that should be an integer is not, and raises RuntimeError
    naming `what`."""
    value, rest = divmod(total, divisor)
    if rest:
        raise RuntimeError(f"non-integer {what} {total}/{divisor}")
    return value


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class UnivariatePolynomial:
    """Dense polynomial in one variable over the exact rationals.

    Coefficients are stored by ascending degree; the leading coefficient is
    nonzero unless the polynomial is zero (empty coefficient list).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [_frac(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self):
        return not self.coefficients

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, UnivariatePolynomial):
            return self.coefficients == other.coefficients
        if isinstance(other, (int, Fraction)):
            return self == UnivariatePolynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coefficients)

    def divide_by_linear(self, root):
        """Exact division by (x - root); returns (quotient, remainder scalar)."""
        root = _frac(root)
        q = []
        carry = Fraction(0)
        for c in reversed(self.coefficients):
            carry = c + carry * root
            q.append(carry)
        if not q:
            return UnivariatePolynomial(), Fraction(0)
        remainder = q.pop()
        return UnivariatePolynomial(list(reversed(q))), remainder

    def __repr__(self):
        return f"UnivariatePolynomial({list(self.coefficients)!r})"

    def to_string(self, var="n"):
        if self.is_zero():
            return "0"
        parts = []
        for d in range(self.degree(), -1, -1):
            c = self.coefficients[d]
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                power = var if d == 1 else f"{var}^{d}"
                if c == 1:
                    parts.append(power)
                elif c == -1:
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{c}*{power}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __str__(self):
        return self.to_string()


def interpolate(points):
    """The polynomial of degree below len(points) through (x, y) pairs with
    distinct integer x: the solution c of the Vandermonde system
    sum_k c_k x^k = y."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DomainError("duplicate abscissa")
    matrix = [[x**k for k in range(len(xs))] for x in xs]
    return UnivariatePolynomial(solve_linear_system(matrix, [y for _, y in points]))


def _integer_rows(rows):
    """A new list of integer rows and the product of the factors used.

    A row that is all `int` is kept as it is; any other row is multiplied
    by the lcm of its entries' denominators.  This keeps the row space (so
    rank and the solution of a system), and multiplies the determinant by
    the returned product."""
    out, scale = [], 1
    for row in rows:
        if all(map(int.__instancecheck__, row)):
            out.append(row)
            continue
        row = [_frac(x) for x in row]
        factor = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (factor // x.denominator) for x in row])
        scale *= factor
    return out, scale


def _echelon(rows, ncols):
    """Fraction-free (Bareiss) row echelon form of a list of integer rows.

    A column with no nonzero entry left below the pivot rows is skipped.
    The list is reordered and its rows replaced (no row is changed in
    place).  Returns the pivot columns and the sign of the row swaps: row k
    is then zero before its pivot at column pivots[k].  Every division is
    exact, since each entry is a minor of the input (Bareiss, Math. Comp.
    22, 1968); for a square matrix of full rank the last pivot times the
    sign is the determinant."""
    pivots, sign, previous = [], 1, 1
    nrows = len(rows)
    for col in range(ncols):
        k = len(pivots)
        pivot = next((r for r in range(k, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        lead = top[col]
        for r in range(k + 1, nrows):
            row = rows[r]
            below = row[col]
            rows[r] = [0] * (col + 1) + [
                (row[j] * lead - below * top[j]) // previous
                for j in range(col + 1, ncols)
            ]
        previous = lead
        pivots.append(col)
    return pivots, sign


def determinant(matrix):
    """Determinant of a square matrix of ints or rationals; an `int` when
    every entry is one."""
    n = len(matrix)
    if n == 0:
        return 1
    work, scale = _integer_rows(matrix)
    pivots, sign = _echelon(work, n)
    if len(pivots) < n:
        return 0
    det = sign * work[-1][-1]
    return det if scale == 1 else Fraction(det, scale)


def matrix_rank(rows):
    """Rank over the rationals: the number of pivots in row echelon form."""
    work, _ = _integer_rows(rows)
    return len(_echelon(work, len(work[0]) if work else 0)[0])


def solve_linear_system(matrix, rhs):
    """Solve M x = rhs exactly (square, nonsingular M), as a list of Fractions.

    Eliminates [M | rhs] and substitutes back without fractions: with d the
    last pivot (plus or minus det M), every d * x_i is an integer."""
    n = len(matrix)
    work, _ = _integer_rows([[*row[:n], b] for row, b in zip(matrix, rhs)])
    pivots, _ = _echelon(work, n + 1)
    if pivots != list(range(n)):
        raise DomainError("singular system")
    d = work[n - 1][n - 1] if n else 1
    scaled = [0] * n
    for i in range(n - 1, -1, -1):
        row = work[i]
        acc = d * row[n] - sum(row[j] * scaled[j] for j in range(i + 1, n))
        scaled[i] = acc // row[i]
    return [Fraction(y, d) for y in scaled]
