import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from cqcalc.cells import (
    TwoPermutation,
    cell_matrices,
    cell_parametrization,
    chow_group_dimensions,
    enumerate_two_permutations,
    format_entry,
    one_parameter_exponents,
    verify_cell_point,
    verify_generic_point,
    weight,
)
from cqcalc.exactmath import DomainError
from cqcalc.quadrics import cq_dimension

TABLE_ROWS = [
    ("1|2|3", 5),
    ("1|3|2", 3),
    ("2|1|3", 3),
    ("2|3|1", 2),
    ("3|1|2", 2),
    ("3|2|1", 0),
    ("12|3", 4),
    ("13|2", 2),
    ("23|1", 1),
    ("1|23", 4),
    ("2|13", 3),
    ("3|12", 1),
]


def test_parse_and_format():
    sigma = TwoPermutation.parse("2|13")
    assert sigma.blocks == ((2,), (1, 3))
    assert str(sigma) == "2|13"
    assert sigma.block_of(1) == 2 and sigma.block_of(2) == 1
    assert sigma.block_index() == {2: 1, 1: 2, 3: 2}
    assert TwoPermutation([[3, 1], {2}]).blocks == ((1, 3), (2,))
    with pytest.raises(DomainError):
        TwoPermutation.parse("123")
    with pytest.raises(DomainError):
        TwoPermutation.parse("1|1")


def _random_two_permutation(rng, n):
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    blocks = []
    while elements:
        size = min(rng.choice((1, 2)), len(elements))
        blocks.append(elements[:size])
        del elements[:size]
    return TwoPermutation(blocks)


def test_parse_and_format_past_nine():
    sigma = TwoPermutation.parse("1|2|3|4|5|6|7|8|9|10,11")
    assert sigma.blocks[-1] == (10, 11) and sigma.n == 11
    assert str(sigma) == "1|2|3|4|5|6|7|8|9|10,11"
    # more than nine digits: every block is comma-separated, "10" one element
    assert TwoPermutation.parse("10|9|8|7|6|5|4|3|2|1").blocks[0] == (10,)
    # a comma switches a short text to commas too
    assert TwoPermutation.parse("2|1,3") == TwoPermutation.parse("2|13")
    # int() spellings that are not plain digits are refused
    for text in ("1|2|3|4|5|6|7|8|9|1_0,11", "1|2|3|4|5|6|7|8|9|10,+11", "2|1, 3", "2|1,,3"):
        with pytest.raises(DomainError):
            TwoPermutation.parse(text)
    rng = random.Random(1019)
    for n in (10, 11, 12):
        for _ in range(50):
            sigma = _random_two_permutation(rng, n)
            text = str(sigma)
            assert TwoPermutation.parse(text) == sigma, text
            assert sum(map(str.isdigit, text)) > 9
    # n <= 9 prints without commas, as before
    assert all("," not in str(s) for s in enumerate_two_permutations(5))


def test_enumeration_counts():
    assert len(enumerate_two_permutations(1)) == 1
    assert len(enumerate_two_permutations(2)) == 3
    assert len(enumerate_two_permutations(3)) == 12
    # ordered partitions with block sizes <= 2 satisfy
    # a(n) = n a(n-1) + C(n,2) a(n-2)
    counts = {0: 1, 1: 1}
    for n in range(2, 6):
        counts[n] = n * counts[n - 1] + n * (n - 1) // 2 * counts[n - 2]
    for n in range(1, 6):
        assert len(enumerate_two_permutations(n)) == counts[n]


def test_enumeration_is_sorted_and_valid():
    sigmas = enumerate_two_permutations(2)
    assert [str(s) for s in sigmas] == ["1|2", "12", "2|1"]
    sigmas3 = enumerate_two_permutations(3)
    assert len(set(map(str, sigmas3))) == 12
    for n in range(1, 7):
        blocks = [s.blocks for s in enumerate_two_permutations(n)]
        assert blocks == sorted(blocks)


# First 16 hex digits of the sha256 of each listing, one str(sigma) a line.
ENUMERATION_DIGESTS = {
    1: "6b86b273ff34fce1",
    2: "f14e866c0fde0c27",
    3: "1b91cff2d10e6e8c",
    4: "e2768f36e8130350",
    5: "6af58875af6b00f2",
    6: "adf086e90e018722",
    7: "b2635858d86859e8",
}


def test_enumerated_cells_pass_the_constructor():
    for n, expected in ENUMERATION_DIGESTS.items():
        sigmas = enumerate_two_permutations(n)
        assert all(TwoPermutation(s.blocks) == s for s in sigmas), n
        listing = "\n".join(map(str, sigmas)).encode()
        assert hashlib.sha256(listing).hexdigest()[:16] == expected, n


@pytest.mark.parametrize("blocks, message", [
    ([(1, 1)], r"block \(1, 1\) must have one or two elements"),
    ([(1, 2, 3)], r"block \(1, 2, 3\) must have one or two elements"),
    ([(2,), ()], r"block \(\) must have one or two elements"),
    ([(1,), (3,)], "blocks must partition 1..n"),
    ([(1, 2), (2,)], "blocks must partition 1..n"),
])
def test_two_permutation_checks(blocks, message):
    with pytest.raises(DomainError, match=message):
        TwoPermutation(blocks)


def test_weights_match_table():
    for text, expected in TABLE_ROWS:
        assert weight(TwoPermutation.parse(text)) == expected, text


def test_chow_group_dimensions():
    assert chow_group_dimensions(2) == [1, 1, 1]
    assert chow_group_dimensions(3) == [1, 2, 3, 3, 2, 1]
    for n in (2, 3, 4):
        hist = chow_group_dimensions(n)
        assert len(hist) == cq_dimension(n) + 1
        assert sum(hist) == len(enumerate_two_permutations(n))
        assert hist == hist[::-1]


def test_chow_dp_matches_enumeration():
    # the subset DP against the weights of the enumerated 2-permutations
    for n in range(2, 8):
        hist = [0] * (cq_dimension(n) + 1)
        for sigma in enumerate_two_permutations(n):
            hist[weight(sigma)] += 1
        assert chow_group_dimensions(n) == hist, n


@pytest.mark.parametrize("n, count", [(8, 385_560), (9, 4_740_120)])
def test_chow_dp_past_enumeration(n, count):
    # Poincare duality, and the torus fixed points: n!(n-j)!/(2^j j!(n-2j)!)
    # 2-permutations with j pairs
    f = math.factorial
    assert count == sum(f(n) * f(n - j) // (2**j * f(j) * f(n - 2 * j))
                        for j in range(n // 2 + 1))
    hist = chow_group_dimensions(n)
    assert len(hist) == cq_dimension(n) + 1
    assert sum(hist) == count
    assert hist == hist[::-1]


def test_chow_histogram_past_reach_is_refused_at_once():
    # n = 16 takes about 10 s, and each further n about 2.5 times more
    for n in (17, 30, 10**6):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"^Chow-group histogram needs n <= 16, got n = {n}$"):
            chow_group_dimensions(n)
        assert time.perf_counter() - start < 0.1


def test_weight_equals_free_variable_count():
    for n in range(1, 6):
        for sigma in enumerate_two_permutations(n):
            param = cell_parametrization(sigma)
            assert param.free_variable_count == weight(sigma), str(sigma)


def test_parametrization_identity_cell():
    param = cell_parametrization(TwoPermutation.parse("1|2|3"))
    y = param.Y
    assert y[0][0] == () and y[1][1] == ("y1",)
    assert y[2][2] == ("y1", "y2")
    assert param.free_variable_count == 5
    assert param.free_x == ("x12", "x13", "x23")
    assert param.X[2] == (("x13",), ("x23",), ())
    assert param.companion[0][0] == ("y1", "y2")
    assert param.companion[1][1] == ("y2",)
    assert param.companion[2][2] == ()
    assert [format_entry(e) for e in (None, (), ("x12",), ("y1", "y2"))] == [
        "0", "1", "x12", "y1*y2"]


def test_companion_pairs_with_y():
    # Y carries y_1..y_{t-1} and the companion y_t..y_{k-1} on block t, so
    # their product is y_1..y_{k-1} times the identity, or 0 when some y is
    # forced to 0.  A sum of monomials is a Counter of merged name tuples.
    for n in range(1, 7):
        for sigma in enumerate_two_permutations(n):
            param = cell_parametrization(sigma)
            for matrix in (param.Y, param.companion):
                for entry in (e for row in matrix for e in row if e is not None):
                    assert entry == tuple(sorted(set(entry))), str(sigma)
            product = [
                [
                    Counter(tuple(sorted(y + c)) for y, c in zip(row, col)
                            if y is not None and c is not None)
                    for col in zip(*param.companion)
                ]
                for row in param.Y
            ]
            scalar = product[0][0]
            all_y = tuple(sorted(f"y{u}" for u in range(1, len(sigma.blocks))))
            assert scalar == (Counter() if param.forced_y else Counter([all_y])), str(sigma)
            for r in range(n):
                for c in range(n):
                    assert product[r][c] == (scalar if r == c else Counter()), str(sigma)


def test_parametrization_is_built_once_per_sigma():
    first = cell_parametrization(TwoPermutation.parse("2|13"))
    assert cell_parametrization(TwoPermutation([(2,), (3, 1)])) is first


def test_parametrization_2_13():
    param = cell_parametrization(TwoPermutation.parse("2|13"))
    assert param.forced_x == ((1, 2),)
    y = param.Y
    assert y[1][1] == ()
    assert y[0][2] == ("y1",) and y[2][0] == ("y1",)
    assert y[0][0] is None and y[2][2] is None
    comp = param.companion
    assert comp[0][2] == () and comp[2][0] == ()
    assert comp[1][1] == ("y1",)
    assert param.free_variable_count == 3


def test_parametrization_bottom_cell():
    param = cell_parametrization(TwoPermutation.parse("3|2|1"))
    assert param.free_variable_count == 0
    flat_y = [param.Y[r][c] for r in range(3) for c in range(3)]
    assert [format_entry(e) for e in flat_y] == ["0", "0", "0", "0", "0", "0", "0", "0", "1"]
    flat_b = [param.companion[r][c] for r in range(3) for c in range(3)]
    assert [format_entry(e) for e in flat_b] == ["1", "0", "0", "0", "0", "0", "0", "0", "0"]


def test_displayed_pair_identity_cell():
    # frozen from the worked 5-dimensional cell: A = X Y X^t and the
    # companion-based B, written out entry by entry.  Every entry has degree
    # <= 2 in each variable, so agreeing on {1,2,3}^5 makes each an identity.
    sigma = TwoPermutation.parse("1|2|3")
    for x12, x13, x23, y1, y2 in product((1, 2, 3), repeat=5):
        values = {"x12": x12, "x13": x13, "x23": x23, "y1": y1, "y2": y2}
        a, b = cell_matrices(sigma, values)
        assert all(m[r][c] == m[c][r] for m in (a, b) for r in range(3) for c in range(3))
        assert a[0][0] == 1
        assert a[1][0] == x12
        assert a[2][0] == x13
        assert a[1][1] == x12 * x12 + y1
        assert a[2][1] == x12 * x13 + x23 * y1
        assert a[2][2] == x23 * x23 * y1 + x13 * x13 + y1 * y2
        assert b[0][0] == (x12 * x12 * x23 * x23 - 2 * x12 * x13 * x23
                           + x12 * x12 * y2 + x13 * x13 + y1 * y2)
        assert b[2][2] == 1
        assert b[0][2] == x12 * x23 - x13
        assert b[1][2] == -x23
        assert b[0][1] == -x12 * x23 * x23 + x13 * x23 - x12 * y2
        assert b[1][1] == x23 * x23 + y2


def test_verify_cell_point_examples():
    assert verify_cell_point(
        TwoPermutation.parse("2|13"), {"x13": 1, "x23": 1, "y1": 1}
    )
    # bottom cell: the fixed point pair multiplies to zero
    a, b = cell_matrices(TwoPermutation.parse("3|2|1"), {})
    assert a == ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    assert b == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert verify_cell_point(TwoPermutation.parse("3|2|1"), {})


def test_verify_cell_point_lambda_values():
    # for 2|13 the scalar is y1 itself; for the identity cell it is y1*y2;
    # B is symmetric, so A.B = A B^t
    from cqcalc.cells import _mul_transpose

    sigma = TwoPermutation.parse("2|13")
    values = {"x13": Fraction(3, 2), "x23": -2, "y1": Fraction(5, 3)}
    a, b = cell_matrices(sigma, values)
    product = _mul_transpose(a, b)
    assert product[0][0] == values["y1"]

    sigma = TwoPermutation.parse("1|2|3")
    values = {"x12": 1, "x13": 2, "x23": 3, "y1": 4, "y2": 5}
    a, b = cell_matrices(sigma, values)
    product = _mul_transpose(a, b)
    assert product[0][0] == 20


FIXED_POINTS = {
    # sigma: (A, B) at the torus-fixed point of each cell
    "1|2|3": ("e11", "e33"),
    "1|3|2": ("e11", "e22"),
    "2|1|3": ("e22", "e33"),
    "2|3|1": ("e22", "e11"),
    "3|1|2": ("e33", "e22"),
    "3|2|1": ("e33", "e11"),
    "12|3": ("s12", "e33"),
    "13|2": ("s13", "e22"),
    "23|1": ("s23", "e11"),
    "1|23": ("e11", "s23"),
    "2|13": ("e22", "s13"),
    "3|12": ("e33", "s12"),
}


def _basis_matrix(code):
    m = [[0] * 3 for _ in range(3)]
    if code.startswith("e"):
        i = int(code[1]) - 1
        m[i][i] = 1
    else:
        i, j = int(code[1]) - 1, int(code[2]) - 1
        m[i][j] = m[j][i] = 1
    return tuple(tuple(row) for row in m)


def test_fixed_points_match_table():
    # the limit point of each cell (all free variables at zero) is the
    # tabulated pair of rank-one / rank-two symmetric matrices
    for text, (a_code, b_code) in FIXED_POINTS.items():
        param = cell_parametrization(TwoPermutation.parse(text))
        # a monomial is 1 at zero when it is the constant (), else 0
        a = tuple(tuple(int(entry == ()) for entry in row) for row in param.Y)
        b = tuple(tuple(int(entry == ()) for entry in row) for row in param.companion)
        assert a == _basis_matrix(a_code), text
        assert b == _basis_matrix(b_code), text


def test_verify_cell_point_all_cells_random():
    rng = random.Random(20240802)
    for sigma in enumerate_two_permutations(3):
        param = cell_parametrization(sigma)
        for _ in range(5):
            values = {
                name: Fraction(rng.randint(1, 24), rng.randint(1, 9))
                * rng.choice([1, -1])
                for name in param.free_variables()
            }
            assert verify_cell_point(sigma, values), (str(sigma), values)


def _fraction_pair(sigma, values):
    """Reference pair (A, B) and A.B from the cell's matrices evaluated in
    Fractions, with X^-1 by forward substitution (X is unitriangular)."""
    param = cell_parametrization(sigma)

    def numeric(matrix):
        return [[Fraction(0) if entry is None
                 else math.prod((values[v] for v in entry), start=Fraction(1))
                 for entry in row] for row in matrix]

    def mul(a, b):
        return [[sum((a[r][k] * b[k][c] for k in range(3)), Fraction(0))
                  for c in range(3)] for r in range(3)]

    def transpose(a):
        return [list(col) for col in zip(*a)]

    x, y, companion = numeric(param.X), numeric(param.Y), numeric(param.companion)
    inverse = [[Fraction(int(r == c)) for c in range(3)] for r in range(3)]
    for r in range(3):
        for k in range(r):
            inverse[r] = [v - x[r][k] * w for v, w in zip(inverse[r], inverse[k])]
    r = transpose(inverse)
    a = mul(mul(x, y), transpose(x))
    b = mul(mul(r, companion), transpose(r))
    return a, b, mul(a, b)


def test_integer_pair_matches_fraction_reference():
    rng = random.Random(20261019)
    for sigma in enumerate_two_permutations(3):
        names = cell_parametrization(sigma).free_variables()
        points = [{name: Fraction(rng.randint(1, 40), rng.randint(1, 12)) * rng.choice([1, -1])
                   for name in names} for _ in range(8)]
        points += [{name: rng.randint(1, 40) * rng.choice([1, -1]) for name in names}
                   for _ in range(4)]
        for values in points:
            a, b, product = _fraction_pair(sigma, values)
            got = cell_matrices(sigma, values)
            assert got == (tuple(map(tuple, a)), tuple(map(tuple, b))), (str(sigma), values)
            assert all(type(v) is Fraction for half in got for row in half for v in row)
            lam = product[0][0]
            scalar = all(product[i][j] == (lam if i == j else 0)
                         for i in range(3) for j in range(3))
            assert verify_cell_point(sigma, values) is scalar is True
            if str(sigma) == "3|2|1":
                assert lam == 0


def test_cell_checks_make_no_fraction_products(monkeypatch):
    rng = random.Random(20261021)
    points = []
    for sigma in enumerate_two_permutations(3):
        names = cell_parametrization(sigma).free_variables()
        points.append((sigma, {name: Fraction(rng.randint(1, 40), rng.randint(1, 12))
                               for name in names}))
        points.append((sigma, {name: -rng.randint(1, 40) for name in names}))
    expected = [(verify_cell_point(*p), verify_generic_point(*p)) for p in points]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a cell check")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = [(verify_cell_point(*p), verify_generic_point(*p)) for p in points]
    assert got == expected
    assert all(cell for cell, _ in got)


def test_verify_cell_point_input_validation():
    sigma = TwoPermutation.parse("2|13")
    with pytest.raises(DomainError, match="free variables"):
        verify_cell_point(sigma, {"x13": 1})
    with pytest.raises(DomainError, match="nonzero"):
        verify_cell_point(sigma, {"x13": 0, "x23": 1, "y1": 1})
    with pytest.raises(DomainError, match="n=3"):
        verify_cell_point(TwoPermutation.parse("1|2"), {"x12": 1, "y1": 1})


def test_verify_generic_point():
    sigma = TwoPermutation.parse("1|2|3|4")
    param = cell_parametrization(sigma)
    values = {name: 1 for name in param.free_variables()}
    assert verify_generic_point(sigma, values)
    # a boundary cell never certifies: its primary matrix is singular
    bottom = TwoPermutation.parse("4|3|2|1")
    assert not verify_generic_point(bottom, {})


def test_one_parameter_exponents():
    assert one_parameter_exponents(3) == (4, 16, 64)
    for n in range(1, 17):
        one_parameter_exponents(n)
    with pytest.raises(DomainError, match="^exponent chain checked only for n <= 16$"):
        one_parameter_exponents(17)
