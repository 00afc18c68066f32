import random
from fractions import Fraction
from itertools import combinations

import pytest

from cqcalc.exactmath import (
    DomainError,
    UnivariatePolynomial,
    binomial,
    determinant,
    exact_quotient,
    interpolate,
    is_log_concave,
    localization_sum,
    matrix_rank,
    solve_linear_system,
)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(-2, 1) == 0
    assert binomial(0, 0) == 1


def test_is_log_concave():
    assert is_log_concave((1, 3, 3))
    assert is_log_concave((1, 2, 1))
    assert not is_log_concave((1, 1, 4))
    # zeros between nonzero entries are disallowed even if the inequality holds
    assert not is_log_concave((1, 0, 0, 1))
    assert is_log_concave((0, 1, 2, 1, 0))
    assert is_log_concave((5,))
    with pytest.raises(DomainError):
        is_log_concave(())


def test_interpolate_examples():
    # two points of the ML-degree column d=2 pin the line n - 1
    assert interpolate([(3, 2), (4, 3)]) == UnivariatePolynomial([-1, 1])
    assert interpolate([(0, 0)]) == UnivariatePolynomial()
    # three points of the column d=3 pin (n - 1)^2
    assert interpolate([(3, 4), (4, 9), (5, 16)]) == UnivariatePolynomial([1, -2, 1])


def test_interpolate_duplicate_abscissa():
    with pytest.raises(DomainError, match="duplicate abscissa"):
        interpolate([(1, 1), (1, 2)])


def test_interpolate_round_trip_random():
    rng = random.Random(20240801)
    for _ in range(40):
        degree = rng.randint(0, 6)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)]
        poly = UnivariatePolynomial(coeffs)
        xs = rng.sample(range(-15, 15), poly.degree() + 1 if not poly.is_zero() else 1)
        points = [(x, poly(x)) for x in xs]
        assert interpolate(points) == poly


def _lagrange(points):
    """Coefficients, lowest degree first, of the Lagrange interpolant: the
    sum over i of y_i * prod_{j != i} (x - x_j) / (x_i - x_j)."""
    total = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j != i:
                # multiply by (x - xj) / (xi - xj)
                shifted = [Fraction(0)] + term
                for k, c in enumerate(term):
                    shifted[k] -= xj * c
                term = [c / (xi - xj) for c in shifted]
        for k, c in enumerate(term):
            total[k] += c
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


def test_interpolate_matches_lagrange_reference():
    rng = random.Random(20261019)
    cases = [[], [(0, 5)], [(-7, Fraction(2, 3))], [(-3, 1), (4, -2), (11, 0)]]
    for size in range(13):
        for _ in range(6):
            xs = rng.sample(range(-20, 20), size)
            cases.append([(x, Fraction(rng.randint(-30, 30), rng.randint(1, 7))) for x in xs])
    # degree 14 and degree 12 through non-consecutive negative abscissae
    cases.append([(x, x**14 - 3 * x) for x in range(-29, 0, 2)])
    cases.append([(x, Fraction(x**12, 5) + 1) for x in range(-13, 0)])
    for points in cases:
        poly = interpolate(points)
        assert poly.coefficients == _lagrange(points), points
        assert all(type(c) is Fraction for c in poly.coefficients)
        assert poly.is_zero() or poly.coefficients[-1] != 0
        assert all(poly(x) == y for x, y in points)


def test_rational_addition_two_ways():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(1, 50)
        c, d = rng.randint(-50, 50), rng.randint(1, 50)
        direct = Fraction(a, b) + Fraction(c, d)
        common = Fraction(a * d + c * b, b * d)
        assert direct == common
        assert direct.denominator > 0
        import math

        assert math.gcd(direct.numerator, direct.denominator) == 1


def test_polynomial_arithmetic():
    p = UnivariatePolynomial([1, 2])   # 1 + 2x
    assert p(Fraction(1, 2)) == 2
    assert str(UnivariatePolynomial([1, -2, 1])) == "n^2 - 2*n + 1"


def test_divide_by_linear():
    # x^3 - 4x^2 + 6x - 3 = (x - 1)(x^2 - 3x + 3)
    p = UnivariatePolynomial([-3, 6, -4, 1])
    q, rem = p.divide_by_linear(1)
    assert rem == 0
    assert q == UnivariatePolynomial([3, -3, 1])
    _, rem2 = p.divide_by_linear(2)
    assert rem2 == p(2)


def test_solve_linear_system():
    sol = solve_linear_system([[2, -1], [-1, 2]], [1, 0])
    assert sol == [Fraction(2, 3), Fraction(1, 3)]
    with pytest.raises(DomainError, match="singular"):
        solve_linear_system([[1, 1], [2, 2]], [1, 0])


def test_matrix_rank():
    assert matrix_rank([[1, 0, 0], [0, 1, 0]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[0, 0], [0, 0]]) == 0


def _det_by_fractions(matrix):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def _seeded_matrices(rng, nrows, ncols):
    """An int matrix with small entries, the same with a zero column and a
    dependent last row (column skipping, lower rank), and a rational one."""
    m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    deficient = [row[:] for row in m]
    zero_col = rng.randrange(ncols)
    for row in deficient:
        row[zero_col] = 0
    if nrows > 1:
        k = rng.randint(-2, 2)
        deficient[-1] = [k * a - b for a, b in zip(deficient[0], deficient[1])]
    rational = [[Fraction(a, rng.randint(1, 5)) for a in row] for row in deficient]
    return [m, deficient, rational]


def test_matrix_rank_is_largest_nonzero_minor():
    rng = random.Random(53)
    ranks = set()
    for nrows in range(1, 5):
        for ncols in range(1, 6):
            for _ in range(8):
                for m in _seeded_matrices(rng, nrows, ncols):
                    expected = max(
                        (k for k in range(1, min(nrows, ncols) + 1)
                         for rows in combinations(m, k)
                         for cols in combinations(range(ncols), k)
                         if _det_by_fractions([[row[c] for c in cols] for row in rows])),
                        default=0,
                    )
                    assert matrix_rank(m) == expected, m
                    ranks.add(expected)
    assert ranks == {0, 1, 2, 3, 4}


def test_solve_linear_system_by_substitution():
    rng = random.Random(59)
    singular_count = 0
    for n in range(1, 6):
        for _ in range(20):
            for m in _seeded_matrices(rng, n, n):
                rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                if _det_by_fractions(m) == 0:
                    singular_count += 1
                    with pytest.raises(DomainError, match="singular system"):
                        solve_linear_system(m, rhs)
                    continue
                x = solve_linear_system(m, rhs)
                assert all(isinstance(v, Fraction) for v in x)
                assert [sum(a * v for a, v in zip(row, x)) for row in m] == rhs, m
    assert singular_count >= 100


def test_localization_sum():
    # the projective line at weights 0 and 3: the point class is 1, the
    # unit class (0 / e at degree 0 below the dimension) is 0
    assert localization_sum([(3, 3), (0, -3)]) == 1
    assert localization_sum([(1, 3), (1, -3)]) == 0
    assert localization_sum([]) == 0
    # terms over unequal denominators: 1/2 + 1/3 + 1/6 = 1, negative e too
    assert localization_sum([(1, 2), (-1, -3), (1, 6)]) == 1
    assert localization_sum([(7 * 10**30, 7), (-21, -21)]) == 10**30 + 1
    with pytest.raises(DomainError, match="zero weight"):
        localization_sum([(1, 2), (5, 0)])
    with pytest.raises(RuntimeError, match="non-integer localization sum 5/6"):
        localization_sum([(1, 2), (1, 3)])


def test_exact_quotient():
    assert exact_quotient(12, 4, "x") == 3
    assert exact_quotient(-6 * 10**40, 3, "x") == -2 * 10**40
    with pytest.raises(RuntimeError) as raised:
        exact_quotient(5, 3, "x")
    assert str(raised.value) == "non-integer x 5/3"
