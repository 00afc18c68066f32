"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every comparison is exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import permutations
from math import factorial

from cqcalc.cells import (
    TwoPermutation,
    cell_parametrization,
    chow_group_dimensions,
    enumerate_two_permutations,
    verify_cell_point,
    weight,
)
from cqcalc.exactmath import UnivariatePolynomial, binomial, is_log_concave
from cqcalc.matroid import (
    Graph,
    characteristic_polynomial,
    complete_graph,
    cycle_graph,
    euler_characteristic_complement,
    matroid_from_graph,
    reduced_characteristic_coefficients,
    uniform_matroid,
)
from cqcalc.quadrics import (
    clear_caches,
    cq_dimension,
    delta,
    delta_polynomial,
    integrate_monomial,
    pataki_nonzero,
    phi,
    phi_c,
    phi_from_delta,
    phi_polynomial,
)
from cqcalc.schubert import flag_integral, monk_multiply, monk_multiply_bruhat
from cqcalc.segre import SegreData, mu_from_segre, nu_from_mu_correction, nu_from_segre
from cqcalc.toric import (
    ToricClass,
    multiply_by_divisor,
    mu_generic,
    permutohedral_divisors,
    permutohedral_fan,
    toric_integral,
)

PHI_TABLE = {
    3: (1, 2, 4, 4, 2, 1),
    4: (1, 3, 9, 17, 21, 21, 17, 9, 3),
    5: (1, 4, 16, 44, 86, 137, 188, 212, 188),
}


def _report(number, message):
    print(f"criterion {number:2d}: PASS  {message}")


def test_criterion_01_phi_table():
    clear_caches()
    start = time.perf_counter()
    for n, expected in PHI_TABLE.items():
        got = tuple(phi(n, d) for d in range(1, len(expected) + 1))
        assert got == expected, (n, got)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"phi table took {elapsed:.1f}s"
    _report(1, f"24 table values exact in {elapsed:.2f}s")


def test_criterion_02_phi_delta_relation():
    checked = 0
    for n in range(2, 6):
        for d in range(1, binomial(n + 1, 2) + 1):
            assert phi_from_delta(n, d) == phi(n, d), (n, d)
            checked += 1
    _report(2, f"phi == phi_from_delta on {checked} admissible (n, d) pairs")


def test_criterion_03_pataki_support():
    checked = 0
    for n in range(2, 6):
        top = binomial(n + 1, 2)
        for m in range(1, top):
            for r in range(1, n):
                assert (delta(m, n, r) != 0) == pataki_nonzero(m, n, r), (m, n, r)
                checked += 1
    _report(3, f"delta support matches the inequality window on {checked} triples")


def test_criterion_04_polynomiality():
    assert phi_polynomial(1) == UnivariatePolynomial([1])
    assert phi_polynomial(2) == UnivariatePolynomial([-1, 1])
    assert phi_polynomial(3) == UnivariatePolynomial([1, -2, 1])
    # one extra engine evaluation per polynomial, beyond the built-in check
    assert phi_polynomial(1)(6) == phi(6, 1)
    assert phi_polynomial(2)(6) == phi(6, 2)
    assert phi_polynomial(3)(6) == phi(6, 3)
    zero_checked = []
    for m in (1, 2, 3):
        for s in (1, 2):
            poly = delta_polynomial(m, s)
            assert poly(0) == 0, (m, s)
            zero_checked.append((m, s))
    _report(4, f"phi polynomials pinned; delta polynomials vanish at 0 for {zero_checked}")


def test_criterion_05_phi_c_corollary():
    checked = 0
    for n in range(2, 5):
        top = binomial(n + 1, 2)
        for c in range(1, n):
            for d in range(1, top):
                if binomial(n - c + 2, 2) > d:
                    assert phi_c(n, c, d) == c * phi(n, d), (n, c, d)
                    checked += 1
    _report(5, f"phi_c == c * phi inside the window on {checked} triples")


def test_criterion_06_duality_palindromy():
    rng = random.Random(20240803)
    for _ in range(50):
        n = rng.randint(2, 5)
        dim = cq_dimension(n)
        x = rng.randint(0, dim)
        y = dim - x
        b1 = [0] * (n - 1)
        b1[0] += x
        b1[n - 2] += y
        b2 = [0] * (n - 1)
        b2[0] += y
        b2[n - 2] += x
        zeros = (0,) * (n - 1)
        assert integrate_monomial(n, zeros, tuple(b1)) == integrate_monomial(
            n, zeros, tuple(b2)
        ), (n, x, y)
    row3 = [phi(3, d) for d in range(1, 7)]
    assert row3 == row3[::-1]
    _report(6, "50 random corner integrals are reversal-symmetric; row n=3 palindromic")


def _acceptance_graph_corpus():
    return [
        ("K3", complete_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("K4", complete_graph(4)),
        ("path4", Graph(4, [(1, 2), (2, 3), (3, 4)])),
        ("star5", Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])),
        ("bowtie", Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])),
        ("parallel", Graph(3, [(1, 2), (1, 2), (2, 3)])),
        ("K4_minus_edge", Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])),
        ("two_triangles", Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])),
        ("loopy", Graph(2, [(1, 1), (1, 2)])),
    ]


def test_criterion_07_matroid_values():
    assert reduced_characteristic_coefficients(matroid_from_graph(cycle_graph(4))) == (1, 3, 3)
    assert reduced_characteristic_coefficients(uniform_matroid(3, 3)) == (1, 2, 1)
    for n in range(1, 9):
        for a in range(1, n + 1):
            coeffs = reduced_characteristic_coefficients(uniform_matroid(a, n))
            assert coeffs[-1] == binomial(n - 1, a - 1), (a, n)
    lc_checked = dc_checked = 0
    for name, g in _acceptance_graph_corpus():
        m = matroid_from_graph(g)
        assert characteristic_polynomial(m) == characteristic_polynomial(
            m, method="whitney"
        ), name
        dc_checked += 1
        if not m.has_loop() and len(g.edges) <= 8 and m.full_rank() >= 1:
            assert is_log_concave(reduced_characteristic_coefficients(m)), name
            lc_checked += 1
    _report(7, f"matroid values exact; log-concavity on {lc_checked} graphs; "
               f"two charpoly routes agree on {dc_checked} graphs")


def test_criterion_08_euler_sums():
    assert euler_characteristic_complement((1, 1, 1)) == 1
    assert euler_characteristic_complement((1, 1, 1, 1)) == 0
    assert euler_characteristic_complement((1, 2, 2, 1)) == 0
    _report(8, "three worked Euler-characteristic sums reproduce")


def test_criterion_09_toric():
    fan = permutohedral_fan(2)
    h1, h2 = permutohedral_divisors(fan)
    product = multiply_by_divisor(multiply_by_divisor(ToricClass.unit(fan), h1), h2)
    idx = {label: i for i, label in enumerate(fan.ray_labels)}
    assert product.terms == {
        frozenset({idx["x2"], idx["x12"]}): Fraction(1),
        frozenset({idx["x3"], idx["x13"]}): Fraction(1),
    }
    assert mu_generic(2) == [1, 2, 1]
    for n in range(1, 5):
        assert tuple(mu_generic(n)) == reduced_characteristic_coefficients(
            uniform_matroid(n + 1, n + 1)
        ), n
        f = permutohedral_fan(n)
        assert f.check_smooth() and f.check_complete()
    _report(9, "hexagon identity, generic multidegrees, and fan checks for n <= 4")


def test_criterion_10_cells():
    sigmas = enumerate_two_permutations(3)
    assert len(sigmas) == 12
    table = [
        ("1|2|3", 5), ("1|3|2", 3), ("2|1|3", 3), ("2|3|1", 2), ("3|1|2", 2),
        ("3|2|1", 0), ("12|3", 4), ("13|2", 2), ("23|1", 1), ("1|23", 4),
        ("2|13", 3), ("3|12", 1),
    ]
    for text, expected in table:
        assert weight(TwoPermutation.parse(text)) == expected, text
    assert chow_group_dimensions(3) == [1, 2, 3, 3, 2, 1]
    rng = random.Random(20240804)
    for sigma in sigmas:
        param = cell_parametrization(sigma)
        for _ in range(5):
            values = {
                name: Fraction(rng.randint(1, 30), rng.randint(1, 11))
                * rng.choice([1, -1])
                for name in param.free_variables()
            }
            assert verify_cell_point(sigma, values), (str(sigma), values)
    _report(10, "12 cells, table weights, histogram, and 60 exact point checks")


def test_criterion_11_segre_formulas():
    cremona = SegreData(degF=4, nL=2, mY=1, s=(0, 6))
    assert mu_from_segre(cremona, 2) == 3
    hollow_mu = SegreData(degF=3, nL=3, mY=0, s=(4,))
    assert mu_from_segre(hollow_mu, 3) == 4
    hollow_nu = SegreData(degF=3, nL=3, mY=1, s=(2, -5))
    assert nu_from_segre(hollow_nu, 3) == 1
    assert nu_from_mu_correction(4, 5, 1, (-7, 2)) == 1
    _report(11, "mu_2 = 3, mu_3 = 4, nu_3 = 1 via both routes")


def test_criterion_12_schubert_oracle():
    checked = 0
    for n in range(2, 6):
        for w in permutations(range(1, n + 1)):
            for i in range(1, n):
                assert monk_multiply(i, w).terms == monk_multiply_bruhat(i, w).terms
                checked += 1
    assert flag_integral(3, [1, 2]) == 1   # two s_1 factors and one s_2
    assert flag_integral(3, [0, 3]) == 0   # s_1 cubed
    assert flag_integral(3, [3, 0]) == 0   # s_2 cubed
    total = sum(binomial(3, k) * flag_integral(3, [k, 3 - k]) for k in range(4))
    assert total == 6
    _report(12, f"Monk == cover enumeration on {checked} products; flag values exact")


def test_criterion_13_scale_probe():
    start = time.perf_counter()
    values = [phi(6, d) for d in range(1, 11)]
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"phi(6, *) took {elapsed:.1f}s"
    assert all(v > 0 for v in values)
    for d in (1, 2, 3):
        assert values[d - 1] == phi_polynomial(d)(6), d
    _report(13, f"phi(6, d<=10) = {values} in {elapsed:.2f}s, on-polynomial for d<=3")


def _tangency_count(n):
    """Quadrics in P^(n-1) tangent to D = dim CQ_n general quadrics: the
    class of the tangency condition is 2(L_1 + ... + L_{n-1}), so the count
    is 2^D times the sum of multinomial(D; b) * integral of L^b."""
    dim = cq_dimension(n)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    total = 0
    for b in compositions(dim, n - 1):
        multinomial = factorial(dim)
        for x in b:
            multinomial //= factorial(x)
        total += multinomial * integrate_monomial(n, (0,) * (n - 1), b)
    return 2 ** dim * total


def test_criterion_14_schubert_characteristic_numbers():
    # Schubert's published counts, each on cleared memo tables so that the
    # reduction (with its stratum bound) runs in full
    clear_caches()
    conics = _tangency_count(3)
    clear_caches()
    quadric_surfaces = _tangency_count(4)
    clear_caches()
    nu9 = integrate_monomial(4, (0, 0, 0), (0, 9, 0))
    assert conics == 3264
    assert quadric_surfaces == 666_841_088
    assert nu9 == 92
    _report(14, "3264 conics tangent to 5 conics; 666,841,088 quadric surfaces tangent "
                "to 9 quadrics; 92 quadric surfaces tangent to 9 lines")
