import random
from itertools import permutations

import pytest

from cqcalc import quadrics, schubert
from cqcalc.exactmath import DomainError, binomial, localization_sum
from cqcalc.schubert import (
    SchubertCombination,
    flag_integral,
    inversion_number,
    longest_permutation,
    monk_multiply,
    monk_multiply_bruhat,
)


def test_inversion_number():
    assert inversion_number((1, 2, 3)) == 0
    assert inversion_number((2, 1, 3)) == 1
    assert inversion_number((3, 2, 1)) == 3
    assert inversion_number(longest_permutation(5)) == binomial(5, 2)


def test_monk_examples():
    assert monk_multiply(1, (1, 2)).terms == {(2, 1): 1}
    # (p,q) = (1,3) is blocked by the intermediate value at position 2
    assert monk_multiply(1, (1, 2, 3)).terms == {(2, 1, 3): 1}
    assert monk_multiply(2, (2, 1, 3)).terms == {(3, 1, 2): 1, (2, 3, 1): 1}


def test_monk_index_out_of_range():
    with pytest.raises(DomainError):
        monk_multiply(3, (1, 2, 3))
    with pytest.raises(DomainError):
        monk_multiply(0, (1, 2, 3))


def test_monk_grading():
    for n in range(2, 6):
        for w in permutations(range(1, n + 1)):
            base = inversion_number(w)
            for i in range(1, n):
                comb = monk_multiply(i, w)
                assert all(inversion_number(v) == base + 1 for v in comb.terms)
                assert all(c == 1 for c in comb.terms.values())


def test_monk_equals_bruhat_covers():
    # the two characterizations must agree on every permutation, n <= 5
    for n in range(2, 6):
        for w in permutations(range(1, n + 1)):
            for i in range(1, n):
                assert monk_multiply(i, w).terms == monk_multiply_bruhat(i, w).terms


def test_flag_integral_examples():
    assert flag_integral(2, [1]) == 1
    assert flag_integral(3, [1, 2]) == 1
    assert flag_integral(3, [3, 0]) == 0
    assert flag_integral(3, [0, 3]) == 0
    assert flag_integral(3, [2, 1]) == 1


def test_flag_integral_hand_expansion():
    # slot 2 twice: sigma_{s_1}^2 = sigma_{(3,1,2)}, then slot 1 reaches the
    # longest permutation exactly once
    step1 = monk_multiply(1, (2, 1, 3)).terms
    assert step1 == {(3, 1, 2): 1}
    step2 = monk_multiply(2, (3, 1, 2)).terms
    assert step2 == {(3, 2, 1): 1}
    assert flag_integral(3, [1, 2]) == 1


def test_flag_integral_degree_mismatch():
    with pytest.raises(DomainError, match="degree mismatch"):
        flag_integral(3, [1, 1])
    with pytest.raises(DomainError):
        flag_integral(3, [4, -1])


def test_flag_integral_rejects_non_integer_exponents():
    with pytest.raises(DomainError, match="non-integer exponent"):
        flag_integral(3, (1, 2.0))
    with pytest.raises(DomainError, match="non-integer exponent"):
        flag_integral(3, (1.5, 1.5))


def test_flag_integral_shape_errors():
    for n in (-1, 0, 1):
        with pytest.raises(DomainError, match=rf"^Fl_n needs n >= 2, got n={n}$"):
            flag_integral(n, [])
    with pytest.raises(DomainError, match=r"^need 2 exponents for Fl_3, got \(3,\)$"):
        flag_integral(3, [3])


def test_flag_integral_order_invariance():
    rng = random.Random(3)
    cases = [(3, (1, 2)), (3, (2, 1)), (4, (2, 2, 2)), (4, (3, 2, 1)), (5, (4, 3, 2, 1))]
    for n, b in cases:
        base = flag_integral(n, b)
        schedule = [slot for slot, count in enumerate(b, start=1) for _ in range(count)]
        for _ in range(6):
            rng.shuffle(schedule)
            assert flag_integral(n, b, order=tuple(schedule)) == base


def test_degree_of_fl3_multinomial():
    # expanding (slot1 + slot2)^3 multinomially gives the degree 6 of the
    # full flag threefold
    total = 0
    for k in range(4):
        coeff = binomial(3, k)
        total += coeff * flag_integral(3, [k, 3 - k])
    assert total == 6


def test_combination_validation():
    with pytest.raises(DomainError):
        SchubertCombination(3, {(1, 2): 1})
    comb = SchubertCombination(3, {(1, 2, 3): 2, (2, 1, 3): 0})
    assert comb.terms == {(1, 2, 3): 2}
    assert comb.is_homogeneous()


def test_monk_multiply_combination_linear():
    from cqcalc.schubert import monk_multiply_combination

    comb = SchubertCombination(3, {(2, 1, 3): 2, (1, 3, 2): 1})
    product = monk_multiply_combination(1, comb)
    expected = {}
    for w, c in comb.terms.items():
        for v, m in monk_multiply(1, w).terms.items():
            expected[v] = expected.get(v, 0) + c * m
    assert product.terms == expected
    assert product.is_homogeneous()


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_weyl_volume_equals_monk_on_every_composition():
    # the default (Weyl volume polynomial) against Monk's rule driven
    # through an explicit schedule, zeros included: 3,876 exponent
    # vectors at n = 6
    counts = {}
    for n in range(2, 7):
        for b in _compositions(binomial(n, 2), n - 1):
            schedule = [slot for slot, count in enumerate(b, start=1) for _ in range(count)]
            value = flag_integral(n, b)
            assert type(value) is int
            assert value == flag_integral(n, b, order=schedule), (n, b)
            counts[n] = counts.get(n, 0) + 1
    assert counts[6] == 3876


def test_flag_integral_rejects_bad_schedule():
    with pytest.raises(DomainError, match="order does not match"):
        flag_integral(3, (1, 2), order=(1, 1, 2))
    with pytest.raises(DomainError, match="out of range"):
        flag_integral(3, (1, 2), order=(1, 2, 3))


def test_clear_caches_empties_both_tables():
    flag_integral(3, (1, 2))
    flag_integral(3, (1, 2), order=(1, 2, 2))
    assert schubert._integral_memo and schubert._cover_cache
    quadrics.clear_caches()
    assert not schubert._integral_memo and not schubert._cover_cache


def _positive_composition(rng, total, parts):
    # cut 1..total-1 at parts-1 distinct points: every part is at least 1
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return tuple(y - x for x, y in zip([0] + cuts, cuts + [total]))


def test_weyl_volume_equals_monk_past_the_table():
    # at n = 7 the volume table on six variables answers in one lookup;
    # from n = 8 on the first rows are dealt forward before it answers the
    # last six variables (`_dealt_count`); no exponent is 0, so no vector
    # is answered before that path runs
    rng = random.Random(11)
    nonzero = 0
    for n, count in ((7, 100), (8, 10)):
        for _ in range(count):
            b = _positive_composition(rng, binomial(n, 2), n - 1)
            schedule = [slot for slot, c in enumerate(b, start=1) for _ in range(c)]
            value = flag_integral(n, b)
            assert value == flag_integral(n, b, order=schedule), (n, b)
            nonzero += value != 0
    # 53 of the n = 7 vectors and 4 of the n = 8 ones are nonzero
    assert nonzero == 57


def test_volume_table_sizes():
    schubert.clear_caches()
    sizes = [len(schubert._volume_table(k)) for k in range(1, schubert.TABLE_VARIABLES + 1)]
    assert sizes == [1, 2, 8, 55, 567, 7958]
    assert sorted(schubert._integral_memo) == [1, 2, 3, 4, 5, 6]


def test_flag_integral_past_the_table_cap():
    # values of the forward count run over every row with no table; a
    # lost cap would build the table on 8 or 9 variables instead
    assert flag_integral(9, (4, 4, 4, 4, 5, 5, 5, 5)) == 288625400
    assert flag_integral(10, (5,) * 9) == 1915103977500
    assert max(schubert._integral_memo) == schubert.TABLE_VARIABLES


def _flag_fixed_points(n, u):
    """Bott's data on Fl_n at the weight u: per permutation w, the Euler
    class, the product of the tangent weights u_w(i) - u_w(j) over i < j,
    and the restriction u_w(1) + ... + u_w(n-s) of each slot s."""
    points = []
    for w in permutations(range(n)):
        euler = 1
        for i in range(n):
            for j in range(i + 1, n):
                euler *= u[w[i]] - u[w[j]]
        slots = [sum(u[w[i]] for i in range(n - s)) for s in range(1, n)]
        points.append((euler, slots))
    return points


def _flag_localization(points, b):
    terms = []
    for euler, slots in points:
        value = 1
        for x, exponent in zip(slots, b):
            value *= x**exponent
        terms.append((value, euler))
    return localization_sum(terms)


def test_localization_kernel_on_flag_varieties():
    # every exponent vector with n <= 5, zeros included, at two weights
    checked = 0
    for n in range(2, 6):
        powers = _flag_fixed_points(n, [3**i for i in range(n)])
        other = _flag_fixed_points(n, [i * i + 2 * i - 5 for i in range(n)])
        for b in _compositions(binomial(n, 2), n - 1):
            value = flag_integral(n, b)
            assert _flag_localization(powers, b) == value, (n, b)
            assert _flag_localization(other, b) == value, (n, b)
            checked += 1
        # below the top degree the residues cancel
        for total in (0, binomial(n, 2) - 1):
            for b in _compositions(total, n - 1):
                assert _flag_localization(powers, b) == 0, (n, b)
    assert checked == 319
    # two equal weights put a zero in some tangent weight
    with pytest.raises(DomainError, match="zero weight"):
        _flag_localization(_flag_fixed_points(4, [1, 2, 2, 5]), (2, 2, 2))
