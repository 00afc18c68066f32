import pickle
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from cqcalc import quadrics, schubert
from cqcalc.exactmath import DomainError, UnivariatePolynomial, binomial, is_log_concave
from cqcalc.schubert import flag_integral
from cqcalc.quadrics import (
    _mixed_basis_expansion,
    _psi,
    CQProduct,
    DivisorClass,
    cq_dimension,
    delta,
    delta_polynomial,
    hypersurface_characteristic_number,
    integrate_monomial,
    intersection_product,
    l_in_mixed_basis,
    pataki_nonzero,
    phi,
    phi_c,
    phi_from_delta,
    phi_polynomial,
)


def test_divisor_relation():
    # S_i = -L_{i-1} + 2 L_i - L_{i+1} with L_0 = L_n = 0
    for n in range(2, 7):
        for i in range(1, n):
            # coefficients of L_1..L_{n-1}
            expected = tuple({i - 1: -1, i: 2, i + 1: -1}.get(j, 0) for j in range(1, n))
            assert DivisorClass.degeneration(n, i).coeffs == expected


def test_mixed_basis_examples():
    assert l_in_mixed_basis(3, 1, {1, 2}) == {
        ("S", 1): Fraction(2, 3),
        ("S", 2): Fraction(1, 3),
    }
    assert l_in_mixed_basis(3, 1, set()) == {("L", 1): Fraction(1)}


def test_mixed_basis_full_x_closed_form():
    # over the all-degeneration basis the coefficients are
    # min(c, j) - c j / n
    for n in range(2, 7):
        full = frozenset(range(1, n))
        for c in range(1, n):
            expansion = l_in_mixed_basis(n, c, full)
            for j in range(1, n):
                expected = Fraction(min(c, j)) - Fraction(c * j, n)
                assert expansion.get(("S", j), Fraction(0)) == expected


def test_closed_form_mixed_basis_equals_solve():
    # the reduction's closed form (integer numerators over one denominator)
    # against the direct linear solve, for every n <= 8, i and X
    for n in range(2, 9):
        indices = range(1, n)
        for r in range(n):
            for x_tuple in combinations(indices, r):
                x_set = frozenset(x_tuple)
                for i in indices:
                    denominator, numerators = _mixed_basis_expansion(n, i, x_set)
                    closed = {key: Fraction(num, denominator) for key, num in numerators.items()}
                    assert closed == l_in_mixed_basis(n, i, x_set), (n, i, x_tuple)


def test_values_are_ints():
    assert type(integrate_monomial(4, (1, 0, 0), (2, 2, 4))) is int
    assert type(integrate_monomial(3, (0, 0), (3, 2), pick=lambda c: c[-1])) is int
    assert type(phi(4, 3)) is int
    assert type(delta(2, 3, 2)) is int


def test_mixed_basis_round_trip():
    # substituting the degeneration relation back must return L_i exactly
    for n in range(2, 6):
        indices = list(range(1, n))
        for r in range(len(indices) + 1):
            for x_tuple in combinations(indices, r):
                x_set = set(x_tuple)
                for i in indices:
                    expansion = l_in_mixed_basis(n, i, x_set)
                    acc = [0] * (n - 1)
                    for (kind, j), coeff in expansion.items():
                        cls = (
                            DivisorClass.degeneration(n, j)
                            if kind == "S"
                            else DivisorClass.hyperplane(n, j)
                        )
                        acc = [x + coeff * c for x, c in zip(acc, cls.coeffs)]
                    assert tuple(acc) == DivisorClass.hyperplane(n, i).coeffs


def test_intersection_product_examples():
    assert integrate_monomial(3, (0, 0), (5, 0)) == 1
    assert integrate_monomial(3, (0, 0), (3, 2)) == 4
    assert integrate_monomial(3, (1, 1), (3, 0)) == 0


def test_intersection_product_degree_mismatch():
    with pytest.raises(DomainError, match="degree mismatch"):
        intersection_product(CQProduct(3, (0, 0), (4, 0)))
    with pytest.raises(DomainError):
        CQProduct(1, (), ())


def test_cq_product_value_semantics():
    p = CQProduct(3, [0, 0], (4, 0))
    assert p.a == (0, 0) and isinstance(p.a, tuple) and p.b == (4, 0)
    assert repr(p) == "CQProduct(n=3, a=(0, 0), b=(4, 0))"
    assert p == CQProduct(n=3, a=(0, 0), b=(4, 0))
    assert hash(p) == hash(CQProduct(3, (0, 0), (4, 0)))
    assert p != CQProduct(3, (0, 0), (3, 1))
    assert p != (3, (0, 0), (4, 0))
    assert len({p, CQProduct(3, (0, 0), (4, 0)), CQProduct(3, (1, 0), (3, 0))}) == 2
    assert pickle.loads(pickle.dumps(p)) == p
    assert p.total_degree() == 4
    with pytest.raises(AttributeError):
        p.n = 4
    with pytest.raises(AttributeError):
        del p.a
    with pytest.raises(AttributeError):
        p.extra = 1
    assert p == CQProduct(3, (0, 0), (4, 0))


def test_cq_product_validation_errors():
    with pytest.raises(DomainError, match="CQ_n needs n >= 2"):
        CQProduct(1, (), ())
    with pytest.raises(DomainError, match="exponent vectors must have length 2"):
        CQProduct(3, (0,), (4, 0))
    with pytest.raises(DomainError, match="negative exponent"):
        CQProduct(3, (0, -1), (4, 0))
    with pytest.raises(TypeError):
        CQProduct(3, (0, 0))


def test_non_integer_exponents_are_domain_errors():
    # checked once, when the exponent profile is built; 0.0 == 0 must not
    # slip through, nor 3.0 reach the volume table
    with pytest.raises(DomainError, match="non-integer exponent"):
        integrate_monomial(3, (0, 0), (3.0, 2))
    with pytest.raises(DomainError, match="non-integer exponent"):
        integrate_monomial(3, (0.0, 1), (2, 2))
    with pytest.raises(DomainError, match="non-integer exponent"):
        CQProduct(3, (0, 0), (Fraction(3), 2))


def test_cq2_plane():
    # CQ_2 is the plane of binary quadrics: L_1^2 = 1, and the conic class
    # S_1 = 2 L_1 makes S_1 L_1 = 2, S_1^2 = 4
    assert integrate_monomial(2, (0,), (2,)) == 1
    assert integrate_monomial(2, (1,), (1,)) == 2
    assert integrate_monomial(2, (2,), (0,)) == 4


def test_surplus_degeneration_normalization():
    # squaring one degeneration class agrees with expanding it into the
    # hyperplane basis first
    for n in (3, 4):
        dim = cq_dimension(n)
        for r in range(1, n):
            a = tuple(2 if j == r else 0 for j in range(1, n))
            b = [0] * (n - 1)
            b[0] = dim - 2
            direct = integrate_monomial(n, a, tuple(b))
            s_class = DivisorClass.degeneration(n, r)
            expanded = 0
            single_a = tuple(1 if j == r else 0 for j in range(1, n))
            for j in range(1, n):
                coeff = s_class.coeffs[j - 1]
                if coeff == 0:
                    continue
                bb = list(b)
                bb[j - 1] += 1
                expanded += coeff * integrate_monomial(n, single_a, tuple(bb))
            assert direct == expanded


def _vanishing_cases(n):
    """All exponent profiles with every a_i in {0,1}, at least one zero, and
    hyperplane exponents supported on the nonzero slots only."""
    dim = cq_dimension(n)
    cases = []
    for a in product((0, 1), repeat=n - 1):
        if all(a) or sum(a) == 0:
            continue
        ones = [i for i, x in enumerate(a) if x]
        free = dim - sum(a)
        if free < 0:
            continue
        for split in _compositions(free, len(ones)):
            b = [0] * (n - 1)
            for slot, amount in zip(ones, split):
                b[slot] = amount
            cases.append((a, tuple(b)))
    return cases


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _expand_all_degenerations(n, a, b):
    """Rewrite every S factor through S_i = -L_{i-1} + 2L_i - L_{i+1},
    yielding hyperplane-only exponent profiles with coefficients."""
    terms = {tuple(b): Fraction(1)}
    for i in range(n - 1):
        for _ in range(a[i]):
            new = {}
            for bt, coeff in terms.items():
                for j, c in ((i - 1, -1), (i, 2), (i + 1, -1)):
                    if 0 <= j <= n - 2:
                        nb = list(bt)
                        nb[j] += 1
                        key = tuple(nb)
                        new[key] = new.get(key, Fraction(0)) + coeff * c
            terms = new
    return terms


def test_vanishing_lemma_against_full_expansion():
    for n in (3, 4):
        for a, b in _vanishing_cases(n):
            shortcut = integrate_monomial(n, a, b)
            assert shortcut == 0
            expanded = sum(
                coeff * integrate_monomial(n, (0,) * (n - 1), bt)
                for bt, coeff in _expand_all_degenerations(n, a, b).items()
            )
            assert expanded == 0


def _stratum_dimension(n, a, J):
    """Dimension of the smallest space the L_j, j in J, factor through on
    the stratum cut out by the S_i with a_i = 1: that of the partial flag
    variety of the cut points J needs, plus dim CQ_m for every block (of
    size m) that holds a j of J inside it."""
    cuts = [0] + [i for i in range(1, n) if a[i - 1]] + [n]
    flag, blocks = set(), set()
    for j in J:
        if a[j - 1]:
            flag.add(j)
        else:
            t = max(t for t, c in enumerate(cuts) if c < j)
            blocks.add(t)
            flag.update(c for c in cuts[t : t + 2] if 0 < c < n)
    points = sorted(flag | {0, n})
    gaps = [q - p for p, q in zip(points, points[1:])]
    flag_dim = sum(x * y for x, y in combinations(gaps, 2))
    return flag_dim + sum(cq_dimension(cuts[t + 1] - cuts[t]) for t in blocks)


def test_stratum_bound_equals_subset_check():
    # the longest-path bound against sum_J b_j > D_J over every subset J,
    # on every a in {0,1}^(n-1) and every top-degree b, n <= 6
    checked = 0
    for n in range(2, 7):
        for a in product((0, 1), repeat=n - 1):
            # bit j - 1 of a mask marks j in J
            dims = [
                _stratum_dimension(n, a, [j for j in range(1, n) if mask >> (j - 1) & 1])
                for mask in range(2 ** (n - 1))
            ]
            for b in _compositions(cq_dimension(n) - sum(a), n - 1):
                sums = [0]
                for x in b:
                    sums += [y + x for y in sums]
                brute = any(y > dim for y, dim in zip(sums, dims))
                assert quadrics._exceeds_stratum(n, a, b) == brute, (n, a, b)
                checked += 1
    assert checked == 2 + 20 + 326 + 7392 + 216002


def _states_per_case(cases):
    """The memo states that the reduction stores, summed over the cases
    with n <= 4, each run on cleared caches.

    The reduction asks the bound by its module name, so with the name
    patched to False it must walk more states.  Every state of a case is
    itself a case of these lists, so the memo of one shared run holds the
    same states either way; hence one run per case, kept to n <= 4 to stay
    fast.
    """
    total = 0
    for case in cases:
        if case[0] <= 4:
            quadrics.clear_caches()
            integrate_monomial(*case)
            total += len(quadrics._product_memo)
    quadrics.clear_caches()
    return total


def test_stratum_bound_fires_exactly_on_zeros(monkeypatch):
    # on every a in {0,1}^(n-1) and top-degree b with n <= 5, the bound
    # holds exactly where the reduction without it gives 0
    cases = [
        (n, a, b)
        for n in range(2, 6)
        for a in product((0, 1), repeat=n - 1)
        for b in _compositions(cq_dimension(n) - sum(a), n - 1)
    ]
    fires = [quadrics._exceeds_stratum(n, a, b) for n, a, b in cases]
    pruned_states = _states_per_case(cases)
    quadrics.clear_caches()
    monkeypatch.setattr(quadrics, "_exceeds_stratum", lambda n, a, b: False)
    try:
        for (n, a, b), fired in zip(cases, fires):
            assert fired == (integrate_monomial(n, a, b) == 0), (n, a, b)
        assert _states_per_case(cases) > pruned_states
    finally:
        quadrics.clear_caches()
    assert sum(fires) and not all(fires)


def test_stratum_bound_keeps_surplus_values(monkeypatch):
    # S^a L^b with a in {0,1,2}^(n-1), n <= 5, with and without the bound
    cases = [
        (n, a, b)
        for n in range(2, 6)
        for a in product((0, 1, 2), repeat=n - 1)
        if sum(a) <= cq_dimension(n)
        for b in _compositions(cq_dimension(n) - sum(a), n - 1)
    ]
    quadrics.clear_caches()
    pruned = [integrate_monomial(*case) for case in cases]
    pruned_states = _states_per_case(cases)
    monkeypatch.setattr(quadrics, "_exceeds_stratum", lambda n, a, b: False)
    try:
        assert [integrate_monomial(*case) for case in cases] == pruned
        assert _states_per_case(cases) > pruned_states
    finally:
        quadrics.clear_caches()


def test_clear_caches_empties_every_reduction_cache():
    quadrics.clear_caches()
    # a surplus node, an open node with two adjacent zero slots (a
    # mixed-basis rewrite), one-free-slot nodes and their flag leaves
    assert integrate_monomial(4, (2, 0, 0), (2, 3, 2)) == -32
    caches = (quadrics._shape, quadrics._mixed_basis_expansion)
    assert quadrics._product_memo and schubert._integral_memo
    assert all(cache.cache_info().currsize for cache in caches)
    quadrics.clear_caches()
    assert not quadrics._product_memo and not schubert._integral_memo
    assert not any(cache.cache_info().currsize for cache in caches)


def test_cq7_product_within_reach():
    assert integrate_monomial(7, (0,) * 6, (4, 4, 4, 4, 4, 7)) == 55087374336


def test_schubert_characteristic_numbers_of_quadric_surfaces():
    # mu^(9-k) nu^k on quadric surfaces, Schubert's column (Kalkuel der
    # abzaehlenden Geometrie, 1879); its nodes reach the one-free-slot form
    quadrics.clear_caches()
    column = [integrate_monomial(4, (0, 0, 0), (9 - k, k, 0)) for k in range(10)]
    assert column == [1, 2, 4, 8, 16, 32, 56, 80, 92, 92]


def _one_free_slot_by_recursion(n, i, b, memo):
    """S^a L^b with a_i = 0 the only zero, by the three-term recursion
    V(b) = (F(b - e_i) + V(b - e_i + e_{i-1}) + V(b - e_i + e_{i+1})) / 2
    over the public `flag_integral`, with V = 0 once b_i = 0."""
    if b not in memo:
        if not b[i]:
            memo[b] = 0
        else:
            down = b[:i] + (b[i] - 1,) + b[i + 1 :]
            total = 2 ** binomial(n, 2) * flag_integral(n, down)
            for j in (i - 1, i + 1):
                if 0 <= j <= n - 2:
                    total += _one_free_slot_by_recursion(
                        n, i, down[:j] + (down[j] + 1,) + down[j + 1 :], memo
                    )
            assert total % 2 == 0, (n, i, b)
            memo[b] = total // 2
    return memo[b]


def test_one_free_slot_closed_form_equals_recursion():
    # every one-zero node with n <= 5, and a seeded sample at n = 6
    rng = random.Random(23)
    checked = nonzero = 0
    for n in range(2, 7):
        for i in range(n - 1):
            a = tuple(0 if j == i else 1 for j in range(n - 1))
            bs = list(_compositions(cq_dimension(n) - (n - 2), n - 1))
            if n == 6:
                bs = rng.sample(bs, 150)
            memo = {}
            for b in bs:
                quadrics.clear_caches()
                value = integrate_monomial(n, a, b)
                assert value == _one_free_slot_by_recursion(n, i, b, memo), (n, a, b)
                checked += 1
                nonzero += value != 0
    assert checked == 1 + 2 * 5 + 3 * 36 + 4 * 364 + 5 * 150
    assert nonzero


def test_duality_all_pairs_small_n():
    for n in range(2, 5):
        dim = cq_dimension(n)
        for x in range(dim + 1):
            y = dim - x
            b1 = [0] * (n - 1)
            b1[0] += x
            b1[n - 2] += y
            b2 = [0] * (n - 1)
            b2[0] += y
            b2[n - 2] += x
            assert integrate_monomial(n, (0,) * (n - 1), tuple(b1)) == integrate_monomial(
                n, (0,) * (n - 1), tuple(b2)
            )


def test_reduction_order_independence():
    rng = random.Random(17)

    def random_pick(candidates):
        return rng.choice(candidates)

    def largest_pick(candidates):
        return candidates[-1]

    cases = [
        (3, (0, 0), (3, 2)),
        (3, (0, 1), (4, 0)),
        (4, (0, 0, 0), (4, 3, 2)),
        (4, (0, 1, 0), (5, 0, 3)),
        (4, (1, 0, 0), (0, 4, 4)),
    ]
    for n, a, b in cases:
        base = integrate_monomial(n, a, b)
        assert integrate_monomial(n, a, b, pick=largest_pick) == base
        for _ in range(4):
            assert integrate_monomial(n, a, b, pick=random_pick) == base


def test_phi_rows():
    assert [phi(3, d) for d in range(1, 7)] == [1, 2, 4, 4, 2, 1]
    assert [phi(4, d) for d in range(1, 10)] == [1, 3, 9, 17, 21, 21, 17, 9, 3]
    assert phi(2, 1) == 1


def test_phi_range_errors():
    with pytest.raises(DomainError):
        phi(3, 0)
    with pytest.raises(DomainError):
        phi(3, 7)
    with pytest.raises(DomainError):
        phi(1, 1)


def test_delta_examples():
    assert delta(1, 3, 1) == 0
    assert delta(1, 3, 2) == 3
    assert delta(2, 3, 2) == 6
    # consistency with the phi relation that produced those values
    assert delta(1, 3, 2) == 3 * phi(3, 1) - 2 * delta(1, 3, 1)
    assert delta(2, 3, 2) == 3 * phi(3, 2) - 2 * delta(2, 3, 1)


def test_pataki_examples():
    assert pataki_nonzero(1, 3, 2) is True
    assert pataki_nonzero(1, 3, 1) is False
    assert pataki_nonzero(5, 3, 1) is True
    with pytest.raises(DomainError):
        pataki_nonzero(0, 3, 1)
    with pytest.raises(DomainError):
        pataki_nonzero(1, 3, 3)


def test_pataki_matches_delta_small():
    for n in (2, 3, 4):
        top = binomial(n + 1, 2)
        for m in range(1, top):
            for r in range(1, n):
                assert (delta(m, n, r) != 0) == pataki_nonzero(m, n, r)


def test_phi_from_delta():
    assert phi_from_delta(3, 1) == 1
    assert phi_from_delta(4, 3) == 9
    # boundary column: no hyperplane factor of the first kind remains, the
    # value comes from the duality with the opposite corner
    assert phi_from_delta(3, 6) == 1
    for n in (2, 3, 4):
        for d in range(1, binomial(n + 1, 2) + 1):
            assert phi_from_delta(n, d) == phi(n, d)


def _corner(n, first, last):
    b = [0] * (n - 1)
    b[0] += first
    b[-1] += last
    return tuple(b)


def test_delta_closed_form_matches_reduction():
    # the Nie-Ranestad-Sturmfels sum against the reduction of
    # S_r L_1^(top-m-1) L_{n-1}^(m-1), on every admissible triple with n <= 6
    checked = 0
    for n in range(2, 7):
        top = binomial(n + 1, 2)
        for m in range(1, top):
            for r in range(1, n):
                a = tuple(int(j == r) for j in range(1, n))
                expected = integrate_monomial(n, a, _corner(n, top - m - 1, m - 1))
                assert delta(m, n, r) == expected, (m, n, r)
                checked += 1
    assert checked == 195


def test_phi_closed_form_matches_reduction():
    for n in range(2, 7):
        top = binomial(n + 1, 2)
        for d in range(1, top + 1):
            expected = integrate_monomial(n, (0,) * (n - 1), _corner(n, top - d, d - 1))
            assert phi(n, d) == expected, (n, d)


def test_phi_c_closed_form_matches_reduction():
    # the Cartan-inverse sum of deltas against the reduction of
    # L_c L_1^(top-d-1) L_{n-1}^(d-1), on every admissible triple with n <= 6
    checked = 0
    for n in range(2, 7):
        top = binomial(n + 1, 2)
        for c in range(1, n):
            for d in range(1, top):
                b = list(_corner(n, top - d - 1, d - 1))
                b[c - 1] += 1
                expected = integrate_monomial(n, (0,) * (n - 1), b)
                assert phi_c(n, c, d) == expected, (n, c, d)
                checked += 1
    assert checked == 195


def _psi_by_expansion(index):
    """psi_I by the first-row expansion of the Pfaffian, with no memo."""
    if len(index) % 2:
        index = (0,) + index
    if not index:
        return 1
    i, rest = index[0], index[1:]
    total = 0
    for k, j in enumerate(rest):
        pair = sum(binomial(i + j - 2, t - 1) for t in range(i, j)) if i else 2 ** (j - 1)
        total += (-1) ** k * pair * _psi_by_expansion(rest[:k] + rest[k + 1 :])
    return total


def test_psi_elimination_matches_expansion():
    for size in range(9):
        for index in combinations(range(1, 9), size):
            assert _psi(index) == _psi_by_expansion(index), index


def test_psi_small_values():
    # psi_(i) = 2^(i-1); psi_(i,j) = sum_{k=i}^{j-1} C(i+j-2, k-1);
    # longer I by the Pfaffian of the pair values, with 0 in front when |I|
    # is odd and psi_(0,j) = psi_(j)
    assert _psi(()) == 1
    assert [_psi((i,)) for i in (1, 2, 3, 4)] == [1, 2, 4, 8]
    assert _psi((1, 2)) == 1
    assert _psi((1, 3)) == 3
    assert _psi((2, 3)) == 3
    assert _psi((1, 4)) == 7
    assert _psi((2, 4)) == 10
    assert _psi((3, 4)) == 10
    # 1*3 - 2*3 + 4*1
    assert _psi((1, 2, 3)) == 1
    # psi_12 psi_34 - psi_13 psi_24 + psi_14 psi_23 = 10 - 30 + 21
    assert _psi((1, 2, 3, 4)) == 1
    # 2*10 - 4*10 + 8*3
    assert _psi((2, 3, 4)) == 4


def test_closed_forms_do_not_reduce(monkeypatch):
    def refuse(*args):
        raise AssertionError("reduction called")

    monkeypatch.setattr(quadrics, "_reduce", refuse)
    monkeypatch.setattr(quadrics, "flag_integral", refuse)
    monkeypatch.setattr(quadrics, "_weyl_integral", refuse)
    assert phi(7, 3) == 36
    assert phi_c(7, 3, 4) == 3 * phi(7, 4)
    assert phi_c(4, 2, 2) == 6
    assert phi_from_delta(5, 15) == 1
    assert delta(4, 5, 3) == delta(11, 5, 2)
    assert phi_polynomial(3) == UnivariatePolynomial([1, -2, 1])
    assert delta_polynomial(2, 1) == UnivariatePolynomial([0, -1, 1])


def test_phi_polynomial_degree_at_larger_d():
    # Sturmfels-Uhler: phi(n, d) is a polynomial in n of degree d - 1
    for d in range(1, 13):
        assert phi_polynomial(d).degree() == d - 1, d
    assert phi(8, 3) == 49 == phi_polynomial(3)(8)
    assert phi(20, 10) == 4116734161
    # past the reach of a memoized first-row Pfaffian expansion
    assert phi(30, 3) == 29**2 and phi(40, 3) == 39**2
    assert phi(24, 10) == 25582740403


def test_delta_polynomial_degree_and_zero():
    for m in range(1, 7):
        for s in range(1, 4):
            poly = delta_polynomial(m, s)
            assert poly.degree() <= m, (m, s)
            assert poly(0) == 0, (m, s)


def test_phi_c():
    assert phi_c(4, 2, 2) == 6
    assert phi_c(3, 2, 1) == 2
    for n in (3, 4):
        for d in range(1, binomial(n + 1, 2)):
            assert phi_c(n, 1, d) == phi(n, d)


def test_phi_c_window():
    for n in (2, 3, 4):
        for c in range(1, n):
            for d in range(1, binomial(n + 1, 2)):
                if binomial(n - c + 2, 2) > d:
                    assert phi_c(n, c, d) == c * phi(n, d)


def test_phi_polynomial():
    assert phi_polynomial(1) == UnivariatePolynomial([1])
    assert phi_polynomial(2) == UnivariatePolynomial([-1, 1])
    assert phi_polynomial(3) == UnivariatePolynomial([1, -2, 1])


def test_delta_polynomial():
    # delta(1, n, n-1) = n * phi(n, 1) = n: degree one, vanishing at zero
    p11 = delta_polynomial(1, 1)
    assert p11 == UnivariatePolynomial([0, 1])
    assert p11(0) == 0
    p21 = delta_polynomial(2, 1)
    assert p21(3) == delta(2, 3, 2) == 6
    assert p21(0) == 0
    # identically-zero support: the window is empty for these parameters
    assert delta_polynomial(1, 2).is_zero()


def test_hypersurface_characteristic_number():
    assert hypersurface_characteristic_number(5, 2, 0) == 1
    assert hypersurface_characteristic_number(5, 2, 1) == 8
    assert hypersurface_characteristic_number(7, 2, 2) == 144
    assert hypersurface_characteristic_number(7, 3, 1) == 3 * 36
    with pytest.raises(DomainError, match="outside theorem hypotheses"):
        hypersurface_characteristic_number(6, 2, 1)
    with pytest.raises(DomainError, match="outside theorem hypotheses"):
        hypersurface_characteristic_number(5, 2, 9)
    with pytest.raises(DomainError, match="outside theorem hypotheses"):
        hypersurface_characteristic_number(4, 2, 0)


def _chern_coefficient(k, m, d, e):
    """[h^k] (1+h)^(m+1) / (1+dh)^e: the tangent bundle of P^m over the
    normal bundle of e general degree-d hypersurfaces, as integers."""
    if k < 0:
        return 0
    return sum(binomial(m + 1, j) * binomial(e - 1 + k - j, k - j) * (-d) ** (k - j)
               for j in range(k + 1))


def test_hypersurface_count_base_by_pencil_euler_characteristic():
    # The base n(d-1)^(n-1) is the degree of tangency to a hyperplane
    # H = P^m, m = n - 1: the discriminant of degree-d forms on H, which
    # counts the singular members of a general pencil on H.  Each has one
    # node, so with X a smooth member and B the base locus,
    # chi(P^m) = 2 chi(X) - chi(B) + (-1)^m #singular (Dimca 1992; Eisenbud-
    # Harris, 3264 and All That).  The b-th power stays the theorem's claim.
    for m in range(1, 12):
        n = m + 1
        for d in range(2, 15):
            chi_x = d * _chern_coefficient(m - 1, m, d, 1)
            chi_b = d * d * _chern_coefficient(m - 2, m, d, 2)
            singular = (-1) ** m * (m + 1 + chi_b - 2 * chi_x)
            assert singular == n * (d - 1) ** (n - 1), (m, d)
            if d == 5 or d >= 7:
                assert hypersurface_characteristic_number(d, n, 1) == singular


def _delta_sums_verdict(groups, n, limit, monkeypatch):
    """`_delta_sums` on groups of terms on one n, with `limit` index sets of
    budget and every psi stubbed to 1: the sums, or None when it refuses
    (then before any psi ran)."""
    psi_calls = []
    monkeypatch.setattr(quadrics, "_DELTA_WORK", limit * n**3)
    monkeypatch.setattr(quadrics, "_psi", lambda index: psi_calls.append(index) or 1)
    try:
        return quadrics._delta_sums(groups)
    except DomainError as err:
        m = groups[0][0][1]
        assert str(err) == (
            f"delta(m={m}, n={n}) needs over {limit} index sets at O(n^3) "
            f"each, past its work budget"
        )
        assert not psi_calls
        return None


def test_index_set_count_matches_enumeration(monkeypatch):
    # `_delta_sums` refuses exactly the sums over r whose enumerated index
    # sets are over its budget, and otherwise sums psi over those same sets
    for n in range(1, 10):
        counts = {}
        for k in range(n + 1):
            for m in range(-1, binomial(n + 1, 2) + 2):
                count = sum(1 for c in combinations(range(1, n + 1), k) if sum(c) == m)
                assert sum(1 for _ in quadrics._subsets(1, n, k, m)) == count
                counts[n - k, m] = count
        for m in range(-1, binomial(n + 1, 2) + 2):
            for rs in [(r,) for r in range(n + 1)] + [tuple(range(1, n))]:
                total = sum(counts[r, m] for r in rs)
                # as one group, and as one group per r
                for groups in ([[(r + 1, m, n, r) for r in rs]], [[(r + 1, m, n, r)] for r in rs]):
                    sums = [sum((r + 1) * counts[r, m] for _, _, _, r in g) for g in groups]
                    for limit in {0, max(total - 1, 0), total, total + 1}:
                        got = _delta_sums_verdict(groups, n, limit, monkeypatch)
                        assert got == (None if total > limit else sums), (m, n, rs, limit)


def test_delta_over_budget_is_refused_at_once():
    # C(40, 20) index sets, 1,420,064,031 of them summing to 400, each two
    # 40 x 40 Pfaffians
    start = time.perf_counter()
    with pytest.raises(DomainError, match="work budget"):
        delta(400, 40, 20)
    assert time.perf_counter() - start < 1


def test_phi_over_budget_is_refused_before_any_term(monkeypatch):
    def no_pfaffian(index):
        raise AssertionError("a delta term ran")

    monkeypatch.setattr(quadrics, "_psi", no_pfaffian)
    for call in (lambda: phi(40, 400), lambda: phi_c(40, 3, 400)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="work budget"):
            call()
        assert time.perf_counter() - start < 1


def test_polynomials_over_budget_are_refused_before_any_term(monkeypatch):
    # every sample of these is within the budget on its own, but not all
    # of a polynomial's samples together
    def no_pfaffian(index):
        raise AssertionError("a delta term ran")

    monkeypatch.setattr(quadrics, "_psi", no_pfaffian)
    for call in (lambda: phi_polynomial(40), lambda: delta_polynomial(60, 3),
                 lambda: delta_polynomial(100, 5)):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="work budget"):
            call()
        assert time.perf_counter() - start < 1
    for n in range(9, 50):
        with pytest.raises(AssertionError, match="a delta term ran"):
            quadrics._delta_sums([quadrics._phi_c_terms(n, 1, 40)])


def test_phi_within_budget_still_answers():
    # phi(n, d) is a polynomial in n of degree d - 1, sampled at small n
    assert phi(20, 10) == phi_polynomial(10)(20)
    assert phi(30, 20) == phi_polynomial(20)(30)


def test_delta_outside_pataki_window_is_zero_at_once():
    # no 20-subset of 1..40 sums to 700: the enumeration prunes it at once
    start = time.perf_counter()
    assert delta(700, 40, 20) == 0 and not pataki_nonzero(700, 40, 20)
    assert time.perf_counter() - start < 1


# Khovanskii-Teissier (Teissier 1979; Lazarsfeld, Positivity I, 1.6): for nef
# classes A and B on a D-dimensional variety the mixed degrees
# A^k B^(D-k) form a log-concave sequence.  Each L_j is base-point-free,
# hence nef; the S_i are only effective and are never used here.


def _l_power(n, coeffs, k):
    """(sum of coeffs[j-1] L_j)^k, expanded as {exponent vector: coefficient}."""
    power = {(0,) * (n - 1): 1}
    for _ in range(k):
        out = {}
        for e, c in power.items():
            for j, x in enumerate(coeffs):
                if x:
                    f = e[:j] + (e[j] + 1,) + e[j + 1 :]
                    out[f] = out.get(f, 0) + c * x
        power = out
    return power


def _l_integral(n, *factors):
    """Integral over CQ_n of the product of the expanded `factors`, which
    together have degree dim CQ_n."""
    total = {(0,) * (n - 1): 1}
    for factor in factors:
        out = {}
        for e, c in total.items():
            for f, d in factor.items():
                g = tuple(x + y for x, y in zip(e, f))
                out[g] = out.get(g, 0) + c * d
        total = out
    return sum(c * integrate_monomial(n, (0,) * (n - 1), e) for e, c in total.items())


def _nef_combination(rng, n):
    """Nonnegative integer coefficients of L_1..L_{n-1}, not all 0."""
    coeffs = [rng.randint(0, 3) for _ in range(n - 1)]
    coeffs[rng.randrange(n - 1)] += 1
    return coeffs


def test_phi_rows_are_log_concave():
    # phi(n, d) is the integral of L_1^(C(n+1,2)-d) L_{n-1}^(d-1)
    for n in range(3, 9):
        assert is_log_concave([phi(n, d) for d in range(1, binomial(n + 1, 2) + 1)]), n


def test_two_hyperplane_classes_are_log_concave():
    sequences = 0
    for n in range(3, 7):
        top = cq_dimension(n)
        for i, j in combinations(range(n - 1), 2):
            row = []
            for k in range(top + 1):
                b = [0] * (n - 1)
                b[i], b[j] = k, top - k
                row.append(integrate_monomial(n, (0,) * (n - 1), b))
            assert is_log_concave(row), (n, i + 1, j + 1)
            sequences += 1
    assert sequences == 20


def test_nef_combinations_are_log_concave():
    rng = random.Random(27)
    for n in (3, 4, 5):
        top = cq_dimension(n)
        for _ in range(3):
            a, b = _nef_combination(rng, n), _nef_combination(rng, n)
            row = [
                _l_integral(n, _l_power(n, a, k), _l_power(n, b, top - k))
                for k in range(top + 1)
            ]
            assert is_log_concave(row), (n, a, b)
            assert all(row), (n, a, b)


def test_alexandrov_fenchel_on_nef_classes():
    # (A.B.G)^2 >= (A.A.G)(B.B.G) for nef A, B and G a product of D - 2
    # nef classes, here a monomial in the L_j
    rng = random.Random(28)
    for n in (3, 4):
        top = cq_dimension(n)
        for _ in range(6):
            a, b = _nef_combination(rng, n), _nef_combination(rng, n)
            gamma = {rng.choice(list(_compositions(top - 2, n - 1))): 1}
            ab = _l_integral(n, _l_power(n, a, 1), _l_power(n, b, 1), gamma)
            aa = _l_integral(n, _l_power(n, a, 2), gamma)
            bb = _l_integral(n, _l_power(n, b, 2), gamma)
            assert ab * ab >= aa * bb, (n, a, b, gamma)
