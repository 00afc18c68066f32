import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest

from cqcalc import toric
from cqcalc.exactmath import (
    DomainError,
    determinant,
    is_log_concave,
    localization_sum,
    solve_linear_system,
)
from cqcalc.matroid import reduced_characteristic_coefficients, uniform_matroid
from cqcalc.toric import (
    Fan,
    ToricClass,
    format_fan,
    localized_integral,
    multiply_by_divisor,
    mu_generic,
    parse_fan,
    permutohedral_divisors,
    permutohedral_fan,
    toric_integral,
)
from test_exactmath import _det_by_fractions


def _hexagon():
    return permutohedral_fan(2)


def _ray_index(fan):
    return {label: i for i, label in enumerate(fan.ray_labels)}


def test_permutohedral_counts():
    for n, rays, cones in [(1, 2, 2), (2, 6, 6), (3, 14, 24)]:
        fan = permutohedral_fan(n)
        assert len(fan.rays) == rays == 2 ** (n + 1) - 2
        assert len(fan.maximal_cones) == cones


def test_permutohedral_smooth_complete():
    for n in range(1, 5):
        fan = permutohedral_fan(n)
        assert fan.check_smooth()
        assert fan.check_complete()


def test_hexagon_relations():
    fan = _hexagon()
    idx = _ray_index(fan)
    x1 = ToricClass(fan, 1, {frozenset({idx["x1"]}): 1})
    # disjoint facets multiply to zero
    assert multiply_by_divisor(x1, {idx["x2"]: 1}).terms == {}
    assert multiply_by_divisor(x1, {idx["x23"]: 1}).terms == {}
    # nested facets meet in a vertex with multiplicity one
    point = multiply_by_divisor(x1, {idx["x12"]: 1})
    assert point.terms == {frozenset({idx["x1"], idx["x12"]}): 1}
    assert toric_integral(point) == 1


def test_hexagon_full_multiplication_table():
    # products of distinct facet classes: zero unless the subsets are
    # nested, and every nonzero product is the point class
    fan = _hexagon()
    idx = _ray_index(fan)
    nested = {
        frozenset({"x1", "x12"}), frozenset({"x2", "x12"}),
        frozenset({"x2", "x23"}), frozenset({"x3", "x23"}),
        frozenset({"x3", "x13"}), frozenset({"x1", "x13"}),
    }
    for a in fan.ray_labels:
        for b in fan.ray_labels:
            if a == b:
                continue
            cls = ToricClass(fan, 1, {frozenset({idx[a]}): 1})
            product = multiply_by_divisor(cls, {idx[b]: 1})
            if frozenset({a, b}) in nested:
                assert toric_integral(product) == 1, (a, b)
            else:
                assert product.terms == {}, (a, b)


def test_hexagon_linear_relations():
    # the ray coordinates encode the two linear relations of the facet
    # presentation: x1 + x12 - x23 - x3 and x2 + x12 - x3 - x13
    fan = _hexagon()
    coeffs = {
        label: fan.rays[i] for i, label in enumerate(fan.ray_labels)
    }
    first = {label: vec[0] for label, vec in coeffs.items()}
    second = {label: vec[1] for label, vec in coeffs.items()}
    assert first == {"x1": 1, "x12": 1, "x23": -1, "x3": -1, "x2": 0, "x13": 0}
    assert second == {"x2": 1, "x12": 1, "x3": -1, "x13": -1, "x1": 0, "x23": 0}


def test_hexagon_squares():
    # every boundary curve of the hexagon surface has self-intersection -1
    fan = _hexagon()
    idx = _ray_index(fan)
    for label in fan.ray_labels:
        cls = ToricClass(fan, 1, {frozenset({idx[label]}): 1})
        square = multiply_by_divisor(cls, {idx[label]: 1})
        assert toric_integral(square) == -1


def test_hexagon_h1_h2():
    fan = _hexagon()
    idx = _ray_index(fan)
    h1, h2 = permutohedral_divisors(fan)
    assert {fan.ray_labels[i] for i in h1} == {"x1", "x12", "x13"}
    assert {fan.ray_labels[i] for i in h2} == {"x2", "x3", "x23"}
    product = multiply_by_divisor(multiply_by_divisor(ToricClass.unit(fan), h1), h2)
    expected = {
        frozenset({idx["x2"], idx["x12"]}): Fraction(1),
        frozenset({idx["x3"], idx["x13"]}): Fraction(1),
    }
    assert product.terms == expected
    assert toric_integral(product) == 2
    # each pullback squares to the class of a fiber point
    h1h1 = multiply_by_divisor(multiply_by_divisor(ToricClass.unit(fan), h1), h1)
    assert toric_integral(h1h1) == 1
    h2h2 = multiply_by_divisor(multiply_by_divisor(ToricClass.unit(fan), h2), h2)
    assert toric_integral(h2h2) == 1


def test_mu_generic_values():
    assert mu_generic(1) == [1, 1]
    assert mu_generic(2) == [1, 2, 1]
    assert mu_generic(3) == [1, 3, 3, 1]
    assert mu_generic(5) == [1, 5, 10, 10, 5, 1]
    assert mu_generic(6) == [1, 6, 15, 20, 15, 6, 1]


def _mu_generic_by_multiplies(n):
    """The squarefree-rewriting route: H1^k built once for k = 0..n, then
    each power multiplied by H2 up to the top degree."""
    fan = permutohedral_fan(n)
    h1, h2 = permutohedral_divisors(fan)
    powers = [ToricClass.unit(fan)]
    for _ in range(n):
        powers.append(multiply_by_divisor(powers[-1], h1))
    out = []
    for i in range(n + 1):
        cls = powers[n - i]
        for _ in range(i):
            cls = multiply_by_divisor(cls, h2)
        out.append(toric_integral(cls))
    return out


def _integral_by_multiplies(fan, divisors):
    cls = ToricClass.unit(fan)
    for divisor in divisors:
        cls = multiply_by_divisor(cls, divisor)
    return toric_integral(cls)


# The hexagon `--fan` file of the cli benchmark workload.
HEXAGON_FILE = ("2 6 6\n1 0\n1 1\n0 1\n-1 0\n-1 -1\n0 -1\n"
                "1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n")


def test_mu_generic_matches_multiplies():
    for n in range(1, 6):
        value = mu_generic(n)
        assert value == _mu_generic_by_multiplies(n), n
        assert all(type(x) is int for x in value)


def test_localized_integral_matches_multiplies():
    # seeded products of `rank` integer divisors, rays outside the fan
    # included; a parsed copy has no pairs, so it takes the solve route
    rng = random.Random(16)
    fans = [permutohedral_fan(n) for n in (2, 3, 4)]
    fans += [parse_fan(format_fan(fan)) for fan in fans]
    fans.append(parse_fan(HEXAGON_FILE))
    assert fans[-1].check_smooth() and fans[-1].check_complete()
    checked = nonzero = 0
    for fan in fans:
        nrays = len(fan.rays)
        for _ in range(20 if fan.rank < 4 else 10):
            divisors = [{ray: rng.randint(-3, 3)
                         for ray in rng.sample(range(-1, nrays + 1), rng.randint(2, 8))}
                        for _ in range(fan.rank)]
            value = localized_integral(fan, divisors)
            assert value == _integral_by_multiplies(fan, divisors), divisors
            checked += 1
            nonzero += value != 0
    assert checked == 120 and nonzero > 80


def _localized_at(fan, divisors, weights):
    return localization_sum((prod(values), euler)
                            for euler, values in toric._restrict(fan, divisors, weights))


def test_localized_integral_weights_and_degree(monkeypatch):
    fan = permutohedral_fan(3)
    parsed = parse_fan(format_fan(fan))
    h1, h2 = permutohedral_divisors(fan)
    for divisors in ([h1, h1, h2], [h1, h2, h2], [{0: 2, 5: -1}, h2, {13: 1}]):
        expected = _integral_by_multiplies(fan, divisors)
        assert localized_integral(fan, divisors) == expected
        assert localized_integral(parsed, divisors) == expected
        for weights in ((1, 5, 25), (2, -7, 3)):
            assert _localized_at(fan, divisors, weights) == expected
            assert _localized_at(parsed, divisors, weights) == expected
    # a weight vector on which some <m, t> vanishes
    with pytest.raises(DomainError, match="zero weight"):
        _localized_at(fan, [h1, h1, h2], (1, 1, 2))
    # two rays of the first cone trade pairs: the cone's pairs no longer
    # certify it, so the fan drops them, all three of its functionals are
    # solved, there and in `_dual`, and every other cone keeps its pairs
    pairs = [_chain_pairs(fan.subsets, cone) for cone in fan.maximal_cones]
    pairs[0] = pairs[0][2:4] + pairs[0][:2] + pairs[0][4:]
    swapped = Fan(fan.rank, fan.rays, fan.maximal_cones, pairs=pairs)
    assert swapped._cone_pairs == (None, *pairs[1:])
    solves = _count_calls(monkeypatch, "solve_linear_system")
    rng = random.Random(5)
    for _ in range(5):
        divisors = [{ray: rng.randint(-3, 3) for ray in range(len(fan.rays))} for _ in range(3)]
        solves.clear()
        assert localized_integral(swapped, divisors) == _integral_by_multiplies(fan, divisors)
        assert len(solves) == 3
    solves.clear()
    first = fan.maximal_cones[0]
    for ray in first:
        assert swapped._dual(first, ray) == fan._dual(first, ray)
    assert len(solves) == 3
    for divisors in ([h1, h2], [h1, h1, h2, h2], []):
        with pytest.raises(DomainError, match="degree mismatch"):
            localized_integral(fan, divisors)
    with pytest.raises(DomainError, match="integer divisors"):
        localized_integral(fan, [h1, h1, {0: Fraction(1, 2)}])
    # the route fills neither the cone nor the dual-row cache
    fresh = permutohedral_fan(3)
    assert localized_integral(fresh, [h1, h1, h2]) == mu_generic(3)[1]
    assert not fresh._cone_lookup and not fresh._dual_cache


def test_mu_generic_matches_uniform_matroid():
    for n in range(1, 6):
        mu = mu_generic(n)
        red = reduced_characteristic_coefficients(uniform_matroid(n + 1, n + 1))
        assert tuple(mu) == red
        assert mu == mu[::-1]
        assert is_log_concave(mu)


def test_multiplication_order_independence():
    fan = permutohedral_fan(3)
    h1, h2 = permutohedral_divisors(fan)
    rng = random.Random(31)
    target = None
    for _ in range(5):
        sequence = [h1, h2, h1]
        rng.shuffle(sequence)
        cls = ToricClass.unit(fan)
        for d in sequence:
            cls = multiply_by_divisor(cls, d)
        value = toric_integral(cls)
        if target is None:
            target = value
        assert value == target
    assert target == mu_generic(3)[1]


def test_degree_mismatch_integral():
    fan = _hexagon()
    idx = _ray_index(fan)
    cls = ToricClass(fan, 1, {frozenset({idx["x1"]}): 1})
    with pytest.raises(DomainError, match="degree mismatch"):
        toric_integral(cls)
    assert toric_integral(ToricClass(fan, 2, {})) == 0


def test_class_validation():
    fan = _hexagon()
    idx = _ray_index(fan)
    with pytest.raises(DomainError):
        ToricClass(fan, 2, {frozenset({idx["x1"], idx["x2"]}): 1})


def test_fan_file_round_trip(tmp_path):
    fan = permutohedral_fan(2)
    text = format_fan(fan)
    parsed = parse_fan(text)
    assert parsed.rays == fan.rays
    assert parsed.maximal_cones == fan.maximal_cones
    assert parsed.check_smooth() and parsed.check_complete()


def test_non_smooth_fan_detected():
    # quadric cone: single 2-dimensional cone with a non-unimodular pair
    fan = Fan(2, [(1, 0), (1, 2)], [(0, 1)])
    with pytest.raises(DomainError, match="not smooth"):
        fan.check_smooth()


def _count_calls(monkeypatch, name):
    """The matrix of each call `toric` makes to its kernel `name` from here
    on."""
    calls = []
    kernel = getattr(toric, name)

    def counted(matrix, *rest):
        calls.append(matrix)
        return kernel(matrix, *rest)

    monkeypatch.setattr(toric, name, counted)
    return calls


def _chain_pairs(subsets, cone):
    """The pairs of a cone whose rays' subsets form a maximal chain
    S_1 < ... < S_n with S_k = {p_1..p_k}: S_k pairs with (p_k, p_{k+1}),
    as one flat tuple, lowest ray first.  None for any other cone."""
    order = sorted(cone, key=lambda i: len(subsets[i]))
    chain = [frozenset(), *(subsets[i] for i in order), frozenset(range(1, len(cone) + 2))]
    steps = list(zip(chain, chain[1:]))
    if not all(below < here and len(here - below) == 1 for below, here in steps):
        return None
    perm = [min(here - below) for below, here in steps]
    by_ray = dict(zip(order, zip(perm, perm[1:])))
    return sum((by_ray[ray] for ray in sorted(cone)), ())


def _relabelled(fan, rays=None, subsets=None):
    """The fan's cones over other rays or other subset labels, with the
    pairs that the labels' chains give."""
    subsets = subsets or fan.subsets
    pairs = [_chain_pairs(subsets, cone) for cone in fan.maximal_cones]
    return Fan(fan.rank, rays or fan.rays, fan.maximal_cones, pairs=pairs, subsets=subsets)


def _reference_permutohedral(n):
    """The permutohedral fan's data the slow way: subsets sorted by (size,
    elements) and indexed by a dict, one chain per permutation, the pairs
    of each chain from `_chain_pairs`, and the cones sorted by their rays."""
    universe = range(1, n + 2)
    subsets = sorted((frozenset(s) for size in range(1, n + 1)
                      for s in combinations(universe, size)),
                     key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(subsets)}
    cones = sorted((frozenset(index[frozenset(perm[:k])] for k in range(1, n + 1))
                    for perm in permutations(universe)), key=sorted)
    return {
        "rays": tuple(tuple((i in s) - (n + 1 in s) for i in range(1, n + 1)) for s in subsets),
        "ray_labels": tuple("x" + "".join(map(str, sorted(s))) for s in subsets),
        "subsets": subsets,
        "maximal_cones": tuple(cones),
        "_cone_masks": tuple(sum(1 << i for i in cone) for cone in cones),
        "_cone_pairs": tuple(_chain_pairs(subsets, cone) for cone in cones),
    }


def test_permutohedral_build_matches_reference():
    for n in range(1, 7):
        fan = permutohedral_fan(n)
        for name, expected in _reference_permutohedral(n).items():
            assert getattr(fan, name) == expected, (n, name)
        if n > 4:
            continue
        # cones given out of order are sorted with their masks and pairs
        given = list(zip(fan.maximal_cones, fan._cone_pairs))
        random.Random(n).shuffle(given)
        shuffled = Fan(n, fan.rays, [c for c, _ in given], pairs=[p for _, p in given])
        assert shuffled.maximal_cones == fan.maximal_cones
        assert shuffled._cone_masks == fan._cone_masks
        assert shuffled._cone_pairs == fan._cone_pairs


def test_pairs_need_one_entry_per_cone():
    fan = _hexagon()
    for pairs in (fan._cone_pairs[1:], fan._cone_pairs + (None,), (), iter(fan._cone_pairs[:3])):
        with pytest.raises(DomainError, match="one entry per maximal cone"):
            Fan(2, fan.rays, fan.maximal_cones, pairs=pairs)
    # any iterable of the right length is read
    again = Fan(2, fan.rays, fan.maximal_cones, pairs=iter(fan._cone_pairs))
    assert again._cone_pairs == fan._cone_pairs


def test_permutohedral_cones_certified_without_determinants(monkeypatch):
    calls = _count_calls(monkeypatch, "determinant")
    for n in range(1, 7):
        fan = permutohedral_fan(n)
        # the pairs the fan is built with are those of its subset chains
        assert _relabelled(fan)._cone_pairs == fan._cone_pairs
        assert None not in fan._cone_pairs
        assert fan.check_smooth()
        # the certificate fills neither the cone nor the dual-row cache
        assert not fan._cone_lookup and not fan._dual_cache
        # the fraction route would take seconds on the 5,040 cones of n = 6,
        # so there the Bareiss kernel (unpatched, so not counted) decides
        det = _det_by_fractions if n < 6 else determinant
        for cone in fan.maximal_cones:
            assert abs(det([list(fan.rays[i]) for i in sorted(cone)])) == 1
    assert calls == []


def test_subset_labelled_fan_with_doubled_ray_not_smooth(monkeypatch):
    calls = _count_calls(monkeypatch, "determinant")
    fan = permutohedral_fan(3)
    rays = list(fan.rays)
    rays[13] = tuple(2 * x for x in rays[13])
    first = next(k for k, cone in enumerate(fan.maximal_cones) if 13 in cone)
    assert first == 9
    with pytest.raises(DomainError, match="fan not smooth"):
        _relabelled(fan, rays=rays).check_smooth()
    # the cones before the first one holding the doubled ray are certified,
    # so the only determinant is that cone's
    assert calls == [[rays[i] for i in sorted(fan.maximal_cones[first])]]


def test_mismatched_subset_labels_fall_back_to_determinant(monkeypatch):
    calls = _count_calls(monkeypatch, "determinant")
    fan = permutohedral_fan(3)
    # a unimodular shear keeps every cone a lattice basis, but moves the rays
    # off the quotient vectors of their subsets
    sheared = [(x + y, y, z) for x, y, z in fan.rays]
    sheared_fan = _relabelled(fan, rays=sheared)
    assert set(sheared_fan._cone_pairs) == {None}
    assert sheared_fan.check_smooth()
    assert len(calls) == len(fan.maximal_cones)
    # a pair that fails is not kept: the dual functionals are the solve's
    plain = Fan(fan.rank, sheared, fan.maximal_cones)
    for cone in fan.maximal_cones:
        for ray in cone:
            assert sheared_fan._dual(cone, ray) == plain._dual(cone, ray), (cone, ray)
    # shuffled labels: most cones are no longer chains of subsets
    calls.clear()
    subsets = list(fan.subsets)
    random.Random(3).shuffle(subsets)
    shuffled = _relabelled(fan, subsets=subsets)
    assert shuffled.check_smooth()
    assert len(calls) == shuffled._cone_pairs.count(None) > 0
    # each cone given the next cone's pairs: a cone's pairs are the dual
    # basis of that cone alone, so no moved tuple certifies its cone, the
    # fan drops every one and each cone takes its determinant
    calls.clear()
    pairs = [_chain_pairs(fan.subsets, cone) for cone in fan.maximal_cones]
    moved = Fan(fan.rank, fan.rays, fan.maximal_cones, pairs=pairs[1:] + pairs[:1])
    assert set(moved._cone_pairs) == {None}
    assert moved.check_smooth()
    assert len(calls) == len(fan.maximal_cones)


def _scan_is_dual(fan, cone, ray, a, b):
    """Whether e_a - e_b is the dual functional of `ray` in the cone, by
    walking the cone's rays, each padded to coordinates 0..rank+1 (the
    quotient drops rank+1)."""
    for j in cone:
        u = (0, *fan.rays[j], 0)
        if u[a] - u[b] != (j == ray):
            return False
    return True


def _scan_certifies(fan, cone, pairs):
    """Whether every ray of the cone, lowest first, has its pair in
    `pairs` as its dual functional, by `_scan_is_dual`."""
    return all(_scan_is_dual(fan, cone, ray, a, b)
               for ray, a, b in zip(sorted(cone), pairs[::2], pairs[1::2]))


def test_mask_certificate_matches_ray_scan(monkeypatch):
    calls = _count_calls(monkeypatch, "determinant")
    for n in range(1, 5):
        fan = permutohedral_fan(n)
        coordinates = range(1, n + 2)
        chains = [_chain_pairs(fan.subsets, cone) for cone in fan.maximal_cones]
        sheared = [(u[0] + sum(u[1:]), *u[1:]) for u in fan.rays]
        # every pair (a, b) in turn replaces one ray's pair in its cone's
        # chain; the variants are copies of the cone, so one fan holds them
        # all, and on the fan's rays the chain's other pairs pass, so the
        # kept tuples are those whose swept pair passes the scan
        cones, swept = [], []
        for cone, chain in zip(fan.maximal_cones, chains):
            for k in range(0, 2 * n, 2):
                for a in coordinates:
                    for b in coordinates:
                        cones.append(cone)
                        swept.append(chain[:k] + (a, b) + chain[k + 2:])
        for rays in (sheared, fan.rays):
            copy = Fan(n, rays, cones, pairs=swept)
            assert copy.maximal_cones == tuple(cones)
            kept = [pairs if _scan_certifies(copy, cone, pairs) else None
                    for cone, pairs in zip(cones, swept)]
            assert copy._cone_pairs == tuple(kept), (n, rays is sheared)
        # on the fan's rays exactly one pair is the dual of each ray of a
        # cone, so each cone keeps its own chain once per ray
        assert len(kept) - kept.count(None) == len(chains) * n == len(cones) // (n + 1) ** 2
        # whole tuples: the chains of shuffled labels, and each ray given
        # the pair of the next ray of its cone
        subsets = list(fan.subsets)
        random.Random(n).shuffle(subsets)
        shuffled = [_chain_pairs(subsets, cone) for cone in fan.maximal_cones]
        rotated = [chain[2:] + chain[:2] for chain in chains]
        for rays, given in ((fan.rays, chains), (sheared, chains), (fan.rays, shuffled),
                            (fan.rays, rotated)):
            calls.clear()
            copy = Fan(n, rays, fan.maximal_cones, pairs=given)
            kept = tuple(pairs if pairs is not None and _scan_certifies(copy, cone, pairs)
                         else None for cone, pairs in zip(fan.maximal_cones, given))
            assert copy._cone_pairs == kept
            assert copy.check_smooth()
            assert len(calls) == kept.count(None)
        # past the line, a rotated pair is never the dual of its ray
        assert kept.count(None) == (len(fan.maximal_cones) if n > 1 else 0)


def test_bad_pairs_certify_nothing(monkeypatch):
    # a coordinate outside 1..rank+1 (0 and -1 would index the padding), or
    # an entry that is not a tuple of 2 * rank ints, certifies nothing: the
    # fan keeps None for that cone, and its determinant and the solve decide
    calls = _count_calls(monkeypatch, "determinant")
    fan = _hexagon()
    plain = Fan(2, fan.rays, fan.maximal_cones)
    h1, h2 = permutohedral_divisors(fan)
    pairs = [_chain_pairs(fan.subsets, cone) for cone in fan.maximal_cones]
    # the pair of the first cone's highest ray is replaced
    head, (a, b) = pairs[0][:2], pairs[0][2:]
    assert b == 3
    tails = [(7, 1), (1, 7), (a, 0), (a, -1), (0, b), (a, 4), (a, 3.0), (a, "3"),
             (a, None), (a, [3]), (a,), (a, b, 1), ((a, b),), (a, (b,))]
    bad_entries = [head + tail for tail in tails]
    # a list, a nested tuple, the map from ray to pair, a bare int, a str
    bad_entries += [list(pairs[0]), (head, (a, b)),
                    dict(zip(sorted(fan.maximal_cones[0]), (head, (a, b)))),
                    a, str(pairs[0])]
    for bad in bad_entries:
        given = list(pairs)
        given[0] = bad
        calls.clear()
        bad_fan = Fan(2, fan.rays, fan.maximal_cones, pairs=given)
        assert bad_fan._cone_pairs == (None, *pairs[1:]), bad
        assert bad_fan.check_smooth() and bad_fan.check_complete()
        assert calls == [[fan.rays[i] for i in sorted(fan.maximal_cones[0])]], bad
        for cone in fan.maximal_cones:
            for j in cone:
                assert bad_fan._dual(cone, j) == plain._dual(cone, j), (bad, cone, j)
        assert localized_integral(bad_fan, [h1, h2]) == 2


def test_incomplete_fan_detected():
    # one quadrant only
    fan = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(DomainError, match="not complete"):
        fan.check_complete()
    # the facet {} of a line is shared by three cones
    fan = Fan(1, [(1,), (-1,), (2,)], [(0,), (1,), (2,)])
    with pytest.raises(DomainError, match="not complete"):
        fan.check_complete()
    # no maximal cone at all
    with pytest.raises(DomainError, match="not complete"):
        Fan(2, [(1, 0), (0, 1), (-1, -1)], []).check_complete()


def test_spans_cone_matches_linear_scan():
    for n in (1, 2, 3):
        fan = permutohedral_fan(n)
        for size in range(n + 1):
            for subset in combinations(range(len(fan.rays)), size):
                scan = any(frozenset(subset) <= cone for cone in fan.maximal_cones)
                assert fan.spans_cone(subset) == scan, (n, subset)
        # ray indices outside the fan span nothing, and -1 does not wrap
        assert not fan.spans_cone({len(fan.rays)})
        assert not fan.spans_cone({-1})
        assert not fan.spans_cone({0, -1})


def test_cones_kept_as_masks_until_read():
    for n in range(1, 6):
        fan = permutohedral_fan(n)
        assert fan._ray_cones is None and fan._maximal_cones is None
        # Bott's route, both checks and the fan file read only the masks
        h1, h2 = permutohedral_divisors(fan)
        assert localized_integral(fan, [h1] * (n - 1) + [h2]) == n
        assert fan.check_smooth() and fan.check_complete()
        assert parse_fan(format_fan(fan))._cone_masks == fan._cone_masks
        assert fan._ray_cones is None and fan._maximal_cones is None
        # the first lookup builds each ray's cone mask, as the OR of the
        # bits of the cones that hold the ray
        assert fan.spans_cone({0})
        expected = [0] * len(fan.rays)
        for index, mask in enumerate(fan._cone_masks):
            for ray in range(len(fan.rays)):
                if mask >> ray & 1:
                    expected[ray] |= 1 << index
        assert fan._ray_cones == expected
        # the sets are built once, on first read
        assert fan.maximal_cones is fan.maximal_cones
        masks = [sum(1 << ray for ray in cone) for cone in fan.maximal_cones]
        assert masks == list(fan._cone_masks)
    # a ray listed twice would carry in a cone's mask
    for cone in ((0, 0), (0, 0, 1)):
        with pytest.raises(DomainError, match="rank many distinct rays"):
            Fan(2, [(1, 0), (0, 1), (-1, -1)], [cone])


def test_dual_rows_match_linear_solve():
    for n in (1, 2, 3, 4):
        fan = permutohedral_fan(n)
        for cone in fan.maximal_cones:
            order = sorted(cone)
            matrix = [list(fan.rays[i]) for i in order]
            for ray in order:
                m = solve_linear_system(matrix, [1 if i == ray else 0 for i in order])
                assert fan.dual_functional(cone, ray) == tuple(m)
                values = [-sum(a * b for a, b in zip(m, u)) for u in fan.rays]
                # on the cone's own rays m is the indicator of `ray`
                assert all(values[i] == (-1 if i == ray else 0) for i in order)
                row = tuple((s, v) for s, v in enumerate(values) if s not in cone and v)
                assert fan._dual(cone, ray)[1] == row
                # a face gets the functional of the first maximal cone above it
                face = frozenset({ray})
                parent = next(c for c in fan.maximal_cones if face <= c)
                assert fan.dual_functional(face, ray) == fan.dual_functional(parent, ray)


def test_closed_form_dual_rows_match_parsed_fan(monkeypatch):
    # a fan read back from its file has no pairs, so its dual rows come from
    # the linear solve, one per (cone, ray); the built fan reads each ray's
    # functional off its pair and solves nothing
    solves = _count_calls(monkeypatch, "solve_linear_system")
    for n in (1, 2, 3, 4, 5):
        fan = permutohedral_fan(n)
        parsed = parse_fan(format_fan(fan))
        assert parsed.subsets is None and parsed.maximal_cones == fan.maximal_cones
        assert set(parsed._cone_pairs) == {None}
        for cone in fan.maximal_cones:
            for ray in cone:
                solves.clear()
                assert fan._dual(cone, ray) == parsed._dual(cone, ray), (n, cone, ray)
                assert len(solves) == 1


def test_pairs_certified_once_when_built(monkeypatch):
    # the fan certifies its pairs when it is built and never again: with
    # the pair test made to raise, a fan built before answers as one built
    # beside it
    built = [permutohedral_fan(n) for n in range(1, 5)]
    expected = []
    for fan in [permutohedral_fan(n) for n in range(1, 5)]:
        h1, h2 = permutohedral_divisors(fan)
        expected.append((fan.check_smooth(),
                         [fan._dual(cone, ray) for cone in fan.maximal_cones for ray in cone],
                         localized_integral(fan, [h1] * (fan.rank - 1) + [h2])))

    def refuse(*args):
        raise AssertionError("pairs certified again")

    monkeypatch.setattr(toric, "_pairs_certify", refuse)
    for fan, (smooth, duals, value) in zip(built, expected):
        assert fan.check_smooth() == smooth
        assert [fan._dual(cone, ray) for cone in fan.maximal_cones for ray in cone] == duals
        h1, h2 = permutohedral_divisors(fan)
        assert localized_integral(fan, [h1] * (fan.rank - 1) + [h2]) == value == fan.rank


def test_multiply_with_fraction_coefficients():
    # integer coefficients stay int; a fractional one falls back to Fraction
    fan = _hexagon()
    h1, h2 = permutohedral_divisors(fan)
    whole = multiply_by_divisor(multiply_by_divisor(ToricClass.unit(fan), h1), h2)
    assert all(type(c) is int for c in whole.terms.values())
    half = {ray: Fraction(1, 2) for ray in h2}
    halved = multiply_by_divisor(multiply_by_divisor(ToricClass.unit(fan), h1), half)
    assert {k: 2 * c for k, c in halved.terms.items()} == whole.terms
    assert toric_integral(halved) == Fraction(1) and toric_integral(whole) == 2
    point = ToricClass(fan, 2, {k: Fraction(3, 4) for k in whole.terms})
    assert toric_integral(point) == Fraction(3, 2)


def test_divisor_rays_outside_fan_add_nothing():
    fan = _hexagon()
    idx = _ray_index(fan)
    x1 = ToricClass(fan, 1, {frozenset({idx["x1"]}): 1})
    for ray in (-1, len(fan.rays), 99):
        assert multiply_by_divisor(x1, {ray: 1}).terms == {}
    point = multiply_by_divisor(x1, {idx["x12"]: 1, -1: 5})
    assert point.terms == {frozenset({idx["x1"], idx["x12"]}): 1}


def test_bareiss_det_matches_fraction_elimination():
    rng = random.Random(41)
    matrices = [[], [[0]], [[0, 1], [1, 0]], [[0, 0], [1, 2]]]
    for size in range(1, 7):
        for _ in range(40):
            m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
            matrices.append(m)
            # a zero leading pivot forces a row swap
            swapped = [row[:] for row in m]
            swapped[0][0] = 0
            matrices.append(swapped)
            if size > 1:
                # last row a combination of rows 0 and size-2: singular
                k = rng.randint(-3, 3)
                singular = [row[:] for row in m]
                singular[-1] = [k * a + b for a, b in zip(m[0], m[size - 2])]
                matrices.append(singular)
    singular_count = 0
    for m in matrices:
        expected = _det_by_fractions(m)
        got = determinant(m)
        assert isinstance(got, int) and got == expected, m
        singular_count += expected == 0
    assert singular_count >= 200
    # rational entries: each row is scaled to integers and the scales undone
    for m in matrices[4::5]:
        rational = [[Fraction(a, rng.randint(1, 6)) for a in row] for row in m]
        assert determinant(rational) == _det_by_fractions(rational), rational
