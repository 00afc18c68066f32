"""Chow rings of smooth complete toric varieties from fan data.

A fan is given by primitive ray vectors and maximal cones (index sets of
full dimension).  Classes live in the squarefree-monomial presentation: a
degree-k class is a combination of k-subsets of rays that span a cone.
Multiplication by a divisor uses the linear relations of the presentation
to rewrite repeated rays; on a smooth fan the needed dual functionals are
integral rows of inverted cone matrices.

Which route answers:

* storage: a `Fan` keeps each maximal cone once, as the int bit mask of
  its rays, beside its pairs; everything below reads the masks, and the
  frozensets of `maximal_cones` are built on first read;
* cone membership: each ray carries a bit mask of the maximal cones that
  contain it, built on the first lookup, and a ray set, itself an int bit
  mask of ray indices, spans a cone iff the AND of its rays' masks is
  nonzero (memoized per ray mask); the lowest set bit is the first maximal
  cone containing the set;
* products: a class keeps its terms keyed by ray mask, and
  `multiply_by_divisor` runs on `int` coefficients, falling back to
  `Fraction` only when a class or divisor coefficient is not an integer;
* pairs: a cone's pairs are one flat tuple (a_1, b_1, ..., a_rank,
  b_rank), lowest ray first, naming m = e_a - e_b as the dual functional
  of each of its rays.  The permutohedral fan gives the ray S_k of the
  cone of the chain S_1 < ... < S_n of a permutation p the pair
  (p_k, p_{k+1}), so its tuple is p interleaved with p_2..p_(n+1).  A
  cone's pairs are used for all of its rays or for none: the cone is
  certified when every pair passes <m, u_j> = [j is its ray] on the
  cone's rays, since the pairs then invert the rays over the integers,
  which forces determinant +-1.  Each cone is certified once, when the
  fan is built, and `_cone_pairs` keeps a cone's tuple only if it
  certifies the cone, else None; the readers below test for None and
  nothing else.  While the fan is built, each pair (a, b) of coordinates
  has two masks over all rays: Z of the rays u with u[a] - u[b] = 0 and
  O of those with u[a] - u[b] = 1, so a cone costs `rank` mask tests
  (at n = 8 about 1.1 s, on top of 1.8 s for the rest of the build,
  Python 3.11, shared 2-CPU host);
* smoothness: a certified cone needs nothing more; any other cone (every
  `--fan` cone, one with a pair that fails or names a coordinate outside
  1..rank+1, or whose entry is not a tuple of 2 * rank ints) is decided
  by one `determinant`;
* dual functionals, cached per (maximal cone, ray) with their row, the
  nonzero coefficients -<m, u_sigma> over the rays outside the cone, which
  is all a product needs: m is e_a - e_b for the ray's pair on a
  certified cone, otherwise one `solve_linear_system` on the cone's rays;
* top-degree products of divisors (`localized_integral`, and
  `mu_generic` through the same restrictions): Bott's residue formula
  over the maximal cones, the torus fixed points.  Each ray of a cone
  restricts to <m, t> for its dual functional m there, t_a - t_b on a
  certified cone (no row is built), or else solved;
  `exactmath.localization_sum` adds the residues exactly.  No class is
  built, so no cone lookup and no dual row is cached, and no per-ray cone
  mask is built.  `mu_generic` reaches n = 8, where the fan has 362,880
  cones: about 10 s and a 240 MB peak, reached while the fan is built,
  against 0.8 s and 39 MB at n = 7 (Python 3.11, shared 2-CPU host);
  `permutohedral_fan` refuses n > 8.
  `multiply_by_divisor` is its test oracle.

Both solve and determinant are `exactmath`'s single fraction-free
(Bareiss) integer elimination.

The permutohedral fan has one ray per proper nonempty subset S of
{1..n+1} (the image of the indicator vector of S in the quotient lattice)
and one maximal cone per maximal chain of subsets.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from operator import itemgetter, mul

from .exactmath import (
    DomainError,
    _integer_line,
    determinant,
    localization_sum,
    solve_linear_system,
)


def _bits(mask):
    """The indices of the set bits of a mask, lowest first, as a list; taken
    highest first, since `bit_length` names the top bit at less cost than
    `mask & -mask` the lowest."""
    bits = []
    while mask:
        top = mask.bit_length() - 1
        bits.append(top)
        mask ^= 1 << top
    bits.reverse()
    return bits


def _exact(coeff):
    """A coefficient as an `int` when it is integral, else a `Fraction`."""
    coeff = Fraction(coeff)
    return coeff.numerator if coeff.denominator == 1 else coeff


def _pairs_certify(mask, pairs, pair_masks):
    """True iff each pair (a, b) of the flat tuple `pairs` gives
    m = e_a - e_b with <m, u_j> = [j is its ray] over the rays of the cone
    with ray mask `mask`: the ray's bit is in the pair's O and every other
    ray's in its Z, where `pair_masks` maps (a, b) to (Z, O) and a pair it
    lacks certifies nothing.  This is the only pair test, and `Fan` runs it
    once per cone, when it is built."""
    # The rays are taken highest first, so their pairs are read from the
    # end of the tuple.
    rest, k = mask, len(pairs)
    while rest:
        bit = 1 << rest.bit_length() - 1
        k -= 2
        zero, one = pair_masks.get((pairs[k], pairs[k + 1]), (0, 0))
        if not one & bit or mask & ~zero != bit:
            return False
        rest ^= bit
    return True


class Fan:
    """Rational fan, assumed (and checkable) smooth and complete.

    Each maximal cone is kept once, as its ray mask in `_cone_masks`
    beside its pairs in `_cone_pairs`, ordered by sorted ray indices; a
    cone's pairs are certified once, here, and kept only if they certify
    it, else None.  `maximal_cones` is built on first read, and
    `_ray_cones` on the first cone lookup."""

    __slots__ = ("rank", "rays", "_maximal_cones", "_ray_cones", "_cone_lookup",
                 "_dual_cache", "_cone_pairs", "_cone_masks", "ray_labels", "subsets")

    def __init__(self, rank, rays, maximal_cones, ray_labels=None, pairs=None,
                 subsets=None):
        """`pairs`, if given, has one entry per maximal cone, in order: None,
        or the flat tuple (a_1, b_1, ..., a_rank, b_rank) that gives the
        cone's k-th lowest ray the pair (a_k, b_k), the ray's dual
        functional e_a - e_b there.  a and b are coordinates 1..rank+1 of the
        quotient of Z^(rank+1) by the all-ones vector, with the last one
        dropped.  A cone's pairs are used for all of its rays or for none:
        an entry is kept only when it is a tuple of 2 * rank ints and
        `_pairs_certify` passes it, else it becomes None and the solve and
        the determinant decide.  `subsets` labels the rays for
        `permutohedral_divisors`."""
        self.subsets = subsets
        self.rank = rank
        self.rays = tuple(tuple(map(int, r)) for r in rays)
        if any(len(r) != rank for r in self.rays):
            raise DomainError("ray of wrong dimension")
        maximal_cones = list(maximal_cones)
        pair_masks = {}
        if pairs is None:
            pairs = [None] * len(maximal_cones)
        else:
            pairs = list(pairs)
            # Each ray padded to coordinates 0..rank+1 (the quotient drops
            # rank+1), so <e_a - e_b, u> = u[a] - u[b] for a, b in 1..rank+1.
            padded = [(0, *ray, 0) for ray in self.rays]
            coordinates = range(1, rank + 2)
            # (a, b) -> (Z, O), the masks of the rays u with u[a] - u[b] = 0
            # and = 1.
            pair_masks = {(a, b): (sum(1 << j for j, u in enumerate(padded) if u[a] == u[b]),
                                   sum(1 << j for j, u in enumerate(padded) if u[a] - u[b] == 1))
                          for a in coordinates for b in coordinates}
        if len(pairs) != len(maximal_cones):
            raise DomainError("pairs need one entry per maximal cone")
        nrays = len(self.rays)
        cones = []
        for cone, given in zip(maximal_cones, pairs):
            order = sorted(cone)
            if order and (order[0] < 0 or order[-1] >= nrays):
                raise DomainError("cone references unknown ray")
            # A repeated ray carries in the sum of the bits, which then has
            # fewer than len(order) of them.
            mask = sum(map((1).__lshift__, order))
            if len(order) != rank or mask.bit_count() != rank:
                raise DomainError("maximal cone must have rank many distinct rays")
            if not (isinstance(given, tuple) and len(given) == 2 * rank
                    and all(map(int.__instancecheck__, given))
                    and _pairs_certify(mask, given, pair_masks)):
                given = None
            cones.append((order, mask, given))
        # A stable sort, so equal cones keep their given order.
        cones.sort(key=itemgetter(0))
        self._cone_masks = tuple(map(itemgetter(1), cones))
        self._cone_pairs = tuple(map(itemgetter(2), cones))
        self._maximal_cones = None
        # Ray index -> bit mask of the maximal cones containing the ray,
        # built by the first cone lookup.
        self._ray_cones = None
        # Ray mask -> mask of the maximal cones containing it (0: no cone).
        self._cone_lookup = {}
        # (maximal cone index, ray) -> (dual functional, its nonzero row).
        self._dual_cache = {}
        self.ray_labels = tuple(ray_labels or (f"x{i+1}" for i in range(nrays)))

    @property
    def maximal_cones(self):
        """The maximal cones as frozensets of ray indices, in the fan's
        order, built on first read."""
        if self._maximal_cones is None:
            self._maximal_cones = tuple(frozenset(_bits(mask)) for mask in self._cone_masks)
        return self._maximal_cones

    def _ray_mask(self, ray_set):
        """Bit mask of a ray set, or None when an index lies outside the fan
        (such a set spans no cone)."""
        mask = 0
        for i in ray_set:
            if not 0 <= i < len(self.rays):
                return None
            mask |= 1 << i
        return mask

    def _cones_containing(self, rays):
        """Bit mask of the maximal cones containing a ray set, given as its
        int ray mask or as ray indices; 0 when none does, as for an index
        outside the fan.  Memoized per ray mask."""
        if not isinstance(rays, int):
            rays = self._ray_mask(rays)
            if rays is None:
                return 0
        cones = self._cone_lookup.get(rays)
        if cones is None:
            if self._ray_cones is None:
                # One bytearray per ray, read as an int once: OR-ing each
                # cone's bit into an int would copy a growing int each time.
                rows = [bytearray(len(self._cone_masks) + 7 >> 3) for _ in self.rays]
                for index, mask in enumerate(self._cone_masks):
                    for ray in _bits(mask):
                        rows[ray][index >> 3] |= 1 << (index & 7)
                self._ray_cones = [int.from_bytes(row, "little") for row in rows]
            cones = (1 << len(self._cone_masks)) - 1
            for ray in _bits(rays):
                cones &= self._ray_cones[ray]
            self._cone_lookup[rays] = cones
        return cones

    def spans_cone(self, ray_set):
        """True iff the rays span a cone of the fan (a face of a maximal cone)."""
        return self._cones_containing(ray_set) != 0

    def check_smooth(self):
        """Every maximal cone's rays must form a basis of the lattice.

        A cone with pairs kept was certified by them when the fan was
        built: if m_k = e_a - e_b, the pair of its ray u_k, has
        <m_k, u_j> = delta_kj over its rays u_j, an integer matrix inverts
        the cone's, so its determinant is +-1.  Any other cone is decided
        by its determinant."""
        for mask, pairs in zip(self._cone_masks, self._cone_pairs):
            if pairs is None and abs(determinant([self.rays[i] for i in _bits(mask)])) != 1:
                raise DomainError("fan not smooth")
        return True

    def check_complete(self):
        """Desk-scale completeness: there must be a maximal cone, and every
        facet of a maximal cone must be shared by exactly two of them.  A
        facet is a cone's ray mask with one ray's bit cleared; the facets are
        counted as they are made, never listed."""

        def facets():
            for mask in self._cone_masks:
                rest = mask
                while rest:
                    top = 1 << rest.bit_length() - 1
                    yield mask ^ top
                    rest ^= top

        if not self._cone_masks or set(Counter(facets()).values()) - {2}:
            raise DomainError("fan not complete")
        return True

    def dual_functional(self, cone_subset, ray_index):
        """Integer functional m with <m, u_ray> = 1 on `ray_index` and 0 on
        the other rays of the first maximal cone containing the subset."""
        return self._dual(cone_subset, ray_index)[0]

    def _dual(self, cone_subset, ray_index):
        """The dual functional m of `dual_functional` and its row: the pairs
        (sigma, -<m, u_sigma>) over the rays sigma outside that maximal cone
        where the value is nonzero (inside it, m vanishes off `ray_index`).
        The subset is a ray set or its int ray mask."""
        cones = self._cones_containing(cone_subset)
        if not cones:
            raise DomainError("subset spans no cone")
        parent = (cones & -cones).bit_length() - 1
        key = (parent, ray_index)
        cached = self._dual_cache.get(key)
        if cached is None:
            mask, pairs = self._cone_masks[parent], self._cone_pairs[parent]
            if pairs is not None and 0 <= ray_index and mask >> ray_index & 1:
                # The rays of the cone below ray_index come first in pairs.
                k = 2 * (mask & (1 << ray_index) - 1).bit_count()
                m = tuple((i == pairs[k]) - (i == pairs[k + 1]) for i in range(1, self.rank + 1))
            else:
                m = self._solved_functional(mask, ray_index)
            row = [(sigma, -sum(map(mul, m, u))) for sigma, u in enumerate(self.rays)
                   if not mask >> sigma & 1]
            cached = self._dual_cache[key] = (m, tuple((sigma, c) for sigma, c in row if c))
        return cached

    def _solved_functional(self, mask, ray_index):
        """m from the rays of the cone with ray mask `mask` by one linear
        solve, as a tuple of ints."""
        order = _bits(mask)
        matrix = [list(self.rays[i]) for i in order]
        rhs = [1 if i == ray_index else 0 for i in order]
        m = solve_linear_system(matrix, rhs)
        if any(c.denominator != 1 for c in m):
            raise DomainError("fan not smooth")
        return tuple(c.numerator for c in m)


class ToricClass:
    """Homogeneous Chow class in the squarefree cone-monomial spanning set.

    `terms` maps each monomial, a frozenset of ray indices, to its
    coefficient; the class itself keys them by ray mask."""

    __slots__ = ("fan", "degree", "_terms")

    def __init__(self, fan, degree, terms=None):
        masks = {}
        for key, coeff in (terms or {}).items():
            key = frozenset(key)
            coeff = _exact(coeff)
            if coeff == 0:
                continue
            if len(key) != degree:
                raise DomainError("term of wrong degree")
            mask = fan._ray_mask(key)
            if mask is None or not fan._cones_containing(mask):
                raise DomainError("term does not span a cone")
            masks[mask] = masks.get(mask, 0) + coeff
        self.fan, self.degree, self._terms = fan, degree, {k: c for k, c in masks.items() if c}

    @classmethod
    def _from_masks(cls, fan, degree, masks):
        """Class of ray-mask terms already known to span cones."""
        self = cls.__new__(cls)
        self.fan, self.degree, self._terms = fan, degree, {k: c for k, c in masks.items() if c}
        return self

    @classmethod
    def unit(cls, fan):
        return cls(fan, 0, {frozenset(): 1})

    @property
    def terms(self):
        return {frozenset(_bits(k)): c for k, c in self._terms.items()}

    def __eq__(self, other):
        return (
            isinstance(other, ToricClass)
            and self.fan is other.fan
            and self.degree == other.degree
            and self._terms == other._terms
        )

    def __repr__(self):
        labels = self.fan.ray_labels
        parts = [f"{c}*{'*'.join(labels[i] for i in _bits(k)) or '1'}"
                 for k, c in sorted(self._terms.items(), key=lambda term: _bits(term[0]))]
        return f"ToricClass({' + '.join(parts) or '0'})"


def multiply_by_divisor(cls, divisor):
    """Product of a class with a divisor given as ray-index -> coefficient.

    Distinct rays append to the monomial (or kill it when no cone contains
    the union); a repeated ray is rewritten through the dual functional of
    a containing maximal cone, turning it into a signed sum over the other
    rays of the fan.  A ray outside the fan spans no cone, so it adds
    nothing.
    """
    fan = cls.fan
    nrays = len(fan.rays)
    divisor = [(ray, _exact(d)) for ray, d in divisor.items() if 0 <= ray < nrays]
    # A class with terms has had them looked up, which built `_ray_cones`.
    lookup, ray_cones, dual = fan._cone_lookup, fan._ray_cones, fan._dual
    out = {}
    for key, coeff in cls._terms.items():
        # The cones containing key | sigma are those of key that hold sigma.
        key_cones = fan._cones_containing(key)
        for ray, d in divisor:
            scale = coeff * d
            if not scale:
                continue
            row = dual(key, ray)[1] if key >> ray & 1 else ((ray, 1),)
            for sigma, c in row:
                new = key | 1 << sigma
                cones = lookup.get(new)
                if cones is None:
                    cones = lookup[new] = key_cones & ray_cones[sigma]
                if cones:
                    out[new] = out.get(new, 0) + scale * c
    return ToricClass._from_masks(fan, cls.degree + 1, out)


def toric_integral(cls):
    """Degree map: on a smooth complete fan every maximal-cone monomial
    integrates to 1, so a top-degree class integrates to its coefficient sum."""
    if cls.degree != cls.fan.rank:
        raise DomainError("degree mismatch")
    return _exact(sum(cls._terms.values()))


def _restrict(fan, divisors, weights=None):
    """Yield, for every maximal cone sigma, e(sigma) and the restriction of
    each divisor there, evaluated at the weight t.

    Ray rho of sigma restricts to <m, t> for m its dual functional in
    sigma, and e(sigma) is the product of these over the rays of sigma; a
    ray outside sigma restricts to 0.  A cone's pairs are used for all of
    its rays or for none: on a cone whose pairs the fan kept, the ray with
    pair (a, b) gives t_a - t_b (t padded with t_(rank+1) = 0); on any
    other cone every ray's m is solved first, so that the default
    t = (1, K, K^2, ...) with K = 2 max |m_i| + 1 makes every <m, t>
    nonzero (its base-K digits are the entries of m).  By the localization
    theorem the sum of the residues does not depend on t; `weights`,
    `rank` ints, replaces the default t."""
    nrays = len(fan.rays)
    dense = [[0] * nrays for _ in divisors]
    for column, divisor in zip(dense, divisors):
        for ray, d in divisor.items():
            d = _exact(d)
            if not isinstance(d, int):
                raise DomainError("localized integral needs integer divisors")
            if 0 <= ray < nrays:
                column[ray] = d
    # Cone index -> the solved m of each of its rays, lowest first, for each
    # cone that kept no pairs.
    solved = {index: [fan._solved_functional(mask, ray) for ray in _bits(mask)]
              for index, (mask, pairs) in enumerate(zip(fan._cone_masks, fan._cone_pairs))
              if pairs is None}
    if weights is None:
        base = 2 * max((abs(c) for ms in solved.values() for m in ms for c in m),
                       default=1) + 1
        weights = [base**i for i in range(fan.rank)]
    padded = (0, *weights, 0)
    for index, (mask, pairs) in enumerate(zip(fan._cone_masks, fan._cone_pairs)):
        ms = solved.get(index)
        w = ([padded[a] - padded[b] for a, b in zip(pairs[::2], pairs[1::2])] if ms is None
             else [sum(map(mul, m, weights)) for m in ms])
        order = _bits(mask)
        yield prod(w), [sum(map(mul, map(column.__getitem__, order), w)) for column in dense]


def localized_integral(fan, divisors):
    """Integral of the product of `rank` divisors with integer
    coefficients, each a map ray index -> coefficient, on a smooth
    complete fan, by Bott's residue formula: the sum over the maximal cones
    sigma of prod_D D|sigma / e(sigma) (see `_restrict`), added by
    `localization_sum`.  A ray outside the fan adds nothing."""
    if len(divisors) != fan.rank:
        raise DomainError("degree mismatch")
    return localization_sum((prod(values), euler)
                            for euler, values in _restrict(fan, divisors))


def permutohedral_fan(n):
    """Normal fan of the n-dimensional permutohedron.

    Lives in the quotient of Z^(n+1) by the all-ones vector, coordinatized
    by dropping the last entry.  Rays are indexed by proper nonempty
    subsets S of {1..n+1}; maximal cones by maximal chains of subsets
    S_1 < ... < S_n, S_k = {p_1..p_k} for a permutation p, in which S_k's
    dual functional is e_(p_k) - e_(p_(k+1)).
    """
    # (n+1)! maximal cones: n = 7 peaks near 39 MB and n = 8 near 240 MB.
    if n > 8:
        raise DomainError(f"permutohedral fan needs n <= 8, got n = {n}")
    if n < 1:
        raise DomainError("need n >= 1")
    universe = range(1, n + 2)
    # `combinations` by size gives the subsets in (size, sorted) order.
    subsets = [frozenset(s) for size in range(1, n + 1) for s in combinations(universe, size)]
    # Bit mask of each subset (bit e for element e), and the ray index of
    # each subset at its mask.
    bits = [sum(map((1).__lshift__, s)) for s in subsets]
    ray_index = [0] * (2 << (n + 1))
    for i, mask in enumerate(bits):
        ray_index[mask] = i
    rays = [tuple((i in s) - (n + 1 in s) for i in range(1, n + 1)) for s in subsets]
    # The cone of a permutation p is its chain S_1 < ... < S_n, whose ray
    # indices ascend as the sizes grow.  The chain of p_1..p_k extends that
    # of p_1..p_(k-1) by the ray of S_(k-1) plus p_k.  Unused elements are
    # taken in ascending order, so the cones come in the lexicographic
    # order of their permutations, which is the order `Fan` keeps.
    cones = [(ray_index[1 << e],) for e in universe]
    for _ in range(n - 1):
        cones = [cone + (ray_index[mask | 1 << e],)
                 for cone in cones for mask in (bits[cone[-1]],)
                 for e in universe if not mask >> e & 1]
    # The pairs of the cone of p: (p_1, p_2, p_2, p_3, ..., p_n, p_(n+1)).
    interleave = itemgetter(*(k + j for k in range(n) for j in (0, 1)))
    pairs = list(map(interleave, permutations(universe)))
    labels = ["x" + "".join(map(str, sorted(s))) for s in subsets]
    return Fan(n, rays, cones, ray_labels=labels, pairs=pairs, subsets=subsets)


def permutohedral_divisors(fan):
    """The two hyperplane pullbacks on the permutohedral fan: H1 over the
    subsets containing 1, H2 over those avoiding it."""
    if fan.subsets is None:
        raise DomainError("fan carries no subset labels")
    h1 = {i: 1 for i, s in enumerate(fan.subsets) if 1 in s}
    return h1, {i: 1 for i in range(len(fan.subsets)) if i not in h1}


def mu_generic(n):
    """Bidegrees of the coordinate-inversion graph over projective n-space:
    mu_i integrates H1^(n-i) H2^i over the permutohedral fan.

    By `localized_integral`'s route: H1 and H2 are restricted to each
    maximal cone once, and the n + 1 degrees share the restrictions."""
    fan = permutohedral_fan(n)
    restricted = list(_restrict(fan, permutohedral_divisors(fan)))
    return [localization_sum((h1**(n - i) * h2**i, euler)
                             for euler, (h1, h2) in restricted)
            for i in range(n + 1)]


def parse_fan(text):
    """Parse the plain fan format: "rank #rays #cones" header, then one ray
    vector per line, then one maximal cone per line as 1-based ray indices."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DomainError("empty fan file")
    header = _integer_line(lines[0], "fan file")
    if len(header) != 3:
        raise DomainError("fan header must be 'rank #rays #cones'")
    rank, nrays, ncones = header
    if min(header) < 0:
        raise DomainError(f"fan header 'rank #rays #cones' must be nonnegative, "
                          f"got '{rank} {nrays} {ncones}'")
    if len(lines) != 1 + nrays + ncones:
        raise DomainError("fan file line count mismatch")
    rays = [tuple(_integer_line(lines[1 + i], "fan file")) for i in range(nrays)]
    cones = []
    for line in lines[1 + nrays:]:
        indices = _integer_line(line, "fan file")
        cone = frozenset(t - 1 for t in indices)
        if len(cone) < len(indices):
            raise DomainError(f"fan cone '{line.strip()}' repeats a ray")
        cones.append(cone)
    return Fan(rank, rays, cones)


def format_fan(fan):
    lines = [f"{fan.rank} {len(fan.rays)} {len(fan._cone_masks)}"]
    lines += [" ".join(str(x) for x in ray) for ray in fan.rays]
    lines += [" ".join(str(i + 1) for i in _bits(mask)) for mask in fan._cone_masks]
    return "\n".join(lines) + "\n"
