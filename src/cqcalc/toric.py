"""Chow rings of smooth complete toric varieties from fan data.

A fan is given by primitive ray vectors and maximal cones (index sets of
full dimension).  Classes live in the squarefree-monomial presentation: a
degree-k class is a combination of k-subsets of rays that span a cone.
Multiplication by a divisor uses the linear relations of the presentation
to rewrite repeated rays; on a smooth fan the needed dual functionals are
integral rows of inverted cone matrices.

Which route answers:

* cone membership: each ray carries a bit mask of the maximal cones that
  contain it, and a ray set, itself an int bit mask of ray indices, spans
  a cone iff the AND of its rays' masks is nonzero (memoized per ray
  mask); the lowest set bit is the first maximal cone containing the set;
* products: a class keeps its terms keyed by ray mask, and
  `multiply_by_divisor` runs on `int` coefficients, falling back to
  `Fraction` only when a class or divisor coefficient is not an integer;
* dual functionals, cached per (maximal cone, ray) with their row, the
  nonzero coefficients -<m, u_sigma> over the rays outside the cone, which
  is all a product needs:
  - on the permutohedral fan, in closed form: the cone of the chain
    S_1 < ... < S_n of a permutation p pairs its ray S_k with
    m = e_{p_k} - e_{p_{k+1}}, whose row over the rays G is
    [p_{k+1} in G] - [p_k in G]; that row depends only on the pair
    (p_k, p_{k+1}) and is built once per pair;
  - on any other fan (a `--fan` file), one `solve_linear_system` on the
    cone's rays;
* smoothness: on the permutohedral fan, each maximal cone is certified by
  its closed-form dual rows, an integer inverse of the cone's rays, which
  forces determinant +-1; on any other fan, and for a cone that fails the
  certificate, one `determinant` per maximal cone decides.

Both solve and determinant are `exactmath`'s single fraction-free
(Bareiss) integer elimination.

The permutohedral fan has one ray per proper nonempty subset S of
{1..n+1} (the image of the indicator vector of S in the quotient lattice)
and one maximal cone per maximal chain of subsets.
"""

from fractions import Fraction
from itertools import combinations

from .exactmath import DomainError, _integer_line, determinant, solve_linear_system


def _bits(mask):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _exact(coeff):
    """A coefficient as an `int` when it is integral, else a `Fraction`."""
    coeff = Fraction(coeff)
    return coeff.numerator if coeff.denominator == 1 else coeff


class Fan:
    """Rational fan, assumed (and checkable) smooth and complete."""

    __slots__ = ("rank", "rays", "maximal_cones", "_ray_cones", "_cone_lookup",
                 "_dual_cache", "_pair_rows", "ray_labels", "subsets")

    def __init__(self, rank, rays, maximal_cones, ray_labels=None):
        self.subsets = None
        self.rank = rank
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        if any(len(r) != rank for r in self.rays):
            raise DomainError("ray of wrong dimension")
        cones = []
        for cone in maximal_cones:
            cone = frozenset(cone)
            if any(not 0 <= i < len(self.rays) for i in cone):
                raise DomainError("cone references unknown ray")
            if len(cone) != rank:
                raise DomainError("maximal cone must have rank many rays")
            cones.append(cone)
        self.maximal_cones = tuple(sorted(cones, key=sorted))
        # Ray index -> bit mask of the maximal cones containing the ray.
        self._ray_cones = [0] * len(self.rays)
        for bit, cone in enumerate(self.maximal_cones):
            for i in cone:
                self._ray_cones[i] |= 1 << bit
        # Ray mask -> mask of the maximal cones containing it (0: no cone).
        self._cone_lookup = {}
        # (maximal cone index, ray) -> (dual functional, its nonzero row).
        self._dual_cache = {}
        # Permutohedral fans: (p_k, p_{k+1}) -> dual row over every ray.
        self._pair_rows = {}
        self.ray_labels = tuple(ray_labels) if ray_labels else tuple(
            f"x{i+1}" for i in range(len(self.rays))
        )

    def _ray_mask(self, ray_set):
        """Bit mask of a ray set, or None when an index lies outside the fan
        (such a set spans no cone)."""
        mask = 0
        for i in ray_set:
            if not 0 <= i < len(self.rays):
                return None
            mask |= 1 << i
        return mask

    def _cones_containing(self, ray_mask):
        cones = self._cone_lookup.get(ray_mask)
        if cones is None:
            cones = (1 << len(self.maximal_cones)) - 1
            for i in _bits(ray_mask):
                cones &= self._ray_cones[i]
            self._cone_lookup[ray_mask] = cones
        return cones

    def spans_cone(self, ray_set):
        """True iff the rays span a cone of the fan (a face of a maximal cone)."""
        mask = self._ray_mask(ray_set)
        return mask is not None and self._cones_containing(mask) != 0

    def check_smooth(self):
        """Every maximal cone's rays must form a basis of the lattice.

        On a fan with subset labels, a cone whose rays form a maximal chain
        S_1 < ... < S_n with permutation p is certified by the integer rows
        m_k = e_{p_k} - e_{p_{k+1}}: if <m_k, u_j> = delta_kj for its rays
        u_1..u_n, an integer matrix inverts the cone's, so its determinant
        is +-1.  Any other cone is decided by its determinant."""
        # Each ray padded to coordinates 0..n+1 (the quotient drops n+1),
        # so <e_a - e_b, u> = u[a] - u[b] for a, b in 1..n+1.
        padded = [(0, *ray, 0) for ray in self.rays] if self.subsets else None
        units = [[int(j == k) for k in range(self.rank)] for j in range(self.rank)]
        for cone in self.maximal_cones:
            chain = self._chain(cone) if padded else None
            if chain:
                perm, order = chain
                rows = list(zip(perm, perm[1:]))  # (a, b) for m_k = e_a - e_b
                if all([u[a] - u[b] for a, b in rows] == unit
                       for u, unit in zip([padded[i] for i in order], units)):
                    continue
            if abs(determinant([self.rays[i] for i in sorted(cone)])) != 1:
                raise DomainError("fan not smooth")
        return True

    def check_complete(self):
        """Desk-scale completeness: every facet of a maximal cone must be
        shared by exactly two maximal cones."""
        facet_count = {}
        for cone in self.maximal_cones:
            for facet in combinations(sorted(cone), self.rank - 1):
                key = frozenset(facet)
                facet_count[key] = facet_count.get(key, 0) + 1
        if any(count != 2 for count in facet_count.values()):
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
        if not isinstance(cone_subset, int):
            cone_subset = self._ray_mask(cone_subset)
        cones = 0 if cone_subset is None else self._cones_containing(cone_subset)
        if not cones:
            raise DomainError("subset spans no cone")
        parent = (cones & -cones).bit_length() - 1
        key = (parent, ray_index)
        cached = self._dual_cache.get(key)
        if cached is None:
            cone = self.maximal_cones[parent]
            if self.subsets is not None and ray_index in cone:
                m, row = self._chain_dual(cone, ray_index)
            else:
                m, row = self._solved_dual(cone, ray_index)
            row = tuple((sigma, c) for sigma, c in row if sigma not in cone)
            cached = self._dual_cache[key] = (m, row)
        return cached

    def _solved_dual(self, cone, ray_index):
        """m from the cone's rays by one linear solve, and its row over
        every ray."""
        order = sorted(cone)
        matrix = [list(self.rays[i]) for i in order]
        rhs = [1 if i == ray_index else 0 for i in order]
        m = solve_linear_system(matrix, rhs)
        if any(c.denominator != 1 for c in m):
            raise DomainError("fan not smooth")
        m = tuple(c.numerator for c in m)
        row = ((sigma, -sum(a * b for a, b in zip(m, u)))
               for sigma, u in enumerate(self.rays))
        return m, [(sigma, c) for sigma, c in row if c]

    def _chain(self, cone):
        """The permutation p_1..p_{n+1} of {1..n+1} and the cone's rays in
        chain order, when the rays' subsets form a maximal chain
        S_1 < ... < S_n with S_k = {p_1..p_k}; None for any other cone."""
        subsets = self.subsets
        by_size = {len(subsets[i]): i for i in cone}
        order = [by_size.get(k) for k in range(1, self.rank + 1)]
        if None in order:
            return None
        universe = frozenset(range(1, self.rank + 2))
        perm, below = [], frozenset()
        for here in [subsets[i] for i in order] + [universe]:
            if not below < here:
                return None
            (added,) = here - below
            perm.append(added)
            below = here
        return perm, order

    def _chain_dual(self, cone, ray_index):
        """m = e_a - e_b on the permutohedral fan, where the cone's chain of
        subsets gains a at the ray and b just after it, and its row over
        every ray: [b in G] - [a in G]."""
        perm, order = self._chain(cone)
        k = order.index(ray_index)
        a, b = perm[k], perm[k + 1]
        row = self._pair_rows.get((a, b))
        if row is None:
            row = self._pair_rows[a, b] = [
                (sigma, (b in s) - (a in s))
                for sigma, s in enumerate(self.subsets) if (a in s) != (b in s)
            ]
        return tuple((i == a) - (i == b) for i in range(1, self.rank + 1)), row


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
        self.fan = fan
        self.degree = degree
        self._terms = {k: c for k, c in masks.items() if c != 0}

    @classmethod
    def _from_masks(cls, fan, degree, masks):
        """Class of ray-mask terms already known to span cones."""
        self = cls.__new__(cls)
        self.fan = fan
        self.degree = degree
        self._terms = {k: c for k, c in masks.items() if c != 0}
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
        terms = self.terms
        parts = []
        for key in sorted(terms, key=sorted):
            mono = "*".join(labels[i] for i in sorted(key)) or "1"
            parts.append(f"{terms[key]}*{mono}")
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
    return sum(cls._terms.values(), Fraction(0))


def _subset_label(subset):
    return "x" + "".join(str(i) for i in sorted(subset))


def permutohedral_fan(n):
    """Normal fan of the n-dimensional permutohedron.

    Lives in the quotient of Z^(n+1) by the all-ones vector, coordinatized
    by dropping the last entry.  Rays are indexed by proper nonempty
    subsets S of {1..n+1}; maximal cones by maximal chains of subsets,
    equivalently permutations.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    universe = list(range(1, n + 2))
    subsets = []
    for size in range(1, n + 1):
        for s in combinations(universe, size):
            subsets.append(frozenset(s))
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    ray_index = {s: i for i, s in enumerate(subsets)}

    def quotient_vector(s):
        last = 1 if (n + 1) in s else 0
        return tuple((1 if i in s else 0) - last for i in range(1, n + 1))

    rays = [quotient_vector(s) for s in subsets]
    cones = []
    from itertools import permutations

    for perm in permutations(universe):
        chain = [frozenset(perm[: k + 1]) for k in range(n)]
        cones.append(frozenset(ray_index[s] for s in chain))
    labels = [_subset_label(s) for s in subsets]
    fan = Fan(n, rays, cones, ray_labels=labels)
    fan.subsets = subsets
    return fan


def permutohedral_divisors(fan):
    """The two hyperplane pullbacks on the permutohedral fan: H1 over the
    subsets containing 1, H2 over those avoiding it."""
    if fan.subsets is None:
        raise DomainError("fan carries no subset labels")
    h1 = {}
    h2 = {}
    for i, s in enumerate(fan.subsets):
        if 1 in s:
            h1[i] = 1
        else:
            h2[i] = 1
    return h1, h2


def mu_generic(n):
    """Bidegrees of the coordinate-inversion graph over projective n-space:
    mu_i integrates H1^(n-i) H2^i over the permutohedral fan.

    The powers H1^k are built once for k = 0..n, then each is multiplied
    by H2: n + n(n+1)/2 multiplies in all."""
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
        value = toric_integral(cls)
        if value.denominator != 1:
            raise RuntimeError("non-integer multidegree")
        out.append(value.numerator)
    return out


def parse_fan(text):
    """Parse the plain fan format: "rank #rays #cones" header, then one ray
    vector per line, then one maximal cone per line as 1-based ray indices."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DomainError("empty fan file")
    header = _integers(lines[0])
    if len(header) != 3:
        raise DomainError("fan header must be 'rank #rays #cones'")
    rank, nrays, ncones = header
    if len(lines) != 1 + nrays + ncones:
        raise DomainError("fan file line count mismatch")
    rays = [tuple(_integers(lines[1 + i])) for i in range(nrays)]
    cones = []
    for i in range(ncones):
        indices = [t - 1 for t in _integers(lines[1 + nrays + i])]
        cones.append(frozenset(indices))
    return Fan(rank, rays, cones)


def _integers(line):
    return _integer_line(line, "fan file")


def format_fan(fan):
    lines = [f"{fan.rank} {len(fan.rays)} {len(fan.maximal_cones)}"]
    lines += [" ".join(str(x) for x in ray) for ray in fan.rays]
    lines += [" ".join(str(i + 1) for i in sorted(c)) for c in fan.maximal_cones]
    return "\n".join(lines) + "\n"
