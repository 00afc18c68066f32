"""Chow rings of smooth complete toric varieties from fan data.

A fan is given by primitive ray vectors and maximal cones (index sets of
full dimension).  Classes live in the squarefree-monomial presentation: a
degree-k class is a combination of k-subsets of rays that span a cone.
Multiplication by a divisor uses the linear relations of the presentation
to rewrite repeated rays; on a smooth fan the needed dual functionals are
integral rows of inverted cone matrices.

Which route answers:

* cone membership: each ray carries a bit mask of the maximal cones that
  contain it, and a ray set spans a cone iff the AND of its masks is
  nonzero (memoized per ray set); the lowest set bit is the first maximal
  cone containing the set;
* dual functionals: one `solve_linear_system` per (maximal cone, ray),
  cached with its row, the nonzero coefficients -<m, u_sigma> over the
  rays outside the cone, which is all a product needs;
* smoothness: one `determinant` per maximal cone.

Both solve and determinant are `exactmath`'s single fraction-free
(Bareiss) integer elimination.

The permutohedral fan has one ray per proper nonempty subset S of
{1..n+1} (the image of the indicator vector of S in the quotient lattice)
and one maximal cone per maximal chain of subsets.
"""

from fractions import Fraction
from itertools import combinations

from .exactmath import DomainError, determinant, solve_linear_system


class Fan:
    """Rational fan, assumed (and checkable) smooth and complete."""

    __slots__ = ("rank", "rays", "maximal_cones", "_ray_cones", "_cone_lookup",
                 "_dual_cache", "ray_labels", "subsets")

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
        # Ray index -> bit mask of the maximal cones containing the ray.  A
        # dict, so a ray index outside the fan reads as no cone at all.
        self._ray_cones = dict.fromkeys(range(len(self.rays)), 0)
        for bit, cone in enumerate(self.maximal_cones):
            for i in cone:
                self._ray_cones[i] |= 1 << bit
        # Ray set -> mask of the maximal cones containing it (0: no cone).
        self._cone_lookup = {}
        # (maximal cone index, ray) -> (dual functional, its nonzero row).
        self._dual_cache = {}
        self.ray_labels = tuple(ray_labels) if ray_labels else tuple(
            f"x{i+1}" for i in range(len(self.rays))
        )

    def _cones_containing(self, ray_set):
        key = frozenset(ray_set)
        mask = self._cone_lookup.get(key)
        if mask is None:
            mask = (1 << len(self.maximal_cones)) - 1
            ray_cones = self._ray_cones
            for i in key:
                mask &= ray_cones.get(i, 0)
            self._cone_lookup[key] = mask
        return mask

    def spans_cone(self, ray_set):
        """True iff the rays span a cone of the fan (a face of a maximal cone)."""
        return self._cones_containing(ray_set) != 0

    def check_smooth(self):
        """Every maximal cone's rays must form a basis of the lattice."""
        for cone in self.maximal_cones:
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
        where the value is nonzero (inside it, m vanishes off `ray_index`)."""
        mask = self._cones_containing(cone_subset)
        if not mask:
            raise DomainError("subset spans no cone")
        parent = (mask & -mask).bit_length() - 1
        key = (parent, ray_index)
        cached = self._dual_cache.get(key)
        if cached is not None:
            return cached
        cone = self.maximal_cones[parent]
        order = sorted(cone)
        matrix = [list(self.rays[i]) for i in order]
        rhs = [1 if i == ray_index else 0 for i in order]
        m = solve_linear_system(matrix, rhs)
        if any(c.denominator != 1 for c in m):
            raise DomainError("fan not smooth")
        m = tuple(c.numerator for c in m)
        row = []
        for sigma, u in enumerate(self.rays):
            if sigma not in cone:
                c = -sum(a * b for a, b in zip(m, u))
                if c:
                    row.append((sigma, c))
        cached = self._dual_cache[key] = (m, tuple(row))
        return cached


class ToricClass:
    """Homogeneous Chow class in the squarefree cone-monomial spanning set."""

    __slots__ = ("fan", "degree", "terms")

    def __init__(self, fan, degree, terms=None):
        self.fan = fan
        self.degree = degree
        self.terms = {}
        for key, coeff in (terms or {}).items():
            key = frozenset(key)
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if len(key) != degree:
                raise DomainError("term of wrong degree")
            if not fan.spans_cone(key):
                raise DomainError("term does not span a cone")
            self.terms[key] = self.terms.get(key, Fraction(0)) + coeff
        self.terms = {k: c for k, c in self.terms.items() if c != 0}

    @classmethod
    def unit(cls, fan):
        return cls(fan, 0, {frozenset(): 1})

    def __eq__(self, other):
        return (
            isinstance(other, ToricClass)
            and self.fan is other.fan
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        labels = self.fan.ray_labels
        parts = []
        for key in sorted(self.terms, key=sorted):
            mono = "*".join(labels[i] for i in sorted(key)) or "1"
            parts.append(f"{self.terms[key]}*{mono}")
        return f"ToricClass({' + '.join(parts) or '0'})"


def multiply_by_divisor(cls, divisor):
    """Product of a class with a divisor given as ray-index -> coefficient.

    Distinct rays append to the monomial (or kill it when no cone contains
    the union); a repeated ray is rewritten through the dual functional of
    a containing maximal cone, turning it into a signed sum over the other
    rays of the fan.
    """
    fan = cls.fan
    out = {}
    divisor = [(ray, Fraction(d)) for ray, d in divisor.items()]
    for key, coeff in cls.terms.items():
        for ray, d in divisor:
            scale = coeff * d
            if not scale:
                continue
            if scale.denominator == 1:
                scale = scale.numerator  # integer arithmetic in the loop below
            row = fan._dual(key, ray)[1] if ray in key else ((ray, 1),)
            for sigma, c in row:
                new = key | {sigma}
                if fan.spans_cone(new):
                    out[new] = out.get(new, 0) + scale * c
    return ToricClass(fan, cls.degree + 1, out)


def toric_integral(cls):
    """Degree map: on a smooth complete fan every maximal-cone monomial
    integrates to 1, so a top-degree class integrates to its coefficient sum."""
    if cls.degree != cls.fan.rank:
        raise DomainError("degree mismatch")
    return sum(cls.terms.values(), Fraction(0))


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
    mu_i integrates H1^(n-i) H2^i over the permutohedral fan."""
    fan = permutohedral_fan(n)
    h1, h2 = permutohedral_divisors(fan)
    out = []
    for i in range(n + 1):
        cls = ToricClass.unit(fan)
        for _ in range(n - i):
            cls = multiply_by_divisor(cls, h1)
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
    try:
        return [int(t) for t in line.split()]
    except ValueError:
        raise DomainError(f"fan file line {line.strip()!r} is not all integers")


def format_fan(fan):
    lines = [f"{fan.rank} {len(fan.rays)} {len(fan.maximal_cones)}"]
    lines += [" ".join(str(x) for x in ray) for ray in fan.rays]
    lines += [" ".join(str(i + 1) for i in sorted(c)) for c in fan.maximal_cones]
    return "\n".join(lines) + "\n"
