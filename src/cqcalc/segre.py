"""Arithmetic for projective-degree formulas driven by Segre-class data.

The degrees s_j of the graded pieces of a Segre class are inputs here
(computing them symbolically needs an elimination backend and is out of
scope); these evaluators turn them into the bidegrees mu_i / nu_i of a
gradient-map graph and into ML-degree corrections.
"""

from operator import index

from .exactmath import DomainError, FrozenRecord, binomial


class SegreData(FrozenRecord):
    """degF: degree of the polynomial; nL: projective dimension of the
    ambient subspace; mY: dimension of the base-locus scheme; s: degrees of
    the graded Segre components s_0..s_mY.  Every field and every s_j must
    be an integer (TypeError otherwise)."""

    __slots__ = ("degF", "nL", "mY", "s")

    def __init__(self, degF, nL, mY, s):
        degF, nL, mY = index(degF), index(nL), index(mY)
        s = tuple(map(index, s))
        if degF < 1:
            raise DomainError("degF must be >= 1")
        if not 0 <= mY < nL:
            raise DomainError(f"mY must be in 0..{nL - 1}, got {mY}")
        if len(s) != mY + 1:
            raise DomainError(f"need {mY + 1} Segre degrees, got {len(s)}")
        super().__init__(degF, nL, mY, s)


def mu_from_segre(data, i):
    """Bidegree mu_i from the Segre degrees of the restricted base locus:
    (degF-1)^i minus binomially weighted corrections.  Fed the Segre degrees
    of the gradient of the restriction instead, the same formula gives nu_i,
    hence the alias `nu_from_segre`."""
    if not 0 <= i <= data.nL:
        raise DomainError(f"index {i} out of range 0..{data.nL}")
    e = data.degF - 1
    total = e**i
    for j in range(0, i - data.nL + data.mY + 1):
        total -= binomial(i, data.nL - data.mY + j) * e ** (
            i - data.nL + data.mY - j
        ) * data.s[j]
    return total


nu_from_segre = mu_from_segre


def nu_from_mu_correction(mu_a, n_ambient, b, s):
    """ML-degree from the top bidegree: mu_a minus sum of C(n,j) * s_j over
    the graded pieces of the Segre class of the intersection with the
    orthogonal space (b = its dimension; b = -1 means empty intersection)."""
    s = tuple(s)
    if len(s) != b + 1:
        raise DomainError(f"need {b + 1} Segre degrees, got {len(s)}")
    return mu_a - sum(binomial(n_ambient, j) * s[j] for j in range(b + 1))


def mu_nu_inequality_check(mu, nu):
    """True iff nu <= mu pointwise and (all entries equal) happens exactly
    when the last entries are equal."""
    mu = list(mu)
    nu = list(nu)
    if len(mu) != len(nu):
        raise DomainError("length mismatch")
    if any(b > a for a, b in zip(mu, nu)):
        return False
    all_equal = mu == nu
    last_equal = mu[-1] == nu[-1] if mu else True
    return all_equal == last_equal
