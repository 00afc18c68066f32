"""Exact intersection-theory calculators.

Integer invariants computed by combinatorial algorithms over exact
rational arithmetic: intersection products on the space of complete
quadrics (ML-degrees of generic linear concentration models, algebraic
degrees of semidefinite programming, characteristic numbers of quadrics),
Schubert calculus on complete flag varieties, matroid and chromatic
polynomials, toric Chow-ring integrals on the permutohedral variety, and
the torus-action cell decomposition of the space of complete quadrics.
"""

from .exactmath import (
    DomainError,
    UnivariatePolynomial,
    binomial,
    interpolate,
    is_log_concave,
)
from .schubert import (
    SchubertCombination,
    flag_integral,
    inversion_number,
    monk_multiply,
)
from .quadrics import (
    CQProduct,
    DivisorClass,
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
from .matroid import (
    Graph,
    Matroid,
    characteristic_polynomial,
    chromatic_polynomial,
    euler_characteristic_complement,
    matroid_from_graph,
    matroid_from_subspace,
    reduced_characteristic_coefficients,
    uniform_matroid,
)
from .toric import (
    Fan,
    ToricClass,
    localized_integral,
    multiply_by_divisor,
    mu_generic,
    permutohedral_fan,
    toric_integral,
)
from .cells import (
    TwoPermutation,
    cell_parametrization,
    chow_group_dimensions,
    enumerate_two_permutations,
    verify_cell_point,
    verify_generic_point,
    weight,
)
from .segre import (
    SegreData,
    mu_from_segre,
    mu_nu_inequality_check,
    nu_from_mu_correction,
    nu_from_segre,
)

__version__ = "0.1.0"
