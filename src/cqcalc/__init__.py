"""Exact intersection-theory calculators.

Integer invariants computed by combinatorial algorithms over exact
rational arithmetic: intersection products on the space of complete
quadrics (ML-degrees of generic linear concentration models, algebraic
degrees of semidefinite programming, characteristic numbers of quadrics),
Schubert calculus on complete flag varieties, matroid and chromatic
polynomials, toric Chow-ring integrals on the permutohedral variety, and
the torus-action cell decomposition of the space of complete quadrics.

Importing the package loads none of its modules.  Each public name below,
and each module (`cqcalc.quadrics`, ...), is loaded on first access
(PEP 562), so a caller pays only for the modules it uses.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "exactmath": (
        "DomainError",
        "UnivariatePolynomial",
        "binomial",
        "interpolate",
        "is_log_concave",
    ),
    "schubert": (
        "SchubertCombination",
        "flag_integral",
        "inversion_number",
        "monk_multiply",
    ),
    "quadrics": (
        "CQProduct",
        "DivisorClass",
        "delta",
        "delta_polynomial",
        "hypersurface_characteristic_number",
        "integrate_monomial",
        "intersection_product",
        "l_in_mixed_basis",
        "pataki_nonzero",
        "phi",
        "phi_c",
        "phi_from_delta",
        "phi_polynomial",
    ),
    "matroid": (
        "Graph",
        "Matroid",
        "characteristic_polynomial",
        "chromatic_polynomial",
        "euler_characteristic_complement",
        "matroid_from_graph",
        "matroid_from_subspace",
        "reduced_characteristic_coefficients",
        "uniform_matroid",
    ),
    "toric": (
        "Fan",
        "ToricClass",
        "localized_integral",
        "multiply_by_divisor",
        "mu_generic",
        "permutohedral_fan",
        "toric_integral",
    ),
    "cells": (
        "TwoPermutation",
        "cell_parametrization",
        "chow_group_dimensions",
        "enumerate_two_permutations",
        "verify_cell_point",
        "verify_generic_point",
        "weight",
    ),
    "segre": (
        "SegreData",
        "mu_from_segre",
        "mu_nu_inequality_check",
        "nu_from_mu_correction",
        "nu_from_segre",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
