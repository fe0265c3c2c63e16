"""Exact character values at the Coxeter conjugacy class.

For a simply connected complex semisimple group, the character of any
irreducible finite-dimensional representation at the Coxeter conjugacy
class is -1, 0 or +1.  This package computes that value two ways: a
polynomial-time path through regularity mod the Coxeter number and
affine alcove reduction, and an independent brute-force Weyl-sum oracle
in exact cyclotomic arithmetic.  Supporting structures: Smith normal
form and lattice quotients, torsion-point duality of isogenous tori,
the principal-cocharacter identities, central characters, and the
Frobenius-Schur classification of self-dual representations.
"""

from .character import (
    CharReport,
    char_at_coxeter,
    coxeter_lift_order,
    fs_indicator,
    regularity_test,
    rho_central_character,
    verify_principal_cocharacter,
)
from .cyclotomic import CyclotomicInt, cyclotomic_polynomial, divide_exact, zeta_pow
from .errors import CapExceeded, CoxcharError, InternalCheckError, TheoremViolation
from .lattice import FiniteAbelianGroup, IntMatrix, quotient, smith_normal_form
from .oracle import char_at_coxeter_oracle, float_shadow, weyl_numerator
from .rootdata import RootDatum, RootPair, build, pairing
from .torsion import char_group_of_torsion, classify_regular_orbits, duality_report, torsion_points
from .weyl import WeylElement, coxeter_element, duality_involution, make_dominant

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CharReport",
    "CoxcharError",
    "CyclotomicInt",
    "FiniteAbelianGroup",
    "IntMatrix",
    "InternalCheckError",
    "RootDatum",
    "RootPair",
    "TheoremViolation",
    "WeylElement",
    "build",
    "char_at_coxeter",
    "char_at_coxeter_oracle",
    "char_group_of_torsion",
    "classify_regular_orbits",
    "coxeter_element",
    "coxeter_lift_order",
    "cyclotomic_polynomial",
    "divide_exact",
    "duality_involution",
    "duality_report",
    "float_shadow",
    "fs_indicator",
    "make_dominant",
    "pairing",
    "quotient",
    "regularity_test",
    "rho_central_character",
    "smith_normal_form",
    "torsion_points",
    "verify_principal_cocharacter",
    "weyl_numerator",
    "zeta_pow",
]
