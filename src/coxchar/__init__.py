"""Exact character values at the Coxeter conjugacy class.

For a simply connected complex semisimple group, the character of any
irreducible finite-dimensional representation at the Coxeter conjugacy
class is -1, 0 or +1.  This package computes that value two ways: a
fast path, one packed pass per simple factor over the positive coroots
that yields regularity mod the Coxeter number and the parity of the
affine walls (the alcove walk is kept only as its reference), and an
independent brute-force Weyl-sum oracle in exact cyclotomic arithmetic.
Supporting structures: Smith normal form and lattice quotients,
torsion-point duality of isogenous tori, the principal-cocharacter
identities, central characters, and the Frobenius-Schur classification
of self-dual representations.
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
from .cyclotomic import CyclotomicInt, cyclotomic_polynomial, divide_exact
from .errors import CapExceeded, CoxcharError, InternalCheckError, TheoremViolation
from .lattice import FiniteAbelianGroup, IntMatrix, quotient
from .oracle import char_at_coxeter_oracle
from .rootdata import RootDatum, RootPair, build, pairing
from .torsion import char_group_of_torsion, classify_regular_orbits, duality_report
from .weyl import duality_involution, make_dominant

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
    "build",
    "char_at_coxeter",
    "char_at_coxeter_oracle",
    "char_group_of_torsion",
    "classify_regular_orbits",
    "coxeter_lift_order",
    "cyclotomic_polynomial",
    "divide_exact",
    "duality_involution",
    "duality_report",
    "fs_indicator",
    "make_dominant",
    "pairing",
    "quotient",
    "regularity_test",
    "rho_central_character",
    "verify_principal_cocharacter",
]
