"""Mutation matrix: every check that check-all runs on a simple type must
be able to fail.

Each mutant perturbs one field of a built factor, and repacks the
fast path's packed coroots when it changes a field they are read from.
Every cell of mutant x check x type has its expected outcome written
out, so a new check has to say what it catches and a change that blinds
a check turns a cell red.
"""

from itertools import product

import pytest

from coxchar.character import char_at_coxeter, coxeter_lift_order, verify_principal_cocharacter
from coxchar.errors import InternalCheckError, TheoremViolation
from coxchar.oracle import char_at_coxeter_oracle
from coxchar.rootdata import _pack_coroots, build
from coxchar.torsion import classify_regular_orbits

BOX = {"B3": 2, "G2": 2, "C3": 2, "F4": 1}  # oracle box max-coord per type


def _repacked(f, **changes):
    f = f._replace(**changes)
    return f._replace(packed=_pack_coroots(f.positive, f.rank, f.coxeter_number))


def _swap_first_two_coroots(f):
    a, b = f.positive[:2]  # two simple roots: their coroots both have height 1
    return _repacked(f, positive=(a._replace(coroot=b.coroot), b._replace(coroot=a.coroot),
                                  *f.positive[2:]))


def _highest_coroot_plus_one(f):
    c = f.highest_coroot.coroot
    return f._replace(highest_coroot=f.highest_coroot._replace(coroot=c[:-1] + (c[-1] + 1,)))


MUTANTS = {
    "h + 2": lambda f: _repacked(f, coxeter_number=f.coxeter_number + 2),
    "highest root dropped": lambda f: _repacked(f, positive=f.positive[:-1]),
    "2 rho_vee + 2 in coordinate 1": lambda f: f._replace(
        two_rho_check=(f.two_rho_check[0] + 2, *f.two_rho_check[1:])),
    "highest coroot + 1 in its last coordinate": _highest_coroot_plus_one,
    "two coroots of the same height swapped": _swap_first_two_coroots,
}
# keeps the coroot multiset: it changes no value, only which blocking
# coroot is named, so no check can catch it
EQUIVALENT = {"two coroots of the same height swapped"}


def _principal(rd):
    return all(r.passed for r in verify_principal_cocharacter(rd))


def _lift_order(rd):
    coxeter_lift_order(rd)  # raises if the biconditional fails
    return True


def _census_at_h(rd):
    orbits = classify_regular_orbits(rd, rd.factors[0].coxeter_number)
    return orbits.regular_orbits_with_image_order_n == 1 and orbits.rho_in_distinguished_orbit


def _oracle_agreement(rd):
    return all(
        char_at_coxeter(rd, lam).value == char_at_coxeter_oracle(rd, lam, cap=None)
        for lam in product(range(BOX[rd.type_string] + 1), repeat=rd.rank)
    )


CHECKS = {
    "principal cocharacter": _principal,
    "lift order": _lift_order,
    "census at n = h": _census_at_h,
    "oracle agreement": _oracle_agreement,
}

P, F, R = "pass", "fail", "raise"
# expected outcome per mutant and type, one entry per check in CHECKS order
MATRIX = {
    "h + 2": {
        "B3": (F, P, F, R), "G2": (F, P, F, P), "C3": (F, P, F, R), "F4": (F, P, F, R),
    },
    "highest root dropped": {
        "B3": (F, P, P, F), "G2": (F, R, P, F), "C3": (F, R, P, F), "F4": (F, R, P, F),
    },
    "2 rho_vee + 2 in coordinate 1": {
        "B3": (P, P, P, R), "G2": (P, P, P, R), "C3": (P, P, P, R), "F4": (P, P, P, R),
    },
    "highest coroot + 1 in its last coordinate": {
        "B3": (P, P, F, P), "G2": (P, P, F, P), "C3": (P, P, F, P), "F4": (P, P, F, P),
    },
    "two coroots of the same height swapped": {
        "B3": (P, P, P, P), "G2": (P, P, P, P), "C3": (P, P, P, P), "F4": (P, P, P, P),
    },
}


def _outcome(check, rd):
    try:
        return P if check(rd) else F
    except (TheoremViolation, InternalCheckError):
        return R


@pytest.mark.parametrize("check", list(CHECKS))
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutation_matrix(mutant, check):
    column = list(CHECKS).index(check)
    expected = {t: cells[column] for t, cells in MATRIX[mutant].items()}
    if mutant in EQUIVALENT:
        assert set(expected.values()) == {P}
    got = {}
    for t in BOX:
        rd = build(t)
        got[t] = _outcome(CHECKS[check], rd._replace(factors=(MUTANTS[mutant](rd.factors[0]),)))
    assert got == expected
