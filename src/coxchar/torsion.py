"""Torsion points of the simply-connected / adjoint torus pair.

For a datum with weight lattice P, root lattice Q and their duals, the
n-torsion of the kernel-of-multiplication construction is presented two
ways: as the coweight-side quotient P_vee / n Q_vee and as the
weight-side character group P / n Q.  The two presentations are
abstractly isomorphic, Weyl-equivariantly; ``duality_report`` checks
this executable content, and ``classify_regular_orbits`` counts the
regular Weyl orbits on P / n Q to exhibit the distinguished one at n = h.

A class is its residue tuple under the invariant-factor projection, so
there is no coset-representative ambiguity anywhere.  The census stays
in residue coordinates: regularity is a set of linear forms on residues,
each simple reflection is a residue matrix, and only regular orbits are
walked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, product
from math import gcd
from operator import mul
from typing import Iterator, Optional, Sequence

from .errors import CapExceeded, InternalCheckError
from .lattice import FiniteAbelianGroup, apply_mod, quotient
from .rootdata import RootDatum, pairing
from .weyl import _reflect

DEFAULT_CLASS_CAP = 10**6


def torsion_points(rd: RootDatum, n: int) -> FiniteAbelianGroup:
    """The coweight-side presentation P_vee / n Q_vee.

    In the fundamental-coweight basis the simple coroots have coordinate
    matrix A^T (column j is alpha_j_vee), so the quotient is ZZ^r modulo
    the column span of n * A^T.  Its order is n^r * |P/Q|.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return quotient(rd.rank, rd.cartan.transpose().scale(n))


def char_group_of_torsion(rd: RootDatum, n: int) -> FiniteAbelianGroup:
    """The weight-side presentation P / n Q (column span of n * A)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return quotient(rd.rank, rd.cartan.scale(n))


@dataclass(frozen=True)
class DualityReport:
    type_string: str
    n: int
    invariant_factors_coweight_side: tuple[int, ...]
    invariant_factors_weight_side: tuple[int, ...]
    isomorphic: bool
    action_well_defined: bool
    trials: int
    witness: Optional[dict]

    @property
    def passed(self) -> bool:
        return self.isomorphic and self.action_well_defined

    def as_dict(self) -> dict:
        return {
            "type": self.type_string,
            "n": self.n,
            "invariant_factors_coweight_side": list(self.invariant_factors_coweight_side),
            "invariant_factors_weight_side": list(self.invariant_factors_weight_side),
            "isomorphic": self.isomorphic,
            "action_well_defined": self.action_well_defined,
            "trials": self.trials,
            "witness": self.witness,
            "passed": self.passed,
        }


def duality_report(
    rd: RootDatum,
    n: int,
    trials: int = 1000,
    seed: int = 0,
    cap: int = DEFAULT_CLASS_CAP,
) -> DualityReport:
    """Check the two torsion presentations agree and the Weyl action on
    weight-side classes is independent of the representative.

    The representative check is randomized: for x' = x + n*(root lattice
    vector) and every simple reflection s, the classes of s(x) and s(x')
    must coincide.  A failure is reported with a witness.
    """
    tp = torsion_points(rd, n)
    cg = char_group_of_torsion(rd, n)
    if cg.order > cap:
        raise CapExceeded(
            f"{rd.type_string} at n={n}: {cg.order} classes exceed the cap {cap}"
        )
    isomorphic = tp.invariant_factors == cg.invariant_factors

    rng = random.Random(seed)
    witness = None
    well_defined = True
    r = rd.rank
    for _ in range(trials):
        x = tuple(rng.randrange(-3 * n, 3 * n + 1) for _ in range(r))
        m = tuple(rng.randrange(-2, 3) for _ in range(r))
        shift = rd.cartan.apply(m)  # a root-lattice vector in weight coords
        x2 = tuple(a + n * b for a, b in zip(x, shift))
        if cg.project(x) != cg.project(x2):
            well_defined = False
            witness = {"x": list(x), "x2": list(x2), "reflection": None}
            break
        for j in range(r):
            if cg.project(_reflect(rd.cartan, x, j)) != cg.project(_reflect(rd.cartan, x2, j)):
                well_defined = False
                witness = {"x": list(x), "x2": list(x2), "reflection": j + 1}
                break
        if not well_defined:
            break

    return DualityReport(
        type_string=rd.type_string,
        n=n,
        invariant_factors_coweight_side=tp.invariant_factors,
        invariant_factors_weight_side=cg.invariant_factors,
        isomorphic=isomorphic,
        action_well_defined=well_defined,
        trials=trials,
        witness=witness,
    )


@dataclass(frozen=True)
class OrbitReport:
    type_string: str
    n: int
    total_classes: int
    regular_classes: int
    regular_orbits: int
    regular_orbits_with_image_order_n: int
    rho_in_distinguished_orbit: bool

    def as_dict(self) -> dict:
        return {
            "type": self.type_string,
            "n": self.n,
            "total_classes": self.total_classes,
            "regular_classes": self.regular_classes,
            "regular_orbits": self.regular_orbits,
            "regular_orbits_with_image_order_n": self.regular_orbits_with_image_order_n,
            "rho_in_distinguished_orbit": self.rho_in_distinguished_orbit,
        }


def _residue_reflections(
    rd: RootDatum, group: FiniteAbelianGroup, gens: Sequence[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], ...]]:
    """The matrix of each simple reflection on residue tuples of ``group``.

    Column a of the j-th matrix is the class of s_j applied to gens[a],
    the section of the a-th unit residue.
    """
    return [
        tuple(zip(*(group.project(_reflect(rd.cartan, g, j)) for g in gens)))
        for j in range(rd.rank)
    ]


def _regular_residues(
    factors: Sequence[int], forms: Sequence[tuple[int, ...]], n: int
) -> Iterator[tuple[int, ...]]:
    """Residue tuples, in product order, on which no form vanishes mod n.

    For each prefix of all but the last residue, a form c with value v on
    the prefix forbids the last residues t with v + c_last * t = 0 mod n.
    With g = gcd(c_last, n) and m = n / g these are none when g does not
    divide v, and otherwise the progression of step m from the root t0,
    cleared from the row of last residues in one slice.  When m = 1 the
    whole row goes, so those forms come first and end the prefix early.
    The cost is linear in the number of classes.
    """
    if not factors:
        if not forms:
            yield ()
        return
    *head, last = factors
    steps = []
    for c in forms:
        g = gcd(c[-1], n)
        m = n // g
        steps.append((m, g, -pow(c[-1] // g, -1, m), c[:-1]))
    steps.sort()
    row = range(last)
    for prefix in product(*map(range, head)):
        keep = bytearray(b"\1") * last
        for m, g, u, cs in steps:
            v = sum(map(mul, cs, prefix))
            if v % g:
                continue
            if m == 1:
                break
            t0 = v // g * u % m
            keep[t0::m] = bytes(len(row[t0::m]))
        else:
            yield from (prefix + (t,) for t in compress(row, keep))


def classify_regular_orbits(
    rd: RootDatum, n: int, cap: int = DEFAULT_CLASS_CAP
) -> OrbitReport:
    """Count the regular Weyl orbits on P/nQ, flagging those whose image
    in P/nP has order n.

    Linear forms on residues; only regular orbits are walked.  A class is
    regular when no positive-coroot pairing vanishes mod n; with g_a the
    section of the a-th unit residue, the pairing of the class r with
    beta_vee is the linear form sum_a r_a <g_a, beta_vee> mod n.  The
    regular set is W-stable, so the orbit walk starts from regular classes
    only, with each simple reflection acting as a residue matrix, and
    holds no more than the regular classes.  A residue matrix that is not
    an involution, or that sends a regular class to a singular one, raises
    InternalCheckError.

    Image order of a class with representative x is n / gcd(n, coords of
    x), the order of x in P/nP; it is constant on orbits.  At n = h
    exactly one regular orbit has image order h and it contains [rho].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    group = char_group_of_torsion(rd, n)
    if group.order > cap:
        raise CapExceeded(
            f"{rd.type_string} at n={n}: {group.order} classes exceed the cap {cap}"
        )
    factors = group.invariant_factors
    units = [tuple(int(a == b) for b in range(len(factors))) for a in range(len(factors))]
    gens = [group.section(u) for u in units]
    forms = list(dict.fromkeys(
        tuple(pairing(g, p.coroot) % n for g in gens) for p in rd.positive_roots()
    ))
    mats = _residue_reflections(rd, group, gens)
    for j, m in enumerate(mats):
        for u in units:
            if apply_mod(m, factors, apply_mod(m, factors, u)) != u:
                raise InternalCheckError(
                    f"{rd.type_string} at n={n}: the residue matrix of s_{j + 1} "
                    f"does not square to the identity on the class {u}"
                )

    # walked[c] is False until the orbit of the regular class c is walked
    walked = dict.fromkeys(_regular_residues(factors, forms, n), False)
    rho_key = group.project(rd.rho)
    regular_orbits = 0
    distinguished = 0
    rho_in_distinguished = False
    for start, done in walked.items():
        if done:
            continue
        walked[start] = True
        orbit = [start]
        for x in orbit:
            for j, m in enumerate(mats):
                y = apply_mod(m, factors, x)
                seen = walked.get(y)
                if seen is None:
                    raise InternalCheckError(
                        f"{rd.type_string} at n={n}: s_{j + 1} maps the regular "
                        f"class {x} to the singular class {y}"
                    )
                if not seen:
                    walked[y] = True
                    orbit.append(y)
        regular_orbits += 1
        if gcd(n, *group.section(start)) == 1:  # image order n in P/nP
            distinguished += 1
            rho_in_distinguished |= rho_key in orbit

    return OrbitReport(
        type_string=rd.type_string,
        n=n,
        total_classes=group.order,
        regular_classes=len(walked),
        regular_orbits=regular_orbits,
        regular_orbits_with_image_order_n=distinguished,
        rho_in_distinguished_orbit=rho_in_distinguished and distinguished == 1,
    )
