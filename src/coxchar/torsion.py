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

The duality check draws its random trials in chunks and packs each
chunk: coordinate k of every trial's weight vector is one big integer
with a field per trial, so translating, reflecting and projecting a
whole chunk are a few big-integer multiply-adds, and the residues are
reduced in place and compared as integers (the packed-residue kernel of
``lattice``, shared with the oracle).  Fields are as wide as an exact
bound on the coordinates needs, so any n gets a value.  The witness is
the earliest failing trial, rebuilt from its draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from math import gcd, prod
from operator import mul, or_, xor
from typing import Optional, Sequence

from .errors import CapExceeded, InternalCheckError
from .lattice import FiniteAbelianGroup, _ones, _pack, apply_mod, quotient
from .rootdata import RootDatum, pairing
from .weyl import _reflect

DEFAULT_CLASS_CAP = 10**6

# trials that duality_report draws and checks together
_CHUNK_TRIALS = 256


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

    The representative check is randomized: each trial draws x and then
    m from ``random.Random(seed)``, and for x2 = x + n*A*m (a translate
    by n times a root-lattice vector) the classes of x and x2 and, for
    every simple reflection s, those of s(x) and s(x2) must coincide.
    Trials run in chunks of _CHUNK_TRIALS, packed (``_first_failure``),
    so memory does not grow with ``trials``.  The witness is the earliest
    failing trial, with reflection None when x and x2 already differ and
    otherwise the first simple reflection (1-based) that separates them.
    Raises ValueError for n < 1 or trials < 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tp = torsion_points(rd, n)
    cg = char_group_of_torsion(rd, n)
    if cg.order > cap:
        raise CapExceeded(
            f"{rd.type_string} at n={n}: {cg.order} classes exceed the cap {cap}"
        )
    witness = _first_failure(rd, cg, n, trials, seed)
    return DualityReport(
        type_string=rd.type_string,
        n=n,
        invariant_factors_coweight_side=tp.invariant_factors,
        invariant_factors_weight_side=cg.invariant_factors,
        isomorphic=tp.invariant_factors == cg.invariant_factors,
        action_well_defined=witness is None,
        trials=trials,
        witness=witness,
    )


def _first_failure(
    rd: RootDatum, group: FiniteAbelianGroup, n: int, trials: int, seed: int
) -> Optional[dict]:
    """The witness of the first trial of ``duality_report`` whose classes
    differ, or None.

    A chunk of trials is drawn in trial order, and coordinate k of x (of
    m) over the chunk becomes one integer with a field per trial, so x2
    is r packed multiply-adds and each simple reflection (``_reflect``,
    linear, so it takes packed columns as coordinates) is r more.  x,
    x2, s_j(x) and s_j(x2) are each projected as actual weight vectors
    (``FiniteAbelianGroup.project_packed``), never as differences, and
    their packed residues are compared by XOR: the lowest set bit of the
    OR of all the comparisons is in the field of the first failing trial.
    Every coordinate is at most ``bound`` in absolute value (|x_k| <= 3n,
    |m_k| <= 2, and a reflection adds at most max |A[k][j]| times another
    coordinate), which fixes the field width.
    """
    r = rd.rank
    cartan = rd.cartan
    reach = 3 * n + 2 * n * max(sum(map(abs, row)) for row in cartan.data)
    off_diagonal = (abs(cartan[k][j]) for k in range(r) for j in range(r) if k != j)
    bound = reach * (1 + max(off_diagonal, default=0))
    bits = group.packed_bits(bound)
    width = bits // 8
    spans = [(-3 * n, 3 * n + 1)] * r + [(-2, 3)] * r
    randrange = random.Random(seed).randrange
    for done in range(0, trials, _CHUNK_TRIALS):
        size = min(_CHUNK_TRIALS, trials - done)
        draws = [randrange(lo, hi) for _ in range(size) for lo, hi in spans]
        ones = _ones(size, width)
        cols = [_pack(draws[k :: 2 * r], lo, width, ones) for k, (lo, _) in enumerate(spans)]
        x, m = cols[:r], cols[r:]
        x2 = [c + n * sum(map(mul, row, m)) for c, row in zip(x, cartan.data)]
        pairs = [(x, x2)] + [(_reflect(cartan, x, j), _reflect(cartan, x2, j)) for j in range(r)]
        project = partial(group.project_packed, bound=bound, bits=bits, ones=ones)
        # per check, the fields of the trials where some residue differs
        mismatches = [reduce(or_, map(xor, project(u), project(v)), 0) for u, v in pairs]
        failed = reduce(or_, mismatches)
        if failed:
            t = ((failed & -failed).bit_length() - 1) // bits
            field = ((1 << bits) - 1) << (bits * t)
            check = next(i for i, diff in enumerate(mismatches) if diff & field)
            trial = draws[2 * r * t : 2 * r * (t + 1)]
            xt, shift = trial[:r], cartan.apply(trial[r:])
            return {
                "x": xt,
                "x2": [a + n * b for a, b in zip(xt, shift)],
                "reflection": check or None,
            }
    return None


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


def _regular_mask(
    factors: Sequence[int], forms: Sequence[tuple[int, ...]], n: int
) -> bytearray:
    """One byte per residue tuple, in product order (the last residue
    varies fastest): 1 where no form vanishes mod n, else 0.

    For each prefix of all but the last residue, a form c with value v on
    the prefix forbids the last residues t with v + c_last * t = 0 mod n.
    With g = gcd(c_last, n) and m = n / g these are none when g does not
    divide v, and otherwise the progression of step m from the root t0,
    cleared from the row of last residues in one slice.  When m = 1 the
    whole row goes, so those forms come first and leave a zero row.
    The cost is linear in the number of classes.
    """
    if not factors:
        return bytearray(b"\0" if forms else b"\1")
    *head, last = factors
    steps = []
    for c in forms:
        g = gcd(c[-1], n)
        m = n // g
        steps.append((m, g, -pow(c[-1] // g, -1, m), c[:-1]))
    steps.sort()
    mask = bytearray()
    for prefix in product(*map(range, head)):
        row = bytearray(b"\1") * last
        for m, g, u, cs in steps:
            v = sum(map(mul, cs, prefix))
            if v % g:
                continue
            if m == 1:
                row = bytes(last)
                break
            t0 = v // g * u % m
            row[t0::m] = bytes(len(range(t0, last, m)))
        mask += row
    return mask


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
    only, with each simple reflection acting as a residue matrix.  Its
    state is one byte per class of P/nQ, indexed by the residues in mixed
    radix (``_regular_mask`` order).  A residue matrix that is not
    an involution, or that sends a regular class to a singular one, raises
    InternalCheckError.

    Image order of a class with representative x is n / gcd(n, coords of
    x), the order of x in P/nP; it is constant on orbits.  The section of
    the residues r is exactly sum_a r_a g_a, so x is that sum, with no
    section call per orbit.  At n = h exactly one regular orbit has image
    order h and it contains [rho].
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
    gen_coords = list(zip(*gens))  # section(r)_k = sum_a r_a * gens[a][k]
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

    # per class: 0 singular, 1 regular and not yet walked, 2 walked
    state = _regular_mask(factors, forms, n)
    regular_classes = state.count(1)
    radix = [prod(factors[a + 1 :]) for a in range(len(factors))]
    rho = sum(map(mul, group.project(rd.rho), radix))
    regular_orbits = 0
    distinguished = 0
    rho_in_distinguished = False
    i = state.find(1)
    while i >= 0:
        start = tuple(i // w % d for w, d in zip(radix, factors))
        rho_pending = state[rho] == 1
        state[i] = 2
        orbit = [start]
        for x in orbit:
            for j, m in enumerate(mats):
                y = apply_mod(m, factors, x)
                k = sum(map(mul, y, radix))
                if not state[k]:
                    raise InternalCheckError(
                        f"{rd.type_string} at n={n}: s_{j + 1} maps the regular "
                        f"class {x} to the singular class {y}"
                    )
                if state[k] == 1:
                    state[k] = 2
                    orbit.append(y)
        regular_orbits += 1
        if gcd(n, *(sum(map(mul, c, start)) for c in gen_coords)) == 1:  # image order n
            distinguished += 1
            rho_in_distinguished |= rho_pending and state[rho] == 2
        i = state.find(1, i)

    return OrbitReport(
        type_string=rd.type_string,
        n=n,
        total_classes=group.order,
        regular_classes=regular_classes,
        regular_orbits=regular_orbits,
        regular_orbits_with_image_order_n=distinguished,
        rho_in_distinguished_orbit=rho_in_distinguished and distinguished == 1,
    )
