"""Seeded op lists for the four benchmark workloads, and the checks on
their outputs.

The parameters live in ``design.json`` beside this file.  The checks
never call the code they check: they use only the positive coroots that
``build(t).positive_roots()`` lists, and from them derive the Coxeter
number, regularity mod h, the sign of the alcove walk, self-duality and
the sizes of the torsion groups by elementary arithmetic.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

DESIGN = json.loads((Path(__file__).with_name("design.json")).read_text())
WORKLOADS = tuple(DESIGN["workloads"])


class FactorInfo:
    """What the checks need about one simple factor, derived from its
    positive coroots only."""

    def __init__(self, family: str, rank: int, offset: int, cartan, coroots):
        self.rank = rank
        self.offset = offset
        self.coroots = coroots
        # |Phi| = h * rank
        self.h = 2 * len(coroots) // rank
        self.two_rho_check = [sum(c[j] for c in coroots) for j in range(rank)]
        self.sigma = _minus_w0(family, rank)
        self.det = _det(cartan)
        self.weyl_order = _weyl_order(family, rank)

    def local(self, lam):
        return lam[self.offset:self.offset + self.rank]

    def walk(self, lam):
        """(regular, number of affine walls between lam+rho and the
        fundamental alcove of W x hQ).  The character value is 0 when
        singular and (-1)**walls otherwise."""
        mu = [c + 1 for c in self.local(lam)]
        walls = 0
        for cor in self.coroots:
            p = sum(a * b for a, b in zip(mu, cor))
            if p % self.h == 0:
                return False, None
            walls += p // self.h
        return True, walls


def _minus_w0(family: str, rank: int) -> list[int]:
    """-w0 as a permutation of the simple roots (Bourbaki numbering)."""
    perm = list(range(rank))
    if family == "A":
        perm.reverse()
    elif family == "D" and rank % 2 == 1:
        perm[rank - 2], perm[rank - 1] = perm[rank - 1], perm[rank - 2]
    elif family == "E" and rank == 6:
        perm = [5, 1, 4, 3, 2, 0]
    return perm


def _det(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        piv = next((k for k in range(i, n) if m[k][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for k in range(i + 1, n):
            f = m[k][i] / m[i][i]
            for j in range(i, n):
                m[k][j] -= f * m[i][j]
    return int(det)


def _weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in "BC":
        return 2**rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(family, rank)]


class TypeInfo:
    """A Cartan type such as "A2xG2", split into its simple factors."""

    def __init__(self, type_string: str, build):
        self.factors = []
        offset = 0
        for part in type_string.split("x"):
            rd = build(part)
            cartan = [list(rd.cartan[i]) for i in range(rd.rank)]
            coroots = [p.coroot for p in rd.positive_roots()]
            self.factors.append(FactorInfo(part[0], rd.rank, offset, cartan, coroots))
            offset += rd.rank
        self.rank = offset

    def expected_value(self, lam):
        """(value, walls summed over factors, or None when singular)."""
        value, total = 1, 0
        for f in self.factors:
            regular, walls = f.walk(lam)
            if not regular:
                return 0, None
            value *= -1 if walls % 2 else 1
            total += walls
        return value, total

    def expected_fs(self, lam) -> int:
        """0 unless lam = -w0(lam); then the sign of <lam, 2 rho_check>."""
        pairing = 0
        for f in self.factors:
            loc = f.local(lam)
            if [loc[f.sigma[i]] for i in range(f.rank)] != list(loc):
                return 0
            pairing += sum(a * b for a, b in zip(loc, f.two_rho_check))
        return -1 if pairing % 2 else 1


def workload_types(name: str) -> list[str]:
    spec = DESIGN["workloads"][name]
    if name == "torsion-census":
        return sorted(set(spec["classify_types"]) | set(spec["duality_types"]))
    return list(spec["types"])


def generate(name: str, seed: int, info: dict[str, TypeInfo]) -> list:
    """The op list of one pass, a pure function of (workload, seed)."""
    spec = DESIGN["workloads"][name]
    rng = random.Random(f"{name}/{seed}")
    if name in ("table-small", "verify-oracle"):
        ops = [
            [t, [rng.randint(0, 5) for _ in range(info[t].rank)]]
            for _ in range(spec["blocks_per_pass"])
            for t, k in spec["types"].items()
            for _ in range(k)
        ]
        rng.shuffle(ops)
        return ops
    if name == "char-large":
        return _char_large(spec, rng, info)
    if name == "torsion-census":
        ops = [["classify", t, info[t].factors[0].h] for t in spec["classify_types"]]
        ops += [
            ["duality", t, n, spec["duality_trials"], rng.randrange(2**31)]
            for t in spec["duality_types"]
            for n in spec["duality_n"]
        ]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {name!r}")


def _char_large(spec, rng, info) -> list:
    """Weights on a fixed ladder of alcove-walk lengths, so that every
    seed costs the same; the seed picks the directions."""
    types = spec["types"]
    n = spec["ladder_ops"]
    targets = [
        (types[j % len(types)], 10 ** (spec["ladder_max_exponent"] * (j + 0.5) / n))
        for j in range(n)
    ]
    targets += [(t, spec["over_cap_walls"]) for t in spec["over_cap_types"]]
    ops = [[t, _weight_with_walls(info[t], walls, rng)] for t, walls in targets]
    rng.shuffle(ops)
    return ops


def _weight_with_walls(ti: TypeInfo, walls: float, rng) -> list[int]:
    """A regular dominant weight whose alcove walk crosses about
    ``walls`` walls: a log-uniform direction scaled along <., 2 rho_check>."""
    (f,) = ti.factors
    while True:
        shape = [int(10 ** (6 * rng.random())) - 1 for _ in range(f.rank)]
        height = sum(a * b for a, b in zip(shape, f.two_rho_check))
        if height == 0:
            continue
        scale = walls * f.h / height
        # random rounding gives rank-one types two candidates per length
        lam = [int(c * scale + rng.random()) for c in shape]
        if ti.expected_value(lam)[1] is not None:
            return lam


def check(name: str, op, res, info: dict[str, TypeInfo]) -> str | None:
    """Why the result of one op is wrong, or None when it is right.

    ``res`` is what the worker recorded: {"err": exception name} for an
    op that raised, else the op's outputs."""
    if "err" in res:
        return f"raised {res['err']}"
    if "probe" in res:
        return res["probe"]
    if name == "torsion-census":
        return _check_torsion(op, res, info[op[1]])
    t, lam = op
    ti = info[t]
    value, _ = ti.expected_value(lam)
    if res["value"] not in (-1, 0, 1):
        return f"value {res['value']} outside -1, 0, 1"
    if res["value"] != value:
        return f"value {res['value']} != expected {value}"
    if t == "A1" and res["value"] != (1, 0, -1, 0)[lam[0] % 4]:
        return f"A1 value {res['value']} != [1, 0, -1, 0][lam mod 4]"
    if name == "table-small":
        fs = ti.expected_fs(lam)
        if res["fs"] != fs:
            return f"fs {res['fs']} != expected {fs}"
    if name == "verify-oracle" and res["oracle"] != res["value"]:
        return f"oracle {res['oracle']} != fast path {res['value']}"
    return None


def _check_torsion(op, res, ti: TypeInfo) -> str | None:
    (f,) = ti.factors
    n = op[2]
    if op[0] == "classify":
        want = {
            "total_classes": n**f.rank * f.det,
            # W acts freely on regular classes of P/hQ, and rho is the only
            # integral point of the open alcove of W x hQ: one orbit of size |W|
            "regular_classes": f.weyl_order,
            "regular_orbits": 1,
            "regular_orbits_with_image_order_n": 1,
            "rho_in_distinguished_orbit": True,
        }
        for key, value in want.items():
            if res[key] != value:
                return f"{key} {res[key]} != expected {value}"
        return None
    order = n**f.rank * f.det
    for side in ("invariant_factors_coweight_side", "invariant_factors_weight_side"):
        if math.prod(res[side]) != order:
            return f"|{side}| {math.prod(res[side])} != n^r det A = {order}"
    if res["invariant_factors_coweight_side"] != res["invariant_factors_weight_side"]:
        return "torsion presentations are not isomorphic"
    if not (res["isomorphic"] and res["action_well_defined"]):
        return f"duality report failed: {res}"
    return None
