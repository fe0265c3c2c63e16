"""Torsion points of the simply-connected / adjoint torus pair.

For a datum with weight lattice P, root lattice Q and their duals, the
n-torsion of the kernel-of-multiplication construction is presented two
ways: as the coweight-side quotient P_vee / n Q_vee and as the
weight-side character group P / n Q.  The two presentations are
abstractly isomorphic, Weyl-equivariantly; ``duality_report`` checks
this executable content, and ``classify_regular_orbits`` counts the
regular Weyl orbits on P / n Q to exhibit the distinguished one at n = h.

The census enumerates nothing.  W acts freely on the regular classes
of P / n Q (those on no wall <x, beta_vee> = kn of the affine Weyl group
W x nQ), and its orbits are in bijection with the points of P in the
open alcove: mu_i >= 1 and sum_i c_i mu_i <= n - 1, with c the highest
coroot, factor by factor (Humphreys, Reflection Groups and Coxeter
Groups, 4.3-4.9).  The orbits whose image in P / n P has order n are
those with gcd(n, mu) = 1, counted by Moebius inversion over the
squarefree divisors of n.  There is no bound on the number of classes;
the census refuses only when its own table would be large (rank * n
above _TABLE_LIMIT), and the duality check has no bound at all.

The duality check is an exact certificate.  ``project`` is linear with
kernel nQ and a simple reflection is linear, so for x2 = x + n*A*m the
differences of the classes of x and x2, and of s_j(x) and s_j(x2), are
sum_i m_i times the classes of n*alpha_i and s_j(n*alpha_i).  The action
is well defined for every x and m exactly when those r(r + 1) vectors
project to zero; with one Smith form (of n*A) that is the whole cost.
The coweight side needs no second Smith form: the invariant factors of
n*A^T are n times those of A, read off the center P/Q.  Only a failed
certificate draws random trials, one at a time, to name the earliest
failing trial as the witness.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CapExceeded
from .lattice import FiniteAbelianGroup, quotient
from .rootdata import RootDatum, _json_fields, pairing
from .weyl import _reflect

# classify_regular_orbits keeps n table entries per factor and makes
# rank * n additions; it refuses above this
_TABLE_LIMIT = 10**6


def char_group_of_torsion(rd: RootDatum, n: int) -> FiniteAbelianGroup:
    """The weight-side presentation P / n Q (column span of n * A)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return quotient(rd.rank, rd.cartan.scale(n))


class DualityReport(NamedTuple):
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
        return _json_fields(self, passed=self.passed)


def duality_report(
    rd: RootDatum, n: int, trials: int = 1000, seed: int = 0
) -> DualityReport:
    """Check the two torsion presentations agree and the Weyl action on
    weight-side classes is independent of the representative.

    One Smith form (of n*A) presents P / n Q.  The coweight side
    P_vee / n Q_vee has n times the Smith diagonal of A, read off the
    center (padded with 1s to rank r, keeping factors >= 2), so
    ``isomorphic`` compares two independent computations.  The action is
    decided exactly by r(r + 1) projections: ``project`` and ``_reflect``
    are linear, so for x2 = x + n*A*m the classes of x and x2 (of s_j(x)
    and s_j(x2)) differ by sum_i m_i times the class of n*alpha_i (of
    s_j(n*alpha_i)), and every trial passes exactly when all are zero.

    ``trials`` and ``seed`` only name the witness after a failed
    certificate: ``_first_failure`` runs the trials one at a time from
    ``random.Random(seed)`` and returns the earliest failing one, with
    reflection None when x and x2 already differ and otherwise the first
    simple reflection (1-based) that separates them.  It is None when the
    trials miss, and ``action_well_defined`` stays False.  Raises
    ValueError for n < 1 or trials < 1; there is no bound on n.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cg = char_group_of_torsion(rd, n)
    r = rd.rank
    center = rd.center.invariant_factors
    coweight_side = tuple(n * d for d in (1,) * (r - len(center)) + center if n * d >= 2)
    cartan = rd.cartan
    certified = not any(
        any(cg.project(v))
        for a in zip(*cartan.scale(n))  # the columns n * alpha_i of n * A
        for v in [a] + [_reflect(cartan, a, j) for j in range(r)]
    )
    return DualityReport(
        type_string=rd.type_string,
        n=n,
        invariant_factors_coweight_side=coweight_side,
        invariant_factors_weight_side=cg.invariant_factors,
        isomorphic=coweight_side == cg.invariant_factors,
        action_well_defined=certified,
        trials=trials,
        witness=None if certified else _first_failure(rd, cg, n, trials, seed),
    )


def _first_failure(
    rd: RootDatum, group: FiniteAbelianGroup, n: int, trials: int, seed: int
) -> Optional[dict]:
    """The witness of the first trial of ``duality_report`` whose classes
    differ, or None; run only after a failed certificate.

    Each trial draws x (|x_k| <= 3n) and then m (|m_k| <= 2), sets
    x2 = x + n*A*m, and projects x and x2, then s_j(x) and s_j(x2) for
    each simple reflection, as actual weight vectors.
    """
    r = rd.rank
    cartan = rd.cartan
    project = group.project
    randrange = random.Random(seed).randrange
    for _ in range(trials):
        x = [randrange(-3 * n, 3 * n + 1) for _ in range(r)]
        m = [randrange(-2, 3) for _ in range(r)]
        x2 = [a + n * b for a, b in zip(x, cartan.apply(m))]
        if project(x) != project(x2):
            return {"x": x, "x2": x2, "reflection": None}
        for j in range(r):
            if project(_reflect(cartan, x, j)) != project(_reflect(cartan, x2, j)):
                return {"x": x, "x2": x2, "reflection": j + 1}
    return None


class OrbitReport(NamedTuple):
    type_string: str
    n: int
    total_classes: int
    regular_classes: int
    regular_orbits: int
    regular_orbits_with_image_order_n: int
    rho_in_distinguished_orbit: bool

    def as_dict(self) -> dict:
        return _json_fields(self)


def _moebius_divisors(n: int) -> list[tuple[int, int]]:
    """(d, moeb(d)) for every squarefree divisor d of n, by trial division."""
    out = [(1, 1)]
    p = 2
    while p * p <= n:
        if n % p == 0:
            out += [(d * p, -sign) for d, sign in out]
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out += [(d * n, -sign) for d, sign in out]
    return out


def _alcove_points(c: Sequence[int], budgets: Iterable[int]) -> dict[int, int]:
    """{b: #{mu in ZZ^r : all mu_i >= 1, sum_i c_i mu_i <= b}} per budget b.

    With mu = 1 + nu these are the nu >= 0 with sum_i c_i nu_i <= b - sum(c).
    One coin-change table over weights c holds in ways[s] the number of nu
    with sum exactly s, up to the largest budget; a single running sum over
    it reads every budget.  Cost O(r * max(budgets)).
    """
    budgets = sorted(budgets)
    shift = sum(c)
    top = budgets[-1] - shift
    ways = [1] + [0] * top
    for w in c:
        for s in range(w, top + 1):
            ways[s] += ways[s - w]
    counts = {}
    acc = s = 0
    for b in budgets:
        while s <= b - shift:
            acc += ways[s]
            s += 1
        counts[b] = acc
    return counts


def classify_regular_orbits(rd: RootDatum, n: int) -> OrbitReport:
    """Count the regular Weyl orbits on P/nQ, and those whose image in
    P/nP has order n, from the integral points of an alcove.

    A class is regular when no positive-coroot pairing vanishes mod n,
    that is when it lies on no wall <x, beta_vee> = kn of the affine Weyl
    group W x nQ.  W acts freely on the regular classes, and each regular
    orbit meets the open alcove mu_i > 0, <mu, c> < n (c the highest
    coroot) in exactly one point of P (Humphreys, Reflection Groups and
    Coxeter Groups, 4.3-4.9).  Factor by factor the regular orbits are
    the mu in ZZ^r with mu_i >= 1 and sum_i c_i mu_i <= n - 1, and the
    regular classes are |W| times as many.

    The image of the class of x in P/nP has order n / gcd(n, coords of x),
    constant on orbits, so the orbits of image order n are the alcove
    points with gcd(n, mu) = 1.  Moebius inversion counts them:
    sum over d | n of moeb(d) * prod_k #{mu >= 1 : <mu, c_k> <= (n - 1) // d}.
    [rho] always has image order n, since rho = (1, ..., 1); it is in
    the distinguished orbit when it is regular and exactly one orbit has
    image order n.  At n = h the alcove holds rho alone, so exactly one
    regular orbit has image order h and it contains [rho].  Nothing is
    enumerated: one coin-change table per factor (``_alcove_points``),
    O(r * n).  Raises ValueError for n < 1 and CapExceeded when r * n
    exceeds _TABLE_LIMIT.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rd.rank * n > _TABLE_LIMIT:
        raise CapExceeded(
            f"{rd.type_string} at n={n}: rank * n = {rd.rank * n} exceeds the census"
            f" table limit {_TABLE_LIMIT}"
        )
    divisors = _moebius_divisors(n)
    points = dict.fromkeys(((n - 1) // d for d, _ in divisors), 1)
    for f in rd.factors:
        counts = _alcove_points(f.highest_coroot.coroot, points)
        for b in points:
            points[b] *= counts[b]
    distinguished = sum(sign * points[(n - 1) // d] for d, sign in divisors)
    rho = rd.rho
    rho_regular = all(
        pairing(rho[rd.factor_slice(k)], p.coroot) % n
        for k, f in enumerate(rd.factors)
        for p in f.positive
    )
    return OrbitReport(
        type_string=rd.type_string,
        n=n,
        total_classes=n**rd.rank * rd.center.order,
        regular_classes=rd.weyl_order * points[n - 1],
        regular_orbits=points[n - 1],
        regular_orbits_with_image_order_n=distinguished,
        rho_in_distinguished_orbit=rho_regular and distinguished == 1,
    )
