"""Character values at the Coxeter conjugacy class, in polynomial time.

The value of an irreducible character with highest weight lambda at the
Coxeter class is 0, +1 or -1.  One pass over the positive coroots gives
it: with mu = lambda + rho, the value is 0 when some <mu, beta_vee> is
0 mod h (mu is singular mod h, and the first such beta_vee in table
order is the witness); otherwise it is (-1)**walls with walls =
sum_beta floor(<mu, beta_vee> / h), the number of affine walls between
mu and the fundamental alcove of W x hQ.  Reflecting mu across those
walls one at a time reaches rho, the only integral point of the open
alcove, and every reflection has determinant -1.  That walk,
``alcove_reduce``, is kept as the reference the wall count is checked
against; the fast path never takes it.

The pass is packed: each factor holds, per simple-coroot coordinate i,
one big integer with a field per positive coroot in table order
(``rootdata.PackedCoroots``).  sum_i (mu_i mod h) * column_i puts
<mu mod h, beta_vee> in every field at once, and
``rootdata._reduce_fields`` reduces them mod h.  A field is the least
whole number of bytes whose top bit lies above the reduction's range,
2 * bias with bias the least multiple of h at least (h - 1)^2 / 2 (the
largest pairing), and that holds the sum of all the residues: 8 bits up
to D4, 16 for E8, 24 for A60.  The lowest zero field is the witness.
None of this enumerates the Weyl group, and its cost does not grow with
lambda: an E8 weight is r big-integer multiply-adds and a few masked
subtractions, not 120 interpreted steps.

Also here: the central character of rho, the order of the canonical
Coxeter lift in the simply connected cover of the dual adjoint group,
the Frobenius-Schur indicator, and the principal-cocharacter checks.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import InternalCheckError, TheoremViolation
from .lattice import FiniteAbelianGroup
from .rootdata import RootDatum, RootPair, SimpleFactor, Weight, _json_fields, _reduce_fields
from .weyl import duality_involution


class BlockingCoroot(NamedTuple):
    """Witness that mu = lambda + rho is singular mod h: <mu, coroot> = 0 mod h."""

    factor: int
    pair: RootPair  # full-rank embedded coordinates

    def as_dict(self) -> dict:
        return _json_fields(self.pair, factor=self.factor, pairing_mod_h=0)


class FactorCharValue(NamedTuple):
    """One factor's pass: its wall count, or None and its blocking coroot."""

    steps: Optional[int]
    blocking_coroot: Optional[BlockingCoroot]

    def as_dict(self) -> dict:
        if self.steps is None:
            return {"value": 0, "regular": False}
        odd = self.steps % 2
        return {"value": -1 if odd else 1, "regular": True, "sign_parity": odd,
                "steps": self.steps}


class CharReport(NamedTuple):
    """Value and provenance of a character evaluation at the Coxeter class."""

    value: int
    blocking_coroot: Optional[BlockingCoroot]
    factors: tuple[FactorCharValue, ...]

    @property
    def regular(self) -> bool:
        return self.value != 0

    @property
    def sign_parity(self) -> Optional[int]:
        """value = (-1)**sign_parity; None when the value is 0."""
        return int(self.value < 0) if self.value else None

    @property
    def endpoint_is_rho(self) -> Optional[bool]:
        """True when regular: the alcove walk of lambda + rho ends at rho, as
        the build asserts that rho is the only integral point of the open
        fundamental alcove.  None when singular."""
        return True if self.value else None

    def as_dict(self) -> dict:
        out: dict = {"value": self.value, "regular": self.regular}
        if self.value:
            out["sign_parity"] = self.sign_parity
            out["endpoint_is_rho"] = True
        else:
            out["blocking_coroot"] = self.blocking_coroot.as_dict()
        out["factors"] = [f.as_dict() for f in self.factors]
        return out


def _walls_or_blocking(f: SimpleFactor, mu: Sequence[int]) -> int | RootPair:
    """One packed pass over the positive coroots of f: the first beta, in
    table order, with <mu, beta_vee> = 0 mod h, or, when there is none,
    the number of affine walls sum_beta floor(<mu, beta_vee> / h) between
    the strictly dominant mu and the fundamental alcove.

    Field t of x holds <mu mod h, beta_t_vee> reduced mod h.  Subtracting
    1 from every field borrows through the top bit of exactly the zero
    fields, and the lowest of them is the witness.  Otherwise the fields
    sum to x mod 2^bits - 1, the residues of <mu, beta_vee> mod h, and
    the walls are (<mu, 2 rho_vee> - that sum) / h.
    """
    h = f.coxeter_number
    k = f.packed
    x = _reduce_fields(sum(map(mul, [c % h for c in mu], k.columns)), h, k.bias, k.bits, k.ones)
    zero = (x - k.ones) & k.high
    if zero:
        return f.positive[(zero & -zero).bit_length() // k.bits - 1]
    return (sum(map(mul, mu, f.two_rho_check)) - x % ((1 << k.bits) - 1)) // h


def alcove_reduce(rd: RootDatum, mu: Sequence[int]) -> tuple[Weight, int, int]:
    """Reflect a strictly dominant, regular-mod-h weight into the open
    fundamental alcove of W x hQ, factor by factor; returns (endpoint,
    sign, steps) with sign = (-1)**steps, the product of the reflection
    determinants.

    This is the reference walk the wall count is checked against.  Its
    walls: the r linear walls <x, alpha_i_vee> = 0 (apply s_i, lowest
    index first) and the affine wall <x, gamma_vee> = h for the highest
    coroot gamma_vee (apply x -> x - (<x, gamma_vee> - h) * gamma).  Each
    reflection removes exactly one of the walls between x and the alcove,
    so a walk longer than the wall count, or one that hits a wall
    exactly, raises InternalCheckError.
    The endpoint must be rho; anything else would falsify the theory and
    raises TheoremViolation.
    """
    mu = rd.validate_weight(mu)
    if any(c <= 0 for c in mu):
        raise ValueError(f"{mu} is not strictly dominant")
    endpoint: list[int] = []
    steps = 0
    for k, f in enumerate(rd.factors):
        h = f.coxeter_number
        mu_k = mu[rd.factor_slice(k)]
        walls = _walls_or_blocking(f, mu_k)
        if not isinstance(walls, int):
            raise InternalCheckError(
                f"alcove reduction of {mu} meets the wall <x, beta_vee> = 0 mod {h} "
                f"of {f.name} for beta_vee = {walls.coroot}",
                witness={"type": rd.type_string, "factor": f.name, "mu": list(mu), "h": h,
                         "coroot": list(walls.coroot)},
            )
        # the r + 1 walls: alpha_j in fundamental-weight coords, then the
        # partner root gamma of the highest coroot
        roots = [tuple(row[j] for row in f.cartan) for j in range(f.rank)]
        roots.append(f.highest_coroot.root)
        gamma_vee = f.highest_coroot.coroot
        x = list(mu_k)
        for step in range(walls + 1):
            for j in range(f.rank):
                if x[j] <= 0:
                    excess = x[j]
                    break
            else:
                j = f.rank
                excess = sum(map(mul, x, gamma_vee)) - h
                if excess < 0:
                    break  # x is in the open alcove: the walk is done
            if excess == 0:
                wall = f"<x, alpha_{j+1}_vee> = 0" if j < f.rank else f"<x, gamma_vee> = {h}"
                raise InternalCheckError(
                    f"alcove reduction hit the wall {wall} at {tuple(x)}",
                    witness={"type": rd.type_string, "factor": f.name, "mu": list(mu),
                             "wall": wall, "at": x},
                )
            root = roots[j]
            for i in range(f.rank):
                x[i] -= excess * root[i]
        else:
            raise InternalCheckError(
                f"alcove reduction of {mu} on {f.name} took more than "
                f"the {walls} steps its wall count allows",
                witness={"type": rd.type_string, "factor": f.name, "mu": list(mu),
                         "walls": walls},
            )
        endpoint.extend(x)
        steps += step  # the reflections made before the walk broke off
    endpoint_t = tuple(endpoint)
    if endpoint_t != rd.rho:
        raise TheoremViolation(
            f"alcove reduction of {mu} in {rd.type_string} ended at {endpoint_t}, not rho",
            witness={"type": rd.type_string, "mu": list(mu), "endpoint": list(endpoint_t)},
        )
    return endpoint_t, -1 if steps % 2 else 1, steps


def char_at_coxeter(rd: RootDatum, lam: Sequence[int]) -> CharReport:
    """Character value of the irreducible with highest weight lambda at
    the Coxeter conjugacy class; always one of -1, 0, +1.

    One packed pass per factor (``_walls_or_blocking``): mu = lambda +
    rho is singular mod h (value 0, with the first blocking coroot as
    witness) or crosses ``steps`` affine walls on its way to rho (value
    (-1)**steps).  The value is the product over the factors, and the
    report's witness is that of the first singular factor.
    """
    lam = rd.validate_weight(lam, dominant=True)
    factors = []
    for k, f in enumerate(rd.factors):
        hit = _walls_or_blocking(f, [c + 1 for c in lam[rd.factor_slice(k)]])
        if isinstance(hit, int):
            factors.append(FactorCharValue(hit, None))
        else:
            embedded = RootPair(*(rd.embed(k, coords) for coords in hit))
            factors.append(FactorCharValue(None, BlockingCoroot(k, embedded)))
    witness = next((fv.blocking_coroot for fv in factors if fv.steps is None), None)
    value = 0 if witness is not None else -1 if sum(fv.steps for fv in factors) % 2 else 1
    return CharReport(value, witness, tuple(factors))


def regularity_test(
    rd: RootDatum, lam: Sequence[int]
) -> tuple[bool, Optional[BlockingCoroot]]:
    """Is <lambda + rho, beta_vee> nonzero mod h for every positive
    coroot beta_vee (per simple factor, with that factor's h)?

    Returns ``(regular, blocking_coroot)`` of ``char_at_coxeter``: the
    first blocking coroot of the first singular factor is the witness
    when the answer is no.  Rejects non-dominant or non-integral lambda.
    """
    rep = char_at_coxeter(rd, lam)
    return rep.regular, rep.blocking_coroot


class CentralCharacter(NamedTuple):
    """Restriction of rho to the center, on the canonical generators."""

    values: tuple[int, ...]  # +1 or -1 per invariant factor of P/Q
    order: int  # 1 or 2

    def as_dict(self) -> dict:
        return _json_fields(self)


def _rho_on_center(center: FiniteAbelianGroup, rho: Weight, name: str) -> tuple[int, ...]:
    """rho on the center: project rho into P/Q, presented by the Smith
    form of the Cartan matrix, and read off +-1 per generator.  The order
    always divides 2 (twice rho is a sum of roots); anything else raises
    TheoremViolation."""
    residues = center.project(rho)
    if any(r_i and 2 * r_i != d_i for r_i, d_i in zip(residues, center.invariant_factors)):
        raise TheoremViolation(
            f"rho has order > 2 on the center of {name}",
            witness={"type": name, "residues": list(residues)},
        )
    return tuple(-1 if r_i else 1 for r_i in residues)


def rho_central_character(rd: RootDatum) -> CentralCharacter:
    """rho on the center of rd, +-1 per canonical generator of P/Q."""
    values = _rho_on_center(rd.center, rd.rho, rd.type_string)
    return CentralCharacter(values=values, order=2 if -1 in values else 1)


class LiftOrderReport(NamedTuple):
    factor: str
    coxeter_number: int
    lift_order: int
    matches_h: bool

    def as_dict(self) -> dict:
        return _json_fields(self)


def coxeter_lift_order(rd: RootDatum) -> tuple[LiftOrderReport, ...]:
    """Order of the canonical lift of the Coxeter class of the adjoint
    form of the dual group into its simply connected cover, per factor.

    The adjoint-side element is rho viewed as a cocharacter evaluated at
    a primitive h-th root of unity; its lifts have order equal to the
    least m with m*rho/h in the root lattice, namely h times the order
    of [rho] in P/Q.  That order is read from the root table: rho is half
    the sum of the positive roots, so [rho] is in Q exactly when every
    simple coordinate of the sum is even.  ``matches_h`` (lift order h)
    must hold iff rho is trivial on the center, which ``_rho_on_center``
    reads from the Smith form of the Cartan matrix; a disagreement
    raises TheoremViolation.
    """
    reports = []
    for f in rd.factors:
        h = f.coxeter_number
        two_rho = [sum(c) for c in zip(*(p.simple_coords for p in f.positive))]
        lift_order = h if all(c % 2 == 0 for c in two_rho) else 2 * h
        trivial = all(v == 1 for v in _rho_on_center(f.center, f.rho, f.name))
        if (lift_order == h) != trivial:
            raise TheoremViolation(
                f"central-character/lift-order equivalence failed for {f.name}",
                witness={"factor": f.name, "lift_order": lift_order, "rho_trivial": trivial},
            )
        reports.append(LiftOrderReport(f.name, h, lift_order, matches_h=trivial))
    return tuple(reports)


def fs_indicator(rd: RootDatum, lam: Sequence[int]) -> int:
    """Frobenius-Schur indicator: 0 unless the representation is
    self-dual, else the sign of <lambda, sum of positive coroots>.

    The sign is the value on lambda of the central involution obtained
    by evaluating the principal cocharacter at -1, which separates
    orthogonal (+1) from symplectic (-1).
    """
    lam = rd.validate_weight(lam, dominant=True)
    return _fs_sign(rd, lam, duality_involution(rd, lam))


def _fs_sign(rd: RootDatum, lam: Weight, dual: Weight) -> int:
    """The indicator of the dominant lam whose dual highest weight is dual."""
    if dual != lam:
        return 0
    total = 0
    for k, f in enumerate(rd.factors):
        total += sum(a * b for a, b in zip(lam[rd.factor_slice(k)], f.two_rho_check))
    return -1 if total % 2 else 1


class PrincipalCocharacterReport(NamedTuple):
    factor: str
    coxeter_number: int
    rho_pairings_all_one: bool
    adjoint_order: int
    adjoint_order_is_h: bool
    regular: bool

    @property
    def passed(self) -> bool:
        return self.rho_pairings_all_one and self.adjoint_order_is_h and self.regular

    def as_dict(self) -> dict:
        return _json_fields(self, passed=self.passed)


def verify_principal_cocharacter(rd: RootDatum) -> tuple[PrincipalCocharacterReport, ...]:
    """Per-factor checks that rho-as-cocharacter is the principal one,
    each read from a source the build does not assert:

    (a) ``rho_pairings_all_one``: the sum of the positive roots, 2 rho,
        is (2, ..., 2) in fundamental-weight coordinates;
    (b) ``adjoint_order``: the order of the Coxeter element s_1 ... s_r,
        from the Cartan matrix alone, must be h (Kostant, Amer. J. Math.
        81 (1959)).  W acts freely on the orbit of rho, so the order is
        the length of the walk of rho under it until rho returns;
    (c) ``regular``: no root height is 0 mod that order.

    Failures are reported, not silently absorbed.
    """
    reports = []
    for f in rd.factors:
        # s_j: x_k -= x_j * A[k][j] for k != j with A[k][j] != 0, then x_j -> -x_j
        links = [[(k, row[j]) for k, row in enumerate(f.cartan) if k != j and row[j]]
                 for j in range(f.rank)]
        x = list(f.rho)
        for order in range(1, 2 * len(f.positive) + 1):  # |Phi| = r h bounds the order
            for j in reversed(range(f.rank)):  # s_r acts first
                xj = x[j]
                for k, a in links[j]:
                    x[k] -= xj * a
                x[j] = -xj
            if x == list(f.rho):
                break
        two_rho = [sum(c) for c in zip(*(p.root for p in f.positive))]
        reports.append(PrincipalCocharacterReport(
            f.name, f.coxeter_number, rho_pairings_all_one=all(c == 2 for c in two_rho),
            adjoint_order=order, adjoint_order_is_h=order == f.coxeter_number,
            regular=all(p.height % order for p in f.positive)))
    return tuple(reports)
