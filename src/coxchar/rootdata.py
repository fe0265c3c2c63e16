"""Root data of simply connected complex semisimple groups.

Conventions, fixed once and documented in the README:

* Bourbaki numbering of simple roots for every family.
* The Cartan matrix is stored as ``A[i][j] = <alpha_j, alpha_i_vee>``,
  so simple root alpha_j has fundamental-weight coordinates equal to
  column j of A.
* A weight is an integer tuple of coordinates in the fundamental-weight
  basis; a coweight is a tuple (rational in general) in the simple-coroot
  basis.  With these bases ``<weight, coweight>`` is the plain dot
  product of coordinate tuples.

Product types concatenate blocks along the diagonal; per-factor data
(Coxeter number, highest coroot, ...) is retained on the factors.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from functools import cache
from math import prod
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InternalCheckError
from .lattice import FiniteAbelianGroup, IntMatrix, quotient

Weight = tuple[int, ...]

_FAMILY_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
_FACTOR_RE = re.compile(r"([A-G])([0-9]+)")


class CartanType(NamedTuple):
    """Ordered list of (family, rank) simple factors."""

    factors: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)


def parse_cartan_type(type_string: str) -> CartanType:
    """Parse a string like ``"A2"`` or ``"A1xB3"``; raises ValueError."""
    s = type_string.strip()
    if not s:
        raise ValueError("empty Cartan type string")
    factors = []
    for part in s.split("x"):
        m = _FACTOR_RE.fullmatch(part.strip())
        if m is None:
            raise ValueError(f"malformed Cartan type factor {part!r} in {type_string!r}")
        fam, rank = m.group(1), int(m.group(2))
        lo = _FAMILY_MIN_RANK[fam]
        if rank < lo:
            hint = " (D3 is written A3)" if fam == "D" else ""
            raise ValueError(f"{fam}{rank}: rank must be >= {lo}{hint}")
        if fam == "E" and rank not in (6, 7, 8):
            raise ValueError(f"E{rank}: rank must be 6, 7 or 8")
        if fam == "F" and rank != 4:
            raise ValueError(f"F{rank}: only F4 exists")
        if fam == "G" and rank != 2:
            raise ValueError(f"G{rank}: only G2 exists")
        factors.append((fam, rank))
    return CartanType(tuple(factors))


def _cartan(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix A[i][j] = <alpha_j, alpha_i_vee>."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1

    if family == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif family == "B":  # alpha_rank is the short root
        for i in range(rank - 1):
            link(i, i + 1)
        a[rank - 1][rank - 2] = -2
    elif family == "C":  # alpha_rank is the long root
        for i in range(rank - 1):
            link(i, i + 1)
        a[rank - 2][rank - 1] = -2
    elif family == "D":
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 3, rank - 1)
    elif family == "E":  # chain 1-3-4-5-... with node 2 hanging off node 4
        chain = [0] + list(range(2, rank))
        for x, y in zip(chain, chain[1:]):
            link(x, y)
        link(1, 3)
    elif family == "F":  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        link(0, 1)
        link(1, 2)
        link(2, 3)
        a[2][1] = -2
    elif family == "G":  # alpha_1 short, alpha_2 long
        a[0][1] = -3
        a[1][0] = -1
    else:  # pragma: no cover
        raise ValueError(f"unknown family {family!r}")
    return a


def _json_fields(rec: tuple, **extra) -> dict:
    """The JSON form of a record: its fields, with tuples as lists and
    ``type_string`` as ``type``, then the ``extra`` keys."""
    out = {
        "type" if k == "type_string" else k: list(v) if isinstance(v, tuple) else v
        for k, v in rec._asdict().items()
    }
    return {**out, **extra}


class RootPair(NamedTuple):
    """A positive root with its coroot.

    ``root`` is in fundamental-weight coordinates, ``simple_coords`` in
    the simple-root basis, ``coroot`` (always integral) in the
    simple-coroot basis.
    """

    root: tuple[int, ...]
    simple_coords: tuple[int, ...]
    coroot: tuple[int, ...]

    @property
    def coroot_height(self) -> int:
        return sum(self.coroot)

    @property
    def height(self) -> int:
        return sum(self.simple_coords)


def _failed(name: str, lhs: str, rhs: str, got, want) -> InternalCheckError:
    """The error for a build identity lhs = rhs of factor ``name`` that
    came out as got != want."""
    return InternalCheckError(
        f"{name}: {lhs} != {rhs} ({got} != {want})",
        witness={"factor": name, "identity": f"{lhs} = {rhs}", "lhs": got, "rhs": want},
    )


def _positive_roots(name: str, a: list[list[int]]) -> list[RootPair]:
    """All positive roots and their coroots, raised from the simple roots.

    A root beta has fundamental-weight coordinates x_i = <beta, alpha_i_vee>,
    and s_i beta = beta - x_i alpha_i is a higher positive root exactly when
    x_i < 0.  W moves coroots with roots: (s_i beta)_vee = beta_vee -
    <alpha_i, beta_vee> alpha_i_vee.  Every positive root is reached from a
    simple root by such raising reflections (Humphreys, *Introduction to
    Lie Algebras*, 10.2).  The table is sorted by height, then simple
    coordinates.
    """
    rank = len(a)
    cols = [tuple(row[i] for row in a) for i in range(rank)]  # alpha_i
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = [RootPair(root=col, simple_coords=e, coroot=e) for col, e in zip(cols, simple)]
    known = set(simple)
    for x, b, c in roots:  # grows while it is walked
        for i, xi in enumerate(x):
            if xi >= 0:
                continue
            up = b[:i] + (b[i] - xi,) + b[i + 1 :]
            if up not in known:
                known.add(up)
                ci = c[i] - sum(map(mul, c, cols[i]))
                roots.append(
                    RootPair(
                        root=tuple(u - xi * v for u, v in zip(x, cols[i])),
                        simple_coords=up,
                        coroot=c[:i] + (ci,) + c[i + 1 :],
                    )
                )
    for p in roots:
        got = sum(map(mul, p.root, p.coroot))
        if got != 2:
            raise _failed(name, f"<beta, beta_vee> for beta = {list(p.simple_coords)}", "2", got, 2)
    return sorted(roots, key=lambda p: (p.height, p.simple_coords))


def _ones(size: int, width: int) -> int:
    """1 in each of `size` packed fields of `width` bytes."""
    return int.from_bytes((1).to_bytes(width, sys.byteorder) * size, sys.byteorder)


def _pack(values: Sequence[int], width: int) -> int:
    """Values v_t >= 0 as one integer sum_t v_t * 2^(8 * width * t)."""
    fields = b"".join([v.to_bytes(width, sys.byteorder) for v in values])
    return int.from_bytes(fields, sys.byteorder)


def _reduce_fields(x: int, n: int, bias: int, bits: int, ones: int) -> int:
    """Every packed field of x, a value in [0, 2 * bias] below its top
    bit, reduced mod n (n divides bias) without unpacking.

    Subtracts t = n * 2^s from the fields that hold at least t, for s
    down to 0; a field holds at least t exactly when adding 2^(bits-1) - t
    sets its top bit, which cannot carry into the next field.
    """
    top = bits - 1
    for s in reversed(range((2 * bias // n).bit_length())):
        t = n << s
        x -= t * (((x + ((1 << top) - t) * ones) >> top) & ones)
    return x


class PackedCoroots(NamedTuple):
    """The positive coroots of a factor as packed fields, one per coroot
    in table order: ``columns[i]`` = sum_t c_i(beta_t) * 2^(bits * t),
    with c_i(beta) the i-th simple-coroot coordinate of beta_vee.

    For 0 <= m_i < h, sum_i m_i * columns[i] holds <m, beta_t_vee> in
    field t.  That is at most (h - 1)^2, since no coroot is higher than
    h - 1, and ``bias`` is the least multiple of h with 2 * bias at least
    that, so ``_reduce_fields`` reduces every field mod h.
    ``bits`` is the least whole number of bytes with 2 * bias below the
    top bit of a field and |Phi+| * (h - 1), the largest residue sum,
    below 2^bits - 1.
    """

    columns: tuple[int, ...]
    bits: int
    bias: int
    ones: int  # 1 in every field
    high: int  # the top bit of every field


def _pack_coroots(positive: Sequence[RootPair], rank: int, h: int) -> PackedCoroots:
    bound = (h - 1) ** 2  # the largest <m, beta_vee> for 0 <= m_i < h
    bias = h * -(-bound // (2 * h))  # the least multiple of h with 2 * bias >= bound
    width = 1  # bytes
    while 2 * bias >= 1 << (8 * width - 1) or len(positive) * (h - 1) >= (1 << 8 * width) - 1:
        width += 1
    bits = 8 * width
    ones = _ones(len(positive), width)
    columns = tuple(_pack([p.coroot[i] for p in positive], width) for i in range(rank))
    return PackedCoroots(columns, bits, bias, ones, ones << (bits - 1))


class SimpleFactor(NamedTuple):
    """One simple factor of a root datum, fully precomputed."""

    family: str
    rank: int
    cartan: IntMatrix
    positive: tuple[RootPair, ...]
    coxeter_number: int
    center: FiniteAbelianGroup
    highest_coroot: RootPair
    two_rho_check: tuple[int, ...]  # simple-coroot coords of the sum of positive coroots
    weyl_order: int
    packed: PackedCoroots

    def __hash__(self) -> int:  # equal factors share family and rank; a tuple rehashes every field
        return hash((self.family, self.rank))

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank


@cache
def _build_factor(family: str, rank: int) -> SimpleFactor:
    name = f"{family}{rank}"
    a = _cartan(family, rank)
    cartan = IntMatrix.from_rows(a)
    positive = _positive_roots(name, a)

    num_roots = 2 * len(positive)
    if num_roots % rank != 0:
        raise _failed(name, "|Phi| mod rank", "0", num_roots % rank, 0)
    h = num_roots // rank
    top = 1 + max(p.height for p in positive)
    if h != top:
        raise _failed(name, "h", "1 + the highest root's height", h, top)

    by_coht = sorted(positive, key=lambda p: p.coroot_height)
    highest = by_coht[-1]
    if highest.coroot_height != h - 1:
        raise _failed(name, "highest coroot height", "h - 1", highest.coroot_height, h - 1)
    if len(by_coht) > 1 and by_coht[-2].coroot_height == h - 1:
        tops = sum(p.coroot_height == h - 1 for p in positive)
        raise _failed(name, "#{coroots of height h - 1}", "1", tops, 1)
    # with height h - 1, this makes rho the only integral point of the open
    # fundamental alcove: x_j >= 1 and <x, gamma_vee> < h force x = rho
    if min(highest.coroot) < 1:
        raise _failed(name, "min coordinate of the highest coroot", "1", min(highest.coroot), 1)
    # 0 and the minuscule omega_i, those with c_i = 1, represent P/Q (Bourbaki VIII.7.3)
    center = quotient(rank, cartan)
    if center.order != 1 + highest.coroot.count(1):
        raise _failed(name, "|P/Q|", "1 + #{i : c_i = 1} for the highest coroot c",
                      center.order, 1 + highest.coroot.count(1))

    two_rho_check = tuple(
        sum(p.coroot[j] for p in positive) for j in range(rank)
    )
    # <alpha_i, rho_check> = 1 is the identity everything downstream leans on
    for i in range(rank):
        got = sum(a[j][i] * two_rho_check[j] for j in range(rank))
        if got != 2:
            raise _failed(name, f"<alpha_{i + 1}, 2 rho_check>", "2", got, 2)

    # Kostant: the exponents are m_j = #{heights k : at least j positive
    # roots have height k}, and |W| = prod (1 + m_j) (Chevalley)
    per_height = Counter(p.height for p in positive).values()
    weyl_order = prod(1 + sum(n >= j for n in per_height) for j in range(1, rank + 1))

    return SimpleFactor(
        family=family,
        rank=rank,
        cartan=cartan,
        positive=tuple(positive),
        coxeter_number=h,
        center=center,
        highest_coroot=highest,
        two_rho_check=two_rho_check,
        weyl_order=weyl_order,
        packed=_pack_coroots(positive, rank, h),
    )


class RootDatum(NamedTuple):
    """Root datum of a simply connected semisimple group (possibly a product)."""

    cartan_type: CartanType
    factors: tuple[SimpleFactor, ...]
    rank: int
    cartan: IntMatrix
    center: FiniteAbelianGroup  # P/Q with the canonical divisibility chain
    offsets: tuple[int, ...]  # start index of each factor's coordinate block

    @property
    def type_string(self) -> str:
        return str(self.cartan_type)

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    @property
    def is_simple(self) -> bool:
        return len(self.factors) == 1

    @property
    def num_positive_roots(self) -> int:
        return sum(len(f.positive) for f in self.factors)

    @property
    def coxeter_numbers(self) -> tuple[int, ...]:
        return tuple(f.coxeter_number for f in self.factors)

    @property
    def weyl_order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.weyl_order
        return n

    def factor_slice(self, k: int) -> slice:
        start = self.offsets[k]
        return slice(start, start + self.factors[k].rank)

    def embed(self, k: int, local: Sequence[int]) -> tuple[int, ...]:
        """Pad a factor-local coordinate vector with zeros to full rank."""
        out = [0] * self.rank
        out[self.factor_slice(k)] = list(local)
        return tuple(out)

    def positive_roots(self) -> list[RootPair]:
        """All positive roots in full-rank coordinates."""
        return [RootPair(*(self.embed(k, c) for c in p))
                for k, f in enumerate(self.factors) for p in f.positive]

    def validate_weight(self, coords: Sequence[int], dominant: bool = False) -> Weight:
        if len(coords) != self.rank:
            raise ValueError(f"weight has {len(coords)} coordinates, rank is {self.rank}")
        lam = tuple(int(c) for c in coords)
        if any(c != v for c, v in zip(lam, coords)):
            raise ValueError("weight coordinates must be integers")
        if dominant and any(c < 0 for c in lam):
            raise ValueError(f"weight {lam} is not dominant")
        return lam


def build(type_string: str) -> RootDatum:
    """Construct the root datum for a Cartan type string like ``"A2xB3"``."""
    ct = parse_cartan_type(type_string)
    factors = [_build_factor(fam, rank) for fam, rank in ct.factors]
    total = sum(f.rank for f in factors)
    offsets = []
    pos = 0
    for f in factors:
        offsets.append(pos)
        pos += f.rank
    rows = []
    for k, f in enumerate(factors):
        for i in range(f.rank):
            row = [0] * total
            row[offsets[k]:offsets[k] + f.rank] = list(f.cartan[i])
            rows.append(row)
    cartan = IntMatrix.from_rows(rows)
    return RootDatum(
        cartan_type=ct,
        factors=tuple(factors),
        rank=total,
        cartan=cartan,
        center=quotient(total, cartan),
        offsets=tuple(offsets),
    )


def pairing(weight: Sequence, coweight: Sequence):
    """Canonical pairing: dot product of fundamental-weight coordinates
    with simple-coroot coordinates."""
    if len(weight) != len(coweight):
        raise ValueError("rank mismatch in pairing")
    return sum(a * b for a, b in zip(weight, coweight))

