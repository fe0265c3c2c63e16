"""Brute-force Weyl character formula at the Coxeter class, exactly.

``char_at_coxeter_oracle``, the one entry point, is the independent
falsifier for the fast path in ``character``.  The evaluation point is
t = exp(2 pi i rho_check / h), the canonical representative of the
Coxeter class; a weight nu takes the value exp(2 pi i <nu, rho_check> / h)
there.  t has order N = h * d in the simply connected group, d in {1, 2}
the order of [rho_check] in P_check / Q_check, and d * <nu, rho_check> is
an integer, so every value is an integer power of zeta_N.  d is read at
the minuscule nodes, whose weights represent P/Q with 0; the exponents
d * <omega_k, rho_check> at all the other nodes must then be whole.
Numerator and denominator are alternating sums over the full Weyl group,
accumulated exactly in ZZ[zeta_N]; the character is their quotient in
QQ(zeta_N) and must come out as a literal -1, 0 or +1.  Any other value
raises with a full witness: the oracle can falsify the theory, it never
assumes it.  The denominator is the same Weyl sum at lambda = 0, not the
product formula the fast path rests on.

Because <w(mu), rho_check> = <mu, w^-1(rho_check)>, the exponents of a
Weyl sum are the pairings of mu with the signed W-orbit of
d * rho_check, which does not depend on lambda.  Each factor builds
that orbit once, on first use, in the one format it is read in: its
det +1 and its det -1 points, each class one byte string per
coordinate, a byte per point holding its residue mod N.  One kernel,
``_byte_residues``, computes sum_i m_i * col_i mod N bytewise: each
column goes through a 256-byte translate table of b -> m_i * b mod N,
the results are added as big integers, and a "mod N" table folds the
sum back whenever one more term could carry out of a byte.  Two
residues must add up within a byte, so N <= 128, and the orbit takes
|W| * (rank + 1) bytes with its build, so at most
``ORBIT_BYTE_BUDGET``; either refusal comes before any orbit is built.
The build walks the chain of parabolic subgroups W_{<1} < W_{<2} < ...
< W: each orbit is the union of the blocks u(previous orbit) over a
small tree of minimal coset representatives u.  Each tree edge is a
simple reflection, of det -1: it reflects a block with one kernel call
per sign class and swaps the classes.  The pairings of mu with a sign
class are the same kernel with m_i = mu_i, run on ``COUNT_SLICE`` bytes
of the columns at a time, and ``_signed_histogram`` counts each slice
eight residues at a time: a translate table sets bit k - base of a byte
holding residue k, and one masked ``int.bit_count`` per residue counts
it (columns shorter than ``BIT_COUNT_FROM`` take one ``bytes.count``
per residue, which is cheaper there).  w0(rho_check) = -rho_check, so
counts[-k] = det(w0) * counts[k]: the denominator counts all N residues
and reads det(w0) there, a numerator only 0..N/2.  The build carries
each block's exact coordinate sums alongside its residues, and raises
on a start that is not strictly dominant, on a reflected column whose
residues disagree with its block's exact sum mod N, on an orbit whose
size is not |W|, and on an orbit that does not sum to 0; the histograms
raise on a denominator not mirrored with one sign and, if det(w0) = -1,
on a numerator that counts at k = -k mod N.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Iterable, Sequence

from .cyclotomic import CyclotomicInt, divide_exact
from .errors import CapExceeded, InternalCheckError, TheoremViolation
from .lattice import IntMatrix
from .rootdata import RootDatum, SimpleFactor

DEFAULT_WEYL_CAP = 5_000_000
FLOAT_SHADOW_TOLERANCE = 1e-6
MAX_CONDUCTOR = 128  # two residues mod N must add up within a byte
# The orbit of a factor is |W| * rank residue bytes, and the join of its
# last level allocates one more column of |W| bytes.  64 MiB holds every
# type under the default Weyl cap (A9 needs 36.3 MB, E7 23.2 MB) and
# refuses A10 (439 MB), B8 (93 MB) and E8 (6.3 GB) before any allocation.
ORBIT_BYTE_BUDGET = 1 << 26
COUNT_SLICE = 1 << 15  # bytes of a residue column counted at a time
BIT_COUNT_FROM = 1 << 12  # bytes.count is cheaper on shorter columns


def _coset_tree(cartan: IntMatrix, k: int) -> list[tuple[int, int]]:
    """Minimal coset representatives of W_{<=k} / W_{<k} (nodes 0..k)
    as a tree: (parent, j) per node in breadth-first order, node 0 the
    identity, and node s_j * parent along each edge.

    The representatives d are in bijection with the W_{<=k}-orbit of
    the fundamental coweight omega_k, whose stabilizer is W_{<k}; in
    pairing coordinates x_i = <alpha_i, d omega_k>, s_j d is a longer
    representative exactly when x_j > 0 (Humphreys, *Reflection Groups
    and Coxeter Groups* 1.10), so every edge adds one to the length.
    """
    r = cartan.rows
    first = tuple(int(i == k) for i in range(r))
    index = {first: 0}
    points = [first]
    tree = []
    for x in points:  # grows while it is read: breadth-first
        for j in range(k + 1):
            if x[j] > 0:
                y = tuple(x[i] - cartan[j][i] * x[j] for i in range(r))
                if y not in index:
                    index[y] = len(points)
                    points.append(y)
                    tree.append((index[x], j))
    return tree


def _build_signed_orbit(
    f: SimpleFactor, start: tuple[int, ...], n: int
) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The W-orbit of a strictly dominant coweight ``start`` (simple-coroot
    coordinates) as residue columns mod n, det(w) = +1 and det(w) = -1.

    W = W^J W_J along the chain of parabolics W_{<1} < W_{<2} < ... < W,
    so the W_{<=k}-orbit is the union of d(W_{<k}-orbit) over the tree
    of minimal coset representatives d.  Each block d(orbit) is a pair
    of sign classes, one byte string of residues per coordinate each.
    A tree edge s_j has det -1: the child's det +1 columns are s_j of
    the parent's det -1 columns, and the reverse.  Each is one
    ``_byte_residues`` call, since only coordinate j changes,
    x_j <- -x_j - sum_{i != j} A[i][j] x_i, and the other columns are
    shared with the parent block.  Reflections are linear, so each block
    also carries the exact sum of its points, reflected alongside it.
    Raises InternalCheckError on a start that is not strictly dominant,
    a reflected column whose residues do not add up to its block's
    exact sum mod n, an orbit whose size is not |W|, and an orbit that
    does not sum to 0 (V has no W-invariants).
    """
    cartan = f.cartan
    r = f.rank
    pairings = [sum(cartan[i][j] * start[i] for i in range(r)) for j in range(r)]
    if min(pairings) <= 0:
        raise InternalCheckError(
            f"orbit start {start} on {f.name} is not strictly dominant: "
            f"pairings with the simple roots {pairings}",
            witness={"factor": f.name, "start": list(start), "pairings": pairings},
        )
    # s_j as (multiplier, coordinate) terms of the new x_j
    terms = [
        [(-1, j)] + [(-cartan[i][j], i) for i in range(r) if i != j and cartan[i][j] != 0]
        for j in range(r)
    ]
    block = ([bytes([x % n]) for x in start], [b""] * r)  # det +1 columns, det -1 columns
    total = list(start)  # the exact coordinate sums of the block's points
    for k in range(r):
        blocks, sums = [block], [total]
        for parent, j in _coset_tree(cartan, k):
            s = sums[parent]
            s = s[:j] + [sum(m * s[i] for m, i in terms[j])] + s[j + 1:]
            child = []
            for cols in reversed(blocks[parent]):  # s_j swaps the sign classes
                y = _byte_residues(n, [(m, cols[i]) for m, i in terms[j]], len(cols[0]))
                child.append(cols[:j] + [y] + cols[j + 1:])
            got = sum(child[0][j]) + sum(child[1][j])
            if (got - s[j]) % n:
                raise InternalCheckError(
                    f"reflected coordinate {j} of a block of {f.name} has residues "
                    f"summing to {got % n}, not {s[j] % n} mod {n}",
                    witness={"factor": f.name, "coordinate": j, "residue_sum": got % n,
                             "exact_sum": s[j] % n, "n": n},
                )
            blocks.append(child)
            sums.append(s)
        total = [sum(c) for c in zip(*sums)]
        block = ([], [])
        for i in range(r):
            for h, cols in enumerate(block):
                cols.append(b"".join([b[h][i] for b in blocks]))
                for b in blocks:
                    b[h][i] = None  # each column is freed once it is copied

    size = sum(len(cols[0]) for cols in block)
    if size != f.weyl_order:
        raise InternalCheckError(
            f"orbit size {size} != Weyl order {f.weyl_order} on {f.name}",
            witness={"factor": f.name, "orbit_size": size, "weyl_order": f.weyl_order},
        )
    if any(total):
        raise InternalCheckError(
            f"signed orbit of {f.name} sums to {total}, not 0: V has no W-invariants",
            witness={"factor": f.name, "orbit_sum": total},
        )
    return tuple(block[0]), tuple(block[1])


@lru_cache(maxsize=None)
def _times_table(n: int, m: int) -> bytes:
    """The translate table b -> m * b mod n of a byte b, for 0 <= m < n;
    the cache holds at most n tables of 256 bytes per conductor n.  The
    table repeats with period n, so only its first n entries are
    computed."""
    return (bytes([m * b % n for b in range(n)]) * (256 // n + 1))[:256]


def _byte_residues(n: int, terms: Iterable[tuple[int, bytes]], size: int) -> bytes:
    """sum_i m_i * col_i mod n in each of `size` bytes, for n <= 128.

    Each column is translated to its bytes m_i * b mod n, at most n - 1,
    and added as one big integer.  A byte holds ``room`` such residues,
    so once it holds that many the sum is folded back through the table
    b -> b mod n, which leaves one residue, before the next term could
    carry into the next byte.
    """
    room = 255 // (n - 1)
    fold = _times_table(n, 1)
    total = held = 0
    for m, col in terms:
        if held == room:
            total = int.from_bytes(total.to_bytes(size, "little").translate(fold), "little")
            held = 1
        total += int.from_bytes(col.translate(_times_table(n, m % n)), "little")
        held += 1
    return total.to_bytes(size, "little").translate(fold)


@lru_cache(maxsize=None)
def _one_hot_table(base: int) -> bytes:
    """The translate table b -> 2^(b - base) for base <= b < base + 8,
    and b -> 0 for every other byte."""
    return bytes(1 << b - base if 0 <= b - base < 8 else 0 for b in range(256))


@lru_cache(maxsize=None)
def _bit_masks() -> tuple[int, ...]:
    """Bit t of every byte of a ``COUNT_SLICE``-byte integer, t = 0..7."""
    ones = int.from_bytes(b"\x01" * COUNT_SLICE, "little")
    return tuple(ones << t for t in range(8))


def _signed_histogram(
    n: int, mu: Sequence[int], orbit: tuple[tuple[bytes, ...], ...], top: int
) -> list[int]:
    """counts[k], 0 <= k < top: the points of the det +1 class of the
    orbit with sum_i mu_i * col_i = k mod n, less those of the det -1 class.

    Columns shorter than ``BIT_COUNT_FROM`` bytes are counted by one
    ``bytes.count`` per residue, which costs less there.  Longer ones go
    ``COUNT_SLICE`` bytes at a time, so nothing the size of a whole
    column is allocated: ``_byte_residues`` puts the slice's pairings
    mod n in bytes, and they are counted eight residues at a time.  One
    translate sets bit k - base in each byte holding a residue k in
    base..base+7, the result becomes one integer, and the bit_count of
    that integer masked to bit k - base of every byte is the number of k.
    """
    size = len(orbit[0][0])  # |W| / 2 in each class
    if size < BIT_COUNT_FROM:
        plus, minus = (_byte_residues(n, zip(mu, cols), size) for cols in orbit)
        return [plus.count(k) - minus.count(k) for k in range(top)]
    masks = _bit_masks()
    counts = [0] * top
    for sign, cols in zip((1, -1), orbit):
        for start in range(0, size, COUNT_SLICE):
            piece = [c[start:start + COUNT_SLICE] for c in cols]
            residues = _byte_residues(n, zip(mu, piece), len(piece[0]))
            for base in range(0, top, 8):
                x = int.from_bytes(residues.translate(_one_hot_table(base)), "little")
                for k, mask in zip(range(base, top), masks):
                    counts[k] += sign * (x & mask).bit_count()
    return counts


class CoxeterEvaluation:
    """Evaluation data at the Coxeter element of one simple factor."""

    __slots__ = (
        "factor", "conductor", "weight_exponents",
        "_orbit", "_denominator", "_denominator_shadow", "_mirror",
    )

    def __init__(self, factor: SimpleFactor, conductor: int, weight_exponents: tuple[int, ...]):
        self.factor = factor
        self.conductor = conductor  # N = h * d, d the order of [rho_check] in P_check/Q_check
        self.weight_exponents = weight_exponents  # d * <omega_k, rho_check>, all integral
        self._orbit: tuple[tuple[bytes, ...], tuple[bytes, ...]] | None = None
        self._denominator: CyclotomicInt | None = None
        self._denominator_shadow = 0j
        self._mirror = 0  # det(w0), read from the denominator's histogram

    @classmethod
    def for_factor(cls, f: SimpleFactor) -> "CoxeterEvaluation":
        # <lambda, rho_check> mod 1 is a character of P/Q, which 0 and the
        # minuscule omega_i (c_i = 1 in the highest coroot) represent: d is
        # 2 if it is 1/2 at one of them; every other exponent must then be whole
        minuscule = [t for c, t in zip(f.highest_coroot.coroot, f.two_rho_check) if c == 1]
        d = 2 if any(t % 2 for t in minuscule) else 1
        n = f.coxeter_number * d
        exps = []
        for coord in f.two_rho_check:
            v, odd = divmod(d * coord, 2)
            if odd:
                raise InternalCheckError(
                    f"conductor {n} does not clear the exponent denominators of {f.name}",
                    witness={"factor": f.name, "conductor": n,
                             "two_rho_check": list(f.two_rho_check)},
                )
            exps.append(v)
        return cls(factor=f, conductor=n, weight_exponents=tuple(exps))

    def _signed_orbit(self) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        """The det +1 and det -1 residue columns of the signed W-orbit of
        d * rho_check mod N; built on the first call and cached."""
        if self._orbit is None:
            self._orbit = _build_signed_orbit(self.factor, self.weight_exponents, self.conductor)
        return self._orbit

    def signed_orbit_counts(self, mu: Sequence[int]) -> list[int]:
        """counts[k] = sum of det(w) over w with d * <w(mu), rho_check> = k mod N.

        d * <w(mu), rho_check> = <mu, v> for v = w^-1(d * rho_check), and
        det(w) = det(w^-1), so this is the histogram of <mu, v> mod N
        over the signed orbit, which ``_signed_histogram`` counts; once
        the denominator has read det(w0), only k <= N/2, as
        counts[-k] = det(w0) * counts[k] (so k = -k counts 0 if det(w0) = -1).
        """
        n, eps = self.conductor, self._mirror
        head = _signed_histogram(n, mu, self._signed_orbit(), n // 2 + 1 if eps else n)
        for k in (0, n // 2) if eps < 0 else ():
            if head[k] and 2 * k % n == 0:  # residue k is its own mirror
                raise InternalCheckError(
                    f"residue {k} = -{k} mod {n} of {self.factor.name} counts {head[k]}, not 0",
                    witness={"factor": self.factor.name, "conductor": n, "mu": list(mu),
                             "k": k, "count": head[k]},
                )
        return head + [eps * c for c in reversed(head[1:(n + 1) // 2])] if eps else head

    def numerator(self, lam: Sequence[int]) -> tuple[CyclotomicInt, complex]:
        """Exact Weyl numerator at the Coxeter element, with its float shadow."""
        return self._weyl_sum(self.signed_orbit_counts([c + 1 for c in lam]))

    def _weyl_sum(self, counts: list[int]) -> tuple[CyclotomicInt, complex]:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        shadow = sum(c * z**k for k, c in enumerate(counts) if c) or 0j
        return CyclotomicInt.from_poly(self.conductor, counts), shadow

    def denominator(self) -> tuple[CyclotomicInt, complex]:
        """The Weyl sum at lambda = 0, cached; it reads det(w0) from its mirror."""
        if self._denominator is None:
            name, n = self.factor.name, self.conductor
            counts = self.signed_orbit_counts([1] * self.factor.rank)
            exact, shadow = self._weyl_sum(counts)
            if not exact:
                raise InternalCheckError(
                    f"Weyl denominator of {name} vanished at the Coxeter element",
                    witness={"factor": name, "conductor": n},
                )
            mirror = counts[:1] + counts[:0:-1]  # mirror[k] = counts[-k]
            signs = [s for s in (1, -1) if mirror == [s * c for c in counts]]
            if not signs:  # the counts are not all 0, so at most one sign fits
                k = max(next(k for k in range(n) if mirror[k] != s * counts[k]) for s in (1, -1))
                raise InternalCheckError(
                    f"Weyl denominator of {name} is not mirrored mod {n} at residue {k}",
                    witness={"factor": name, "conductor": n, "k": k, "count": counts[k],
                             "mirror_count": mirror[k]},
                )
            self._mirror = signs[0]
            self._denominator = exact
            self._denominator_shadow = shadow
        return self._denominator, self._denominator_shadow


@lru_cache(maxsize=None)
def _evaluation(f: SimpleFactor) -> CoxeterEvaluation:
    return CoxeterEvaluation.for_factor(f)


def _check_cap(rd: RootDatum, cap: int | None) -> None:
    if cap is not None and rd.weyl_order > cap:
        raise CapExceeded(
            f"oracle needs the full Weyl sum: |W({rd.type_string})| = {rd.weyl_order} "
            f"exceeds the cap {cap}; use the fast path, or raise the cap to force this"
        )
    for f in rd.factors:
        n = _evaluation(f).conductor
        if n > MAX_CONDUCTOR:
            raise CapExceeded(
                f"oracle keeps residues mod N in bytes: the conductor N = {n} of {f.name} "
                f"exceeds {MAX_CONDUCTOR}; use the fast path"
            )
    size = sum(f.weyl_order * (f.rank + 1) for f in rd.factors)
    if size > ORBIT_BYTE_BUDGET:
        raise CapExceeded(
            f"oracle keeps the Weyl orbit of every factor in memory: {size} bytes for "
            f"{rd.type_string} exceed the budget of {ORBIT_BYTE_BUDGET} bytes; use the fast path"
        )


def char_at_coxeter_oracle(
    rd: RootDatum, lam: Sequence[int], cap: int | None = DEFAULT_WEYL_CAP
) -> int:
    """Character value at the Coxeter class as the exact quotient of
    Weyl sums; product types multiply per-factor values.

    Asserts the quotient is literally -1, 0 or +1, by comparing the
    canonical numerator with 0 and +-denominator (TheoremViolation
    otherwise, with the exact quotient in the witness), and that the
    double-precision shadow of every factor quotient agrees within 1e-6."""
    lam = rd.validate_weight(lam, dominant=True)
    _check_cap(rd, cap)
    value = 1
    for k, f in enumerate(rd.factors):
        ev = _evaluation(f)
        den, den_shadow = ev.denominator()  # first: it reads det(w0)
        num, num_shadow = ev.numerator(lam[rd.factor_slice(k)])
        if not num:
            q = 0
        elif num == den:
            q = 1
        elif num == -den:
            q = -1
        else:
            quotient = divide_exact(num, den)
            raise TheoremViolation(
                f"oracle got character value outside {{-1, 0, 1}} for {f.name}",
                witness={
                    "type": rd.type_string,
                    "factor": f.name,
                    "lambda": list(lam),
                    "conductor": ev.conductor,
                    "numerator": list(num.coeffs),
                    "denominator": list(den.coeffs),
                    "quotient": [str(c) for c in quotient.coeffs],
                },
            )
        shadow = num_shadow / den_shadow
        if abs(shadow - q) > FLOAT_SHADOW_TOLERANCE:
            raise InternalCheckError(
                f"float shadow {shadow} strayed from exact value {q} on {f.name}",
                witness={"type": rd.type_string, "factor": f.name, "lambda": list(lam),
                         "exact": q, "shadow": [shadow.real, shadow.imag]},
            )
        value *= q
    return value
