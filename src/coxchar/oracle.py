"""Brute-force Weyl character formula at the Coxeter class, exactly.

This is the independent falsifier for the fast path in ``character``.
The evaluation point is t = exp(2 pi i rho_check / h), the canonical
representative of the Coxeter class; a weight nu takes the value
exp(2 pi i <nu, rho_check> / h) there, which the conductor N = h * e
(e the exponent of the center P/Q) turns into an integer power of
zeta_N.  Numerator and denominator are alternating sums over the full
Weyl group, accumulated exactly in ZZ[zeta_N]; the character is their
quotient in QQ(zeta_N) and must come out as a literal -1, 0 or +1.
Any other value raises with a full witness: the oracle can falsify the
theory, it never assumes it.  The denominator is the same Weyl sum at
lambda = 0, not the product formula the fast path rests on.

Because <w(mu), rho_check> = <mu, w^-1(rho_check)>, the exponents of a
Weyl sum are the pairings of mu with the signed W-orbit of
e * rho_check, which does not depend on lambda.  Each factor walks that
orbit once, on first use: a breadth-first walk over coweights in
simple-coroot coordinates that raises on a stabilized point, on a sign
that disagrees on revisit, and on an orbit whose size is not |W|.  Each
sign class is stored as one big integer per coordinate, its orbit
points' residues mod N packed into 64-bit fields, so the pairings with
mu are r big-integer multiply-adds and the Weyl sum is a histogram of
the 64-bit fields, folded mod N.
"""

from __future__ import annotations

import cmath
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cyclotomic import CyclotomicInt, divide_exact
from .errors import CapExceeded, InternalCheckError, TheoremViolation
from .lattice import IntMatrix
from .rootdata import RootDatum, SimpleFactor

DEFAULT_WEYL_CAP = 5_000_000
FLOAT_SHADOW_TOLERANCE = 1e-6

# (sign, one packed integer per coordinate, number of points)
SignClass = tuple[int, tuple[int, ...], int]


def _walk_signed_orbit(
    cartan: IntMatrix, start: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Signed W-orbit of a coweight in simple-coroot coordinates:
    point -> det(w) for the w that reaches it.

    Breadth-first with one frontier per word length, so consecutive
    frontiers have opposite signs.  s_j(x) = x - <alpha_j, x> alpha_j_vee
    changes coordinate j only, by <alpha_j, x> = sum_k A[k][j] x_k.
    Raises on a stabilized point (start was not regular) and on a sign
    that disagrees on revisit.
    """
    r = len(start)
    # off-diagonal nonzeros of column j; the diagonal entry is 2
    cols = [
        (j, tuple((k, cartan[k][j]) for k in range(r) if k != j and cartan[k][j] != 0))
        for j in range(r)
    ]
    visited = {start: 1}
    frontier = [start]
    sign = 1
    while frontier:
        sign = -sign
        nxt = []
        for x in frontier:
            y = list(x)
            for j, col in cols:
                xj = y[j]
                p = 2 * xj
                for k, akj in col:
                    p += akj * y[k]
                if p == 0:
                    raise InternalCheckError(
                        f"orbit walk found a point {x} stabilized by s_{j + 1}; "
                        f"the start {start} was not regular"
                    )
                y[j] = xj - p
                yt = tuple(y)
                y[j] = xj
                prev = visited.get(yt)
                if prev is None:
                    visited[yt] = sign
                    nxt.append(yt)
                elif prev != sign:
                    raise InternalCheckError(f"orbit walk sign inconsistency at {yt}")
        frontier = nxt
    return visited


@dataclass
class CoxeterEvaluation:
    """Evaluation data at the Coxeter element of one simple factor."""

    factor: SimpleFactor
    conductor: int  # N = h * e, e the exponent of P/Q
    weight_exponents: tuple[int, ...]  # e * <omega_k, rho_check>, all integral
    _orbit: tuple[SignClass, ...] | None = field(default=None, repr=False)
    _denominator: CyclotomicInt | None = field(default=None, repr=False)
    _denominator_shadow: complex = field(default=0j, repr=False)

    @classmethod
    def for_factor(cls, f: SimpleFactor) -> "CoxeterEvaluation":
        e = f.center.exponent
        n = f.coxeter_number * e
        exps = []
        for coord in f.rho_check:
            v = Fraction(e) * coord
            if v.denominator != 1:
                raise InternalCheckError(
                    f"conductor {n} does not clear the exponent denominators of {f.name}"
                )
            exps.append(int(v))
        return cls(factor=f, conductor=n, weight_exponents=tuple(exps))

    def _signed_orbit(self) -> tuple[SignClass, ...]:
        """The signed W-orbit of e * rho_check, split by sign and packed
        mod N; walked on the first call and cached."""
        if self._orbit is None:
            f = self.factor
            n = self.conductor
            points = _walk_signed_orbit(f.cartan, self.weight_exponents)
            if len(points) != f.weyl_order:
                raise InternalCheckError(
                    f"orbit size {len(points)} != Weyl order {f.weyl_order} on {f.name}"
                )
            classes = []
            for sign in (1, -1):
                members = [x for x, s in points.items() if s == sign]
                packed = tuple(
                    int.from_bytes(
                        struct.pack(f"{len(coord)}Q", *map(n.__rmod__, coord)), sys.byteorder
                    )
                    for coord in zip(*members)
                )
                classes.append((sign, packed, len(members)))
            self._orbit = tuple(classes)
        return self._orbit

    def signed_orbit_counts(self, mu: Sequence[int]) -> list[int]:
        """counts[k] = sum of det(w) over w with e * <w(mu), rho_check> = k mod N.

        e * <w(mu), rho_check> = <mu, v> for v = w^-1(e * rho_check), and
        det(w) = det(w^-1), so this is the histogram of <mu, v> mod N
        over the signed orbit.  mu is reduced mod N first, so each
        64-bit field of the packed sum holds at most r * (N - 1)**2 and
        no field carries into the next.
        """
        n = self.conductor
        counts = [0] * n
        for sign, packed, size in self._signed_orbit():
            total = sum(m % n * p for m, p in zip(mu, packed))
            fields = memoryview(total.to_bytes(8 * size, sys.byteorder)).cast("Q")
            for v, c in Counter(fields).items():
                counts[v % n] += sign * c
        return counts

    def numerator(self, lam: Sequence[int]) -> tuple[CyclotomicInt, complex]:
        """Exact Weyl numerator at the Coxeter element, with its float shadow."""
        mu = tuple(c + 1 for c in lam)
        counts = self.signed_orbit_counts(mu)
        exact = CyclotomicInt.from_poly(self.conductor, counts)
        z = cmath.exp(2j * cmath.pi / self.conductor)
        shadow = sum(c * z**k for k, c in enumerate(counts) if c) or 0j
        return exact, shadow

    def denominator(self) -> tuple[CyclotomicInt, complex]:
        """The Weyl sum at lambda = 0, cached."""
        if self._denominator is None:
            exact, shadow = self.numerator((0,) * self.factor.rank)
            if not exact:
                raise InternalCheckError(
                    f"Weyl denominator of {self.factor.name} vanished at the Coxeter element"
                )
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


def weyl_numerator(
    rd: RootDatum, lam: Sequence[int], cap: int | None = DEFAULT_WEYL_CAP
) -> CyclotomicInt:
    """Alternating Weyl sum for lambda at the Coxeter element of a
    simple datum, as an exact element of ZZ[zeta_N]."""
    if not rd.is_simple:
        raise ValueError("weyl_numerator is per simple factor; products factorize")
    lam = rd.validate_weight(lam, dominant=True)
    _check_cap(rd, cap)
    exact, _ = _evaluation(rd.factors[0]).numerator(lam)
    return exact


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
        num, num_shadow = ev.numerator(lam[rd.factor_slice(k)])
        den, den_shadow = ev.denominator()
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
                f"float shadow {shadow} strayed from exact value {q} on {f.name}, "
                f"lambda={list(lam)}"
            )
        value *= q
    return value


def float_shadow(
    rd: RootDatum, lam: Sequence[int], cap: int | None = DEFAULT_WEYL_CAP
) -> complex:
    """The same quotient of Weyl sums in double-precision complex
    arithmetic only; a regression tripwire, not a substitute for the
    exact value."""
    lam = rd.validate_weight(lam, dominant=True)
    _check_cap(rd, cap)
    value = complex(1)
    for k, f in enumerate(rd.factors):
        ev = _evaluation(f)
        _, num_shadow = ev.numerator(lam[rd.factor_slice(k)])
        _, den_shadow = ev.denominator()
        value *= num_shadow / den_shadow
    return value
