"""Exact arithmetic in ZZ[zeta_N] and QQ(zeta_N).

Values are integer (or rational) polynomials in zeta_N reduced modulo
the N-th cyclotomic polynomial Phi_N, so the coefficient vector of
length phi(N) is a canonical form: equal values have equal vectors.
Polynomials are coefficient lists, low degree first.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: Sequence, q: Sequence) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _poly_trim(out)


def _poly_divmod_monic(num: Sequence, den: Sequence) -> tuple[list, list]:
    """Divide by a monic polynomial; exact over the coefficient ring."""
    assert den and den[-1] == 1, "divisor must be monic"
    rem = list(num)
    deg_d = len(den) - 1
    quo = [0] * max(len(rem) - deg_d, 0)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i]
        if c:
            quo[i - deg_d] = c
            for j, b in enumerate(den):
                rem[i - deg_d + j] -= c * b
    return _poly_trim(quo), _poly_trim(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, monic of degree phi(n), computed by exact
    division of x^n - 1 by the product of Phi_d over proper divisors d.

    Memoized; concurrent first calls may duplicate work but return
    identical values.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quo, rem = _poly_divmod_monic(num, den)
    assert not rem, "cyclotomic division left a remainder"
    return tuple(quo)


def phi_degree(n: int) -> int:
    """Euler phi(n), as the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_int(n: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    phi_n = list(cyclotomic_polynomial(n))
    _, rem = _poly_divmod_monic(list(coeffs), phi_n)
    rem += [0] * (len(phi_n) - 1 - len(rem))
    return tuple(rem)


@dataclass(frozen=True)
class CyclotomicInt:
    """Element of ZZ[zeta_N] in canonical reduced form."""

    conductor: int
    coeffs: tuple[int, ...]  # length phi(N), polynomial in zeta_N mod Phi_N

    def _check(self, other: "CyclotomicInt") -> None:
        if self.conductor != other.conductor:
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )

    @classmethod
    def from_poly(cls, n: int, coeffs: Sequence[int]) -> "CyclotomicInt":
        return cls(n, _reduce_int(n, coeffs))

    @classmethod
    def zero(cls, n: int) -> "CyclotomicInt":
        return cls(n, (0,) * phi_degree(n))

    @classmethod
    def one(cls, n: int) -> "CyclotomicInt":
        return cls.from_poly(n, [1])

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(self.conductor, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(self.conductor, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.conductor, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt.from_poly(self.conductor, _poly_mul(self.coeffs, other.coeffs))

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(c * z**k for k, c in enumerate(self.coeffs) if c) or 0j

    def as_integer(self) -> int | None:
        """The value as a rational integer, or None if it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def zeta_pow(n: int, k: int) -> CyclotomicInt:
    """Canonical form of zeta_n^k (k taken mod n)."""
    k %= n
    return CyclotomicInt.from_poly(n, [0] * k + [1])


@dataclass(frozen=True)
class CyclotomicRational:
    """Element of QQ(zeta_N) in canonical reduced form."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs) if c) or 0j

    def as_integer(self) -> int | None:
        if any(self.coeffs[1:]):
            return None
        c0 = self.coeffs[0]
        return int(c0) if c0.denominator == 1 else None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CyclotomicInt):
            return self.conductor == other.conductor and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        if isinstance(other, CyclotomicRational):
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        return NotImplemented


def _frac_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = [Fraction(x) for x in num]
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / lead
        if c:
            quo[i - (len(den) - 1)] = c
            for j, b in enumerate(den):
                num[i - (len(den) - 1) + j] -= c * b
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def _frac_xgcd(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid in QQ[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _frac_divmod(r0, r1)

        def step(u0, u1):
            qu = [Fraction(0)] * (len(q) + len(u1) - 1) if q and u1 else []
            for i, x in enumerate(q):
                for j, y in enumerate(u1):
                    qu[i + j] += x * y
            out = [Fraction(0)] * max(len(u0), len(qu))
            for i, x in enumerate(u0):
                out[i] += x
            for i, x in enumerate(qu):
                out[i] -= x
            while out and out[-1] == 0:
                out.pop()
            return out

        r0, r1 = r1, r
        s0, s1 = s1, step(s0, s1)
        t0, t1 = t1, step(t0, t1)
    return r0, s0, t0


def divide_exact(num: CyclotomicInt, den: CyclotomicInt) -> CyclotomicRational:
    """Exact quotient num/den in QQ(zeta_N).

    Phi_N is irreducible over QQ, so any nonzero denominator is
    invertible mod Phi_N; the inverse comes from the extended Euclidean
    algorithm.  Raises ZeroDivisionError on a zero denominator.
    """
    if num.conductor != den.conductor:
        raise ValueError("conductor mismatch in division")
    if not den:
        raise ZeroDivisionError("division by zero in QQ(zeta_N)")
    n = num.conductor
    phi_n = [Fraction(c) for c in cyclotomic_polynomial(n)]
    den_poly = [Fraction(c) for c in den.coeffs]
    while den_poly and den_poly[-1] == 0:
        den_poly.pop()
    g, s, _ = _frac_xgcd(den_poly, phi_n)
    assert len(g) == 1, "denominator shares a factor with Phi_N"
    inv = [c / g[0] for c in s]
    prod = [Fraction(0)] * (len(num.coeffs) + len(inv))
    for i, a in enumerate(num.coeffs):
        if a:
            for j, b in enumerate(inv):
                prod[i + j] += a * b
    _, rem = _frac_divmod(prod, phi_n)
    rem += [Fraction(0)] * (len(phi_n) - 1 - len(rem))
    return CyclotomicRational(n, tuple(rem))
