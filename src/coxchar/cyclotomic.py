"""Exact arithmetic in ZZ[zeta_N] and QQ(zeta_N).

Values are integer (or rational) polynomials in zeta_N reduced modulo
the N-th cyclotomic polynomial Phi_N, so the coefficient vector of
length phi(N) is a canonical form: equal values have equal vectors.
Polynomials are coefficient lists, low degree first.

Division in QQ(zeta_N) goes by the Galois norm: for b != 0 the product
of sigma_k(b) over the units k mod N (sigma_k: zeta_N -> zeta_N^k) is
a nonzero rational integer Norm(b), so a / b is a * rest / Norm(b) with
rest the product over k != 1.  All of it is integer arithmetic in
ZZ[zeta_N] until the final Fraction(c, Norm(b)) per coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import InternalCheckError

if TYPE_CHECKING:
    from fractions import Fraction


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
    if not den or den[-1] != 1:
        raise InternalCheckError(
            f"divisor {list(den)} is not monic", witness={"divisor": list(den)}
        )
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
    if rem:
        raise InternalCheckError(
            f"x^{n} - 1 divided by the Phi_d of its proper divisors d left the remainder {rem}",
            witness={"n": n, "remainder": rem},
        )
    return tuple(quo)


def _reduce_int(n: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    phi_n = list(cyclotomic_polynomial(n))
    _, rem = _poly_divmod_monic(list(coeffs), phi_n)
    rem += [0] * (len(phi_n) - 1 - len(rem))
    return tuple(rem)


class CyclotomicInt(NamedTuple):
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

    def __rmul__(self, other: object) -> "CyclotomicInt":
        return NotImplemented  # not tuple repetition

    def as_integer(self) -> int | None:
        """The value as a rational integer, or None if it is not one."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


class CyclotomicRational(NamedTuple):
    """Element of QQ(zeta_N) in canonical reduced form."""

    conductor: int
    coeffs: tuple[Fraction, ...]


def _galois(b: CyclotomicInt, k: int) -> CyclotomicInt:
    """sigma_k(b), the image of b under zeta_N -> zeta_N^k."""
    n = b.conductor
    moved = [0] * n
    for i, c in enumerate(b.coeffs):
        moved[i * k % n] += c
    return CyclotomicInt.from_poly(n, moved)


def divide_exact(num: CyclotomicInt, den: CyclotomicInt) -> CyclotomicRational:
    """Exact quotient num/den in QQ(zeta_N), by the Galois norm of den.

    Raises ZeroDivisionError on a zero denominator and InternalCheckError
    if den * rest is not a nonzero rational integer.
    """
    from fractions import Fraction

    if num.conductor != den.conductor:
        raise ValueError("conductor mismatch in division")
    if not den:
        raise ZeroDivisionError("division by zero in QQ(zeta_N)")
    n = num.conductor
    units = (k for k in range(2, n) if gcd(k, n) == 1)
    rest = prod((_galois(den, k) for k in units), start=CyclotomicInt.one(n))
    norm = (den * rest).as_integer()
    if not norm:
        raise InternalCheckError(
            f"Galois norm of {list(den.coeffs)} mod Phi_{n} is not a nonzero integer",
            witness={"conductor": n, "denominator": list(den.coeffs), "norm": norm},
        )
    return CyclotomicRational(n, tuple(Fraction(c, norm) for c in (num * rest).coeffs))
