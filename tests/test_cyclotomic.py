import cmath
import random
from math import gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coxchar import cyclotomic
from coxchar.cyclotomic import CyclotomicInt, cyclotomic_polynomial, divide_exact
from coxchar.errors import InternalCheckError


def phi_degree(n):
    return len(cyclotomic_polynomial(n)) - 1


def zeta_pow(n, k):
    """zeta_n^k in canonical form."""
    return CyclotomicInt.from_poly(n, [0] * (k % n) + [1])


def zero(n):
    return CyclotomicInt.from_poly(n, [])


def at_zeta(x):
    """The float value of an element of ZZ[zeta_N] or QQ(zeta_N) at
    zeta_N = exp(2 pi i / N)."""
    z = cmath.exp(2j * cmath.pi / x.conductor)
    return sum(float(c) * z**k for k, c in enumerate(x.coeffs))


class TestCyclotomicPolynomial:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 36, 60, 97])
    def test_product_over_divisors(self, n):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expect = [-1] + [0] * (n - 1) + [1]
        assert prod == expect

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_non_monic_divisor_raises(self):
        # an explicit check, not an assert: it holds under python -O too
        with pytest.raises(InternalCheckError, match="not monic") as exc:
            cyclotomic._poly_divmod_monic([1, 0, 1], [1, 2])
        assert exc.value.witness == {"divisor": [1, 2]}

    def test_division_with_a_remainder_raises(self, monkeypatch):
        # with Phi_1 taken as x + 1, x^3 - 1 leaves the remainder -2
        monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", lambda d: (1, 1))
        with pytest.raises(InternalCheckError, match="remainder") as exc:
            cyclotomic_polynomial.__wrapped__(3)
        assert exc.value.witness == {"n": 3, "remainder": [-2]}


class TestRingOps:
    def test_zeta_identities(self):
        assert zeta_pow(7, 0) == CyclotomicInt.one(7)
        assert zeta_pow(4, 2).as_integer() == -1
        assert (zeta_pow(3, 1) + zeta_pow(3, 2)).as_integer() == -1

    def test_additive_and_multiplicative_units(self):
        a = CyclotomicInt.from_poly(12, [3, -1, 0, 2])
        assert a + zero(12) == a
        assert a * CyclotomicInt.one(12) == a

    def test_squared_difference(self):
        d = zeta_pow(4, 1) - zeta_pow(4, -1)  # 2i
        assert (d * d).as_integer() == -4

    def test_conductor_mismatch(self):
        with pytest.raises(ValueError):
            zeta_pow(3, 1) + zeta_pow(4, 1)
        with pytest.raises(ValueError):
            zeta_pow(3, 1) * zeta_pow(4, 1)

    @pytest.mark.parametrize("n,k", [(12, 5), (9, 3), (8, 6), (30, 12), (7, 0)])
    def test_zeta_multiplicative_order(self, n, k):
        target = n // gcd(n, k)
        one = CyclotomicInt.one(n)
        p = CyclotomicInt.one(n)
        order = None
        for m in range(1, n + 1):
            p = p * zeta_pow(n, k)
            if p == one:
                order = m
                break
        assert order == target


conductors = st.sampled_from([3, 4, 5, 8, 12, 15, 36])


@st.composite
def cyc_elements(draw, nonzero=False):
    n = draw(conductors)
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=phi_degree(n), max_size=phi_degree(n))
    )
    el = CyclotomicInt(n, tuple(coeffs))
    if nonzero:
        assume(bool(el))
    return el


class TestFloatShadow:
    @given(cyc_elements(), st.randoms(use_true_random=False))
    def test_product_respects_embedding(self, a, rng):
        b = CyclotomicInt(
            a.conductor,
            tuple(rng.randint(-9, 9) for _ in range(phi_degree(a.conductor))),
        )
        exact = at_zeta(a * b)
        floated = at_zeta(a) * at_zeta(b)
        assert abs(exact - floated) < 1e-9

    @given(cyc_elements())
    def test_sum_respects_embedding(self, a):
        b = zeta_pow(a.conductor, 1)
        assert abs(at_zeta(a + b) - (at_zeta(a) + at_zeta(b))) < 1e-9


class TestDivideExact:
    def test_self_division(self):
        a = CyclotomicInt.from_poly(12, [2, 3, 0, -1])
        assert divide_exact(a, a) == CyclotomicInt.one(12)

    def test_zero_numerator(self):
        a = CyclotomicInt.from_poly(12, [2, 3, 0, -1])
        assert divide_exact(zero(12), a) == zero(12)

    def test_two_term_weyl_sum(self):
        # (z4^3 - z4^-3) / (z4 - z4^-1) = -1
        num = zeta_pow(4, 3) - zeta_pow(4, -3)
        den = zeta_pow(4, 1) - zeta_pow(4, -1)
        assert divide_exact(num, den) == -CyclotomicInt.one(4)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(CyclotomicInt.one(4), zero(4))

    @given(cyc_elements(), st.randoms(use_true_random=False))
    def test_mul_then_divide_roundtrip(self, b, rng):
        assume(bool(b))
        a = CyclotomicInt(
            b.conductor,
            tuple(rng.randint(-9, 9) for _ in range(phi_degree(b.conductor))),
        )
        assert divide_exact(a * b, b) == a

    def test_bulk_random_roundtrip(self):
        rng = random.Random(20240817)
        for _ in range(500):
            n = rng.choice([4, 5, 8, 12, 36])
            deg = phi_degree(n)
            a = CyclotomicInt(n, tuple(rng.randint(-99, 99) for _ in range(deg)))
            b = CyclotomicInt(n, tuple(rng.randint(-99, 99) for _ in range(deg)))
            if not b:
                continue
            assert divide_exact(a * b, b) == a

    # the oracle's conductors h * d are at most 36 (E7) on the types its
    # byte budget admits; 48 and 100 check the ring beyond that
    @pytest.mark.parametrize("n", [4, 5, 8, 12, 28, 36, 48, 100])
    def test_non_exact_quotient_is_certified(self, n):
        # D * q is integral for D the lcm of the denominators of q, and
        # (D * q) * b == D * a is checked by multiplication alone
        rng = random.Random(n)
        deg = phi_degree(n)
        for _ in range(6):
            a = CyclotomicInt(n, tuple(rng.randint(-99, 99) for _ in range(deg)))
            b = CyclotomicInt(n, tuple(rng.randint(-99, 99) for _ in range(deg)))
            q = divide_exact(a, b)
            d = lcm(*(c.denominator for c in q.coeffs))
            assert d > 1, "the quotient should not be exact"
            dq = CyclotomicInt(n, tuple(int(d * c) for c in q.coeffs))
            assert dq * b == CyclotomicInt(n, tuple(d * c for c in a.coeffs))
            assert abs(at_zeta(q) - at_zeta(a) / at_zeta(b)) < 1e-9

    def test_norm_that_is_not_an_integer_raises(self, monkeypatch):
        # with sigma_k the identity, den * rest = den^phi(N) is no integer
        monkeypatch.setattr(cyclotomic, "_galois", lambda b, k: b)
        den = CyclotomicInt.from_poly(12, [1, 2])
        with pytest.raises(InternalCheckError, match="Galois norm") as exc:
            divide_exact(CyclotomicInt.one(12), den)
        assert exc.value.witness == {"conductor": 12, "denominator": [1, 2, 0, 0], "norm": None}

    def test_zero_norm_raises_with_its_witness(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_galois", lambda b, k: zero(b.conductor))
        den = CyclotomicInt.from_poly(12, [1, 2])
        with pytest.raises(InternalCheckError, match="not a nonzero integer") as exc:
            divide_exact(CyclotomicInt.one(12), den)
        assert exc.value.witness == {"conductor": 12, "denominator": [1, 2, 0, 0], "norm": 0}
