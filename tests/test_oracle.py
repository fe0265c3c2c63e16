import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxchar import oracle
from coxchar.character import char_at_coxeter
from coxchar.cyclotomic import zeta_pow
from coxchar.errors import CapExceeded, InternalCheckError, TheoremViolation
from coxchar.oracle import (
    CoxeterEvaluation,
    char_at_coxeter_oracle,
    float_shadow,
    weyl_numerator,
)
from coxchar.rootdata import build
from coxchar.weyl import enumerate_weyl, simple_reflection


class TestWeylNumerator:
    def test_a1_denominator(self):
        num = weyl_numerator(build("A1"), (0,))
        assert num == zeta_pow(4, 1) - zeta_pow(4, -1)
        assert bool(num)

    def test_a1_singular_weight_vanishes(self):
        assert not weyl_numerator(build("A1"), (1,))

    def test_a2_singular_weight_vanishes(self):
        assert not weyl_numerator(build("A2"), (1, 0))

    def test_rejects_products(self):
        with pytest.raises(ValueError):
            weyl_numerator(build("A1xA1"), (0, 0))

    def test_cap(self):
        with pytest.raises(CapExceeded) as exc:
            weyl_numerator(build("E8"), (0,) * 8)
        assert "5000000" in str(exc.value).replace(",", "")

    def test_cap_refuses_before_any_orbit_walk(self, monkeypatch):
        def walk(cartan, start):
            raise AssertionError("orbit walked before the cap check")

        monkeypatch.setattr(oracle, "_walk_signed_orbit", walk)
        with pytest.raises(CapExceeded):
            char_at_coxeter_oracle(build("E8"), (0,) * 8)

    @pytest.mark.parametrize("t", ["A2", "B2", "G2", "A3"])
    def test_alternating_in_mu(self, t):
        # replacing mu by s_i(mu) negates the whole signed sum
        rd = build(t)
        ev = CoxeterEvaluation.for_factor(rd.factors[0])
        rng = random.Random(1)
        for _ in range(5):
            lam = tuple(rng.randint(0, 3) for _ in range(rd.rank))
            mu = tuple(c + 1 for c in lam)
            base = ev.signed_orbit_counts(mu)
            for i in range(1, rd.rank + 1):
                flipped = ev.signed_orbit_counts(simple_reflection(rd, i, mu))
                assert flipped == [-c for c in base]


    @pytest.mark.parametrize("t", ["A2", "B3", "G2"])
    def test_histogram_matches_direct_weyl_sum(self, t):
        # sum det(w) at e * <w(mu), rho_check> mod N over the matrices of W
        rd = build(t)
        ev = CoxeterEvaluation.for_factor(rd.factors[0])
        n = ev.conductor
        elements = list(enumerate_weyl(rd))
        rng = random.Random(11)
        mus = [rd.rho] + [
            tuple(rng.randint(-4, 6) for _ in range(rd.rank)) for _ in range(4)
        ]
        assert any(min(mu) < 0 for mu in mus)
        for mu in mus:
            direct = [0] * n
            for w in elements:
                wmu = w.matrix.apply(mu)
                direct[sum(a * b for a, b in zip(wmu, ev.weight_exponents)) % n] += w.sign
            assert ev.signed_orbit_counts(mu) == direct


@pytest.fixture
def fresh_evaluations():
    """Drop the cached per-factor evaluations before and after a test
    that patches how they are computed."""
    oracle._evaluation.cache_clear()
    yield
    oracle._evaluation.cache_clear()


class TestChecksCanFail:
    def test_scaled_denominator_is_a_theorem_violation(self, monkeypatch, fresh_evaluations):
        real_denominator = CoxeterEvaluation.denominator
        real_divide = oracle.divide_exact
        divisions = []

        def doubled(self):
            den, shadow = real_denominator(self)
            return den + den, 2 * shadow

        def spy(num, den):
            divisions.append((num, den))
            return real_divide(num, den)

        monkeypatch.setattr(CoxeterEvaluation, "denominator", doubled)
        monkeypatch.setattr(oracle, "divide_exact", spy)
        with pytest.raises(TheoremViolation) as exc:
            char_at_coxeter_oracle(build("A2"), (1, 1))  # value -1
        quotient = exc.value.witness["quotient"]
        assert len(divisions) == 1
        assert quotient == [str(c) for c in real_divide(*divisions[0]).coeffs]
        assert quotient == [str(Fraction(-1, 2))] + ["0"] * (len(quotient) - 1)

    def test_orbit_missing_a_point_is_refused(self, monkeypatch, fresh_evaluations):
        real_walk = oracle._walk_signed_orbit

        def lossy(cartan, start):
            points = real_walk(cartan, start)
            points.pop(start)
            return points

        monkeypatch.setattr(oracle, "_walk_signed_orbit", lossy)
        with pytest.raises(InternalCheckError, match="orbit size 47 != Weyl order 48"):
            char_at_coxeter_oracle(build("B3"), (1, 0, 2))

    def test_singular_start_is_refused(self):
        cartan = build("A2").factors[0].cartan
        with pytest.raises(InternalCheckError, match="stabilized"):
            oracle._walk_signed_orbit(cartan, (1, 2))  # <alpha_1, x> = 0

    def test_perturbed_float_shadow_is_refused(self, monkeypatch, fresh_evaluations):
        rd = build("G2")
        oracle._evaluation(rd.factors[0]).denominator()  # cached before the patch
        real_numerator = CoxeterEvaluation.numerator

        def nudged(self, lam):
            exact, shadow = real_numerator(self, lam)
            return exact, shadow * (1 + 1e-3)

        monkeypatch.setattr(CoxeterEvaluation, "numerator", nudged)
        with pytest.raises(InternalCheckError, match="float shadow"):
            char_at_coxeter_oracle(rd, (0, 0))


class TestOracleValues:
    def test_trivial_rep(self):
        for t in ["A1", "B3", "G2", "A1xA2"]:
            rd = build(t)
            assert char_at_coxeter_oracle(rd, (0,) * rd.rank) == 1

    def test_a1_examples(self):
        rd = build("A1")
        assert char_at_coxeter_oracle(rd, (2,)) == -1
        assert char_at_coxeter_oracle(rd, (1,)) == 0

    def test_a2_adjoint(self):
        # equals the trace of the adjoint representation at the order-3
        # regular element, which is 2 + 3*(omega + omega^2) = -1
        assert char_at_coxeter_oracle(build("A2"), (1, 1)) == -1

    def test_denominator_nonzero_across_types(self):
        for t in ["A1", "A4", "B2", "B4", "C3", "D4", "F4", "G2"]:
            rd = build(t)
            assert bool(weyl_numerator(rd, (0,) * rd.rank))

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            char_at_coxeter_oracle(build("E8"), (0,) * 8)

    def test_product_multiplies(self):
        rd = build("A1xA1")
        assert char_at_coxeter_oracle(rd, (2, 2)) == 1
        assert char_at_coxeter_oracle(rd, (2, 0)) == -1


class TestFloatShadow:
    def test_a1(self):
        assert abs(float_shadow(build("A1"), (2,)) - (-1)) < 1e-9
        assert abs(float_shadow(build("A1"), (0,)) - 1) < 1e-9

    def test_a2_singular(self):
        assert abs(float_shadow(build("A2"), (1, 0))) < 1e-9


class TestAgreementWithFastPath:
    @pytest.mark.parametrize("t", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "A1xB2"])
    def test_box_sweep(self, t):
        rd = build(t)
        for lam in itertools.product(range(3), repeat=rd.rank):
            assert char_at_coxeter(rd, lam).value == char_at_coxeter_oracle(rd, lam)

    def test_f4_random(self):
        rd = build("F4")
        rng = random.Random(7)
        for _ in range(25):
            lam = tuple(rng.randint(0, 4) for _ in range(4))
            assert char_at_coxeter(rd, lam).value == char_at_coxeter_oracle(rd, lam)

    @given(
        st.sampled_from(["A1xG2", "B3xA2", "A2xG2", "B2xB2"]).flatmap(
            lambda t: st.tuples(
                st.just(t), st.tuples(*[st.integers(0, 4)] * build(t).rank)
            )
        )
    )
    def test_products_agree(self, tw):
        t, lam = tw
        rd = build(t)
        assert char_at_coxeter(rd, lam).value == char_at_coxeter_oracle(rd, lam)
