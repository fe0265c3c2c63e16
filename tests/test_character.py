import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxchar import character
from coxchar.character import (
    alcove_reduce,
    char_at_coxeter,
    coxeter_lift_order,
    fs_indicator,
    regularity_test,
    rho_central_character,
    verify_principal_cocharacter,
)
from coxchar.errors import InternalCheckError, TheoremViolation
from coxchar.lattice import IntMatrix, quotient
from coxchar.oracle import char_at_coxeter_oracle
from coxchar.rootdata import build
from coxchar.weyl import duality_involution, make_dominant

ALL_SIMPLE = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


# types past rank 8, with 16- and 24-bit fields, and a product
WIDE = ["A20", "B12", "C12", "D13", "A60"]
PRODUCT = "B2xG2"


def reference_walls_or_blocking(f, mu):
    """The scalar loop the packed pass replaced: one divmod per positive
    coroot, in table order."""
    h = f.coxeter_number
    walls = 0
    for p in f.positive:
        q, s = divmod(sum(map(mul, mu, p.coroot)), h)
        if s == 0:
            return p
        walls += q
    return walls


def assert_same_as_reference(rd, mu):
    for k, f in enumerate(rd.factors):
        mu_k = mu[rd.factor_slice(k)]
        got = character._walls_or_blocking(f, mu_k)
        want = reference_walls_or_blocking(f, mu_k)
        if isinstance(want, int):
            assert got == want, (f.name, mu_k)
        else:
            assert got is want, (f.name, mu_k, got, want)  # the same RootPair of the table


COORD_TOPS = st.sampled_from([2, 6, 40, 10**6, 10**12])


@st.composite
def any_mu(draw, rd):
    """Strictly dominant weights, mostly singular for the larger types."""
    top = draw(COORD_TOPS)
    return tuple(draw(st.lists(st.integers(1, top), min_size=rd.rank, max_size=rd.rank)))


@st.composite
def regular_mu(draw, rd):
    """a * rho + h * nu, with a prime to h and nu >= 0, per factor:
    <mu, beta_vee> = a * height(beta_vee) mod h, never 0 since every
    coroot height is below h.  a = 1 gives rho * (1 + h * s); a = h - 1
    fills every field to its bound (h - 1)^2 before the reduction."""
    top = draw(COORD_TOPS)
    mu = []
    for f in rd.factors:
        h = f.coxeter_number
        a = draw(st.sampled_from([a for a in range(1, h) if gcd(a, h) == 1]))
        nu = draw(st.lists(st.integers(0, top // h), min_size=f.rank, max_size=f.rank))
        mu += [a + h * c for c in nu]
    return tuple(mu)


class TestPackedPass:
    """The packed pass against the scalar loop it replaced: the same wall
    count, or the same first blocking coroot in table order."""

    @pytest.mark.parametrize("t", ALL_SIMPLE + WIDE + [PRODUCT])
    @given(data=st.data())
    def test_matches_reference(self, t, data):
        rd = build(t)
        assert_same_as_reference(rd, data.draw(any_mu(rd) | regular_mu(rd)))

    @pytest.mark.parametrize("t", ALL_SIMPLE + WIDE)
    def test_fullest_fields_and_first_witnesses(self, t):
        rd = build(t)
        (f,) = rd.factors
        h = f.coxeter_number
        # every coordinate h - 1 mod h: the field of beta holds
        # (h - 1) * height(beta_vee) before the reduction, (h - 1)^2 at the
        # highest coroot
        assert_same_as_reference(rd, (h - 1,) * f.rank)
        assert_same_as_reference(rd, (10**12 * h - 1,) * f.rank)
        # h * rho is blocked by every coroot; the witness is the first
        assert character._walls_or_blocking(f, (h,) * f.rank) is f.positive[0]
        # blocked only by the highest coroot: raise rho by 1 at a
        # coordinate where gamma_vee is 1, which no other coroot exceeds
        gamma = f.highest_coroot
        if 1 in gamma.coroot:
            mu = tuple(1 + (i == gamma.coroot.index(1)) for i in range(f.rank))
            assert character._walls_or_blocking(f, mu) is gamma
            assert reference_walls_or_blocking(f, mu) is gamma

    @pytest.mark.parametrize("t", ALL_SIMPLE + WIDE)
    def test_field_width_is_the_least_that_holds(self, t):
        (f,) = build(t).factors
        h = f.coxeter_number
        k = f.packed
        assert max(p.coroot_height for p in f.positive) == h - 1  # so <m, beta_vee> <= (h - 1)^2
        assert k.bias % h == 0 and 2 * k.bias >= (h - 1) ** 2 > 2 * (k.bias - h)

        def holds(bits):
            return 2 * k.bias < 1 << (bits - 1) and len(f.positive) * (h - 1) < (1 << bits) - 1

        assert k.bits % 8 == 0 and holds(k.bits)
        if k.bits - 8 >= 8:
            assert not holds(k.bits - 8)
        assert k.ones == sum(1 << (k.bits * t) for t in range(len(f.positive)))
        assert k.high == k.ones << (k.bits - 1)

    def test_widths(self):
        bits = {t: build(t).factors[0].packed.bits for t in ALL_SIMPLE + WIDE}
        assert {bits[t] for t in ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", "D4"]} == {8}
        assert bits["E8"] == bits["B12"] == bits["A20"] == 16
        assert bits["A60"] == 24


class TestWeightValidation:
    ENTRY_POINTS = {
        "validate_weight": lambda rd, lam: rd.validate_weight(lam),
        "char_at_coxeter": char_at_coxeter,
        "regularity_test": regularity_test,
        "fs_indicator": fs_indicator,
        "duality_involution": duality_involution,
        "char_at_coxeter_oracle": char_at_coxeter_oracle,
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), 0.9])
    def test_non_integral_coordinate_raises(self, entry, bad):
        with pytest.raises(ValueError, match="must be integers"):
            self.ENTRY_POINTS[entry](build("A2"), (bad, 1))
        with pytest.raises(ValueError, match="must be integers"):
            self.ENTRY_POINTS[entry](build("A2"), (1, bad))

    def test_integral_float_is_accepted(self):
        rd = build("A2")
        lam = rd.validate_weight((2.0, Fraction(4, 2)))
        assert lam == (2, 2) and all(type(c) is int for c in lam)
        assert char_at_coxeter(rd, (2.0, 0)) == char_at_coxeter(rd, (2, 0))


class TestRegularity:
    def test_zero_weight_always_regular(self):
        for t in ["A1", "B3", "E8", "A2xG2"]:
            ok, witness = regularity_test(build(t), (0,) * build(t).rank)
            assert ok and witness is None

    def test_a2_standard_blocked(self):
        ok, witness = regularity_test(build("A2"), (1, 0))
        assert not ok
        assert witness.pair.coroot == (1, 1)
        # every witness pairs lambda + rho to 0 mod its factor's h, recomputed
        # from the embedded coroot rather than read back from the report
        singular = 0
        for t in ["A2", "B2", "G2", "A1xB2"]:
            rd = build(t)
            for lam in itertools.product(range(4), repeat=rd.rank):
                ok, witness = regularity_test(rd, lam)
                if ok:
                    continue
                singular += 1
                mu = [c + r for c, r in zip(lam, rd.rho)]
                pairing = sum(map(mul, mu, witness.pair.coroot))
                assert pairing % rd.coxeter_numbers[witness.factor] == 0, (t, lam)
        assert singular > 0

    def test_a2_adjoint_regular(self):
        ok, _ = regularity_test(build("A2"), (1, 1))
        assert ok

    def test_rejects_nondominant(self):
        with pytest.raises(ValueError):
            regularity_test(build("A2"), (1, -1))

    @pytest.mark.parametrize("t, lam, factor", [
        ("A2xG2", (1, 1, 1, 1), 1),  # only the second factor is singular
        ("A1xB2", (0, 0, 1), 1),
        ("A2xG2", (1, 0, 2, 0), 0),  # both are: the first one's witness
        ("A1xA1", (1, 1), 0),
    ])
    def test_singular_product_witness(self, t, lam, factor):
        rd = build(t)
        rep = char_at_coxeter(rd, lam)
        assert rep.factors[factor].steps is None
        assert all(fv.steps is not None for fv in rep.factors[:factor])
        ok, witness = regularity_test(rd, lam)
        assert not ok
        assert witness == rep.blocking_coroot == rep.factors[factor].blocking_coroot
        assert witness.factor == factor


class TestAlcoveReduce:
    def test_rho_fixed(self):
        rd = build("B3")
        assert alcove_reduce(rd, rd.rho) == (rd.rho, 1, 0)

    def test_a1_sym2(self):
        assert alcove_reduce(build("A1"), (3,)) == ((1,), -1, 1)

    def test_a2_adjoint(self):
        assert alcove_reduce(build("A2"), (2, 2)) == ((1, 1), -1, 1)

    def test_rejects_non_strictly_dominant(self):
        with pytest.raises(ValueError):
            alcove_reduce(build("A2"), (0, 1))

    def test_endpoint_always_rho_randomized(self):
        rng = random.Random(99)
        for t in ["A3", "B3", "C4", "D4", "F4", "G2", "E6"]:
            rd = build(t)
            h = rd.coxeter_numbers[0]
            found = 0
            while found < 25:
                lam = tuple(rng.randint(0, 2 * h) for _ in range(rd.rank))
                if not regularity_test(rd, lam)[0]:
                    continue
                found += 1
                mu = tuple(c + 1 for c in lam)
                endpoint, sign, steps = alcove_reduce(rd, mu)
                assert endpoint == rd.rho
                assert sign == (-1) ** (steps % 2)

    def test_walk_longer_than_the_wall_count_raises(self, monkeypatch):
        rd = build("B3")
        mu = (1, 2, 5)
        assert alcove_reduce(rd, mu)[2] == 5
        real = character._walls_or_blocking
        monkeypatch.setattr(character, "_walls_or_blocking", lambda f, mu: real(f, mu) - 1)
        with pytest.raises(InternalCheckError, match="more than the 4 steps") as exc:
            alcove_reduce(rd, mu)
        assert exc.value.witness == {"type": "B3", "factor": "B3", "mu": [1, 2, 5], "walls": 4}

    def test_singular_weight_raises(self):
        with pytest.raises(InternalCheckError, match="0 mod 3") as exc:
            alcove_reduce(build("A2"), (2, 1))
        assert exc.value.witness == {
            "type": "A2", "factor": "A2", "mu": [2, 1], "h": 3, "coroot": [1, 1]}

    def test_large_walk_reaches_rho(self):
        # past the 10**6 steps the old iteration cap allowed
        assert alcove_reduce(build("A1"), (2_000_003,)) == ((1,), -1, 1_000_001)


def _regular_mu(rd, n):
    """A strictly dominant weight regular mod h: the dominant form of
    rho + sum_j h_j n_j alpha_j, a point of the W x hQ orbit of rho."""
    hs = [f.coxeter_number for f in rd.factors for _ in range(f.rank)]
    x = [1 + sum(hs[j] * n[j] * rd.cartan[i][j] for j in range(rd.rank)) for i in range(rd.rank)]
    return make_dominant(rd, x)[0]


TYPES = st.sampled_from(ALL_SIMPLE + ["B2xG2"])
SHIFTS = st.lists(st.integers(-3, 3), min_size=8, max_size=10)


class TestWallCount:
    @given(t=TYPES, n=SHIFTS)
    def test_walk_length_is_the_wall_count(self, t, n):
        rd = build(t)
        mu = _regular_mu(rd, n)
        rep = char_at_coxeter(rd, [c - 1 for c in mu])
        assert rep.regular
        steps = sum(f.steps for f in rep.factors)
        assert alcove_reduce(rd, mu) == (rd.rho, rep.value, steps)

    @given(t=TYPES, n=SHIFTS, box=SHIFTS, regular=st.booleans())
    def test_translation_by_h_alpha_adds_two_walls(self, t, n, box, regular):
        # sum_beta <alpha_j, beta_vee> = <alpha_j, 2 rho_vee> = 2
        rd = build(t)
        hs = [f.coxeter_number for f in rd.factors for _ in range(f.rank)]
        if regular:  # adding h * 2rho (all coordinates 2h) keeps mu regular
            lam = [c - 1 + 4 * h for c, h in zip(_regular_mu(rd, n), hs)]
        else:
            lam = [3 * h + abs(b) for b, h in zip(box, hs)]
        rep = char_at_coxeter(rd, lam)
        for j in range(rd.rank):
            shifted = [c + hs[j] * rd.cartan[i][j] for i, c in enumerate(lam)]
            rep_j = char_at_coxeter(rd, shifted)
            assert rep_j.value == rep.value
            if rep.regular:
                assert sum(f.steps for f in rep_j.factors) == sum(f.steps for f in rep.factors) + 2


class TestCharAtCoxeter:
    def test_trivial_rep_is_one_everywhere(self):
        for t in ALL_SIMPLE:
            rd = build(t)
            assert char_at_coxeter(rd, (0,) * rd.rank).value == 1

    def test_a1_cycle(self):
        rd = build("A1")
        values = [char_at_coxeter(rd, (k,)).value for k in range(12)]
        assert values == [1, 0, -1, 0] * 3

    def test_cost_does_not_grow_with_lambda(self):
        rep = char_at_coxeter(build("A2"), (10**12, 10**12))
        assert (rep.value, rep.factors[0].steps) == (-1, 1333333333333)

    def test_a2_standard_and_adjoint(self):
        rd = build("A2")
        assert char_at_coxeter(rd, (1, 0)).value == 0
        assert char_at_coxeter(rd, (1, 1)).value == -1

    def test_report_invariants_on_sweep(self):
        for t in ["A2", "B2", "G2", "A1xB2"]:
            rd = build(t)
            for lam in itertools.product(range(4), repeat=rd.rank):
                rep = char_at_coxeter(rd, lam)
                assert rep.value in (-1, 0, 1)
                assert regularity_test(rd, lam) == (rep.regular, rep.blocking_coroot)
                assert (rep.value == 0) == (not rep.regular)
                assert (rep.blocking_coroot is not None) == (rep.value == 0)
                if rep.value != 0:
                    assert rep.endpoint_is_rho is True
                    assert rep.value == (-1) ** rep.sign_parity

    def test_product_multiplies(self):
        rd = build("A1xA1")
        assert char_at_coxeter(rd, (2, 2)).value == 1
        assert char_at_coxeter(rd, (2, 0)).value == -1
        assert char_at_coxeter(rd, (1, 2)).value == 0

    def test_product_each_blocked_factor_gets_own_witness(self):
        rd = build("A1xA1")
        rep = char_at_coxeter(rd, (1, 1))  # both factors singular
        assert rep.value == 0
        witnesses = [f.blocking_coroot for f in rep.factors]
        assert witnesses[0].factor == 0 and witnesses[1].factor == 1
        assert witnesses[0].pair.coroot == (1, 0)
        assert witnesses[1].pair.coroot == (0, 1)
        assert rep.blocking_coroot == witnesses[0]

    def test_e8_runs_fast_path(self):
        rd = build("E8")
        # (1,...,1) is singular mod 30: mu = 2*rho meets the height-15 coroot
        assert char_at_coxeter(rd, (1,) * 8).value == 0
        rng = random.Random(4)
        found = 0
        while found < 5:
            lam = tuple(rng.randint(0, 40) for _ in range(8))
            if not regularity_test(rd, lam)[0]:
                continue
            found += 1
            rep = char_at_coxeter(rd, lam)
            assert rep.value in (-1, 1)
            assert rep.endpoint_is_rho

    def test_rejects_bad_weights(self):
        rd = build("A2")
        with pytest.raises(ValueError):
            char_at_coxeter(rd, (1,))
        with pytest.raises(ValueError):
            char_at_coxeter(rd, (-1, 0))


class TestRhoCentralCharacter:
    def test_a1_nontrivial(self):
        cc = rho_central_character(build("A1"))
        assert cc.values == (-1,) and cc.order == 2

    def test_e8_trivial(self):
        assert rho_central_character(build("E8")).order == 1

    @pytest.mark.parametrize("n", range(2, 10))
    def test_c_family_rule(self, n):
        # nontrivial iff n = 1, 2 mod 4: the (-1)^(n(n+1)/2) pattern
        cc = rho_central_character(build(f"C{n}"))
        assert (cc.order == 1) == (n % 4 in (0, 3))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_b_family_always_nontrivial(self, n):
        assert rho_central_character(build(f"B{n}")).order == 2

    def test_order_above_two_raises_with_its_witness(self):
        # Z/4 with rho at the generator 1: twice rho is 2, not 0
        center = quotient(1, IntMatrix.from_rows([[4]]))
        assert center.invariant_factors == (4,) and center.project((1,)) == (1,)
        with pytest.raises(TheoremViolation, match="order > 2 on the center of Z4") as exc:
            character._rho_on_center(center, (1,), "Z4")
        assert exc.value.witness == {"type": "Z4", "residues": [1]}

    def test_product(self):
        cc = rho_central_character(build("A1xC3"))
        assert cc.order == 2  # A1 side contributes the sign


class TestCoxeterLiftOrder:
    def test_a1(self):
        (rep,) = coxeter_lift_order(build("A1"))
        assert rep.lift_order == 4 and not rep.matches_h

    def test_e8(self):
        (rep,) = coxeter_lift_order(build("E8"))
        assert rep.lift_order == 30 and rep.matches_h

    def test_c3_matches(self):
        (rep,) = coxeter_lift_order(build("C3"))
        assert rep.lift_order == 6 and rep.matches_h

    def test_b3_mismatch(self):
        (rep,) = coxeter_lift_order(build("B3"))
        assert rep.lift_order == 12 and not rep.matches_h

    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_biconditional(self, t):
        rd = build(t)
        (rep,) = coxeter_lift_order(rd)
        assert rep.matches_h == (rho_central_character(rd).order == 1)
        assert rep.lift_order in (rep.coxeter_number, 2 * rep.coxeter_number)

    def test_product_reports_per_factor(self):
        reps = coxeter_lift_order(build("A1xE8"))
        assert [r.matches_h for r in reps] == [False, True]


class TestFsIndicator:
    def test_trivial_rep(self):
        assert fs_indicator(build("D4"), (0, 0, 0, 0)) == 1

    def test_a1_standard_symplectic(self):
        assert fs_indicator(build("A1"), (1,)) == -1

    def test_not_self_dual_is_zero(self):
        rd = build("A2")
        assert fs_indicator(rd, (1, 0)) == 0
        assert fs_indicator(rd, (2, 1)) == 0

    @pytest.mark.parametrize("n", range(2, 10))
    def test_b_family_spin_rule(self, n):
        # orthogonal exactly for n = 0, 3 mod 4
        lam = (0,) * (n - 1) + (1,)
        expect = 1 if n % 4 in (0, 3) else -1
        assert fs_indicator(build(f"B{n}"), lam) == expect

    def test_matches_duality_involution(self):
        for t in ["A2", "B2", "C3", "D4", "G2"]:
            rd = build(t)
            for lam in itertools.product(range(3), repeat=rd.rank):
                fs = fs_indicator(rd, lam)
                dual = duality_involution(rd, lam)
                assert fs == fs_indicator(rd, dual)
                assert (fs != 0) == (dual == tuple(lam))

    def test_d4_vector_and_spinors(self):
        rd = build("D4")
        # all three 8-dimensional representations are orthogonal
        for lam in [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
            assert fs_indicator(rd, lam) == 1


class TestPrincipalCocharacter:
    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_all_checks_pass(self, t):
        rd = build(t)
        for rep in verify_principal_cocharacter(rd):
            assert rep.rho_pairings_all_one
            assert rep.adjoint_order == rep.coxeter_number
            assert rep.regular
            assert rep.passed

    def test_g2_f4_examples(self):
        assert verify_principal_cocharacter(build("G2"))[0].adjoint_order == 6
        assert verify_principal_cocharacter(build("F4"))[0].adjoint_order == 12
        assert verify_principal_cocharacter(build("A1"))[0].adjoint_order == 2

    def test_product(self):
        reps = verify_principal_cocharacter(build("A1xG2"))
        assert [r.adjoint_order for r in reps] == [2, 6]
