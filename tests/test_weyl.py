import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxchar import weyl
from coxchar.errors import CapExceeded, InternalCheckError
from coxchar.rootdata import build, pairing
from coxchar.weyl import duality_involution, make_dominant
from weyl_reference import (
    coxeter_element,
    det,
    enumerate_weyl,
    matrix_order,
    reflection_matrix,
    simple_reflection,
)

SMALL_TYPES = ["A1", "A2", "B2", "G2", "A1xA1"]

weights = st.lists(st.integers(-6, 6), min_size=1, max_size=4)


def type_and_weight(draw_types=SMALL_TYPES):
    return st.sampled_from(draw_types).flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.lists(st.integers(-8, 8), min_size=build(t).rank, max_size=build(t).rank),
        )
    )


class TestSimpleReflection:
    def test_a1(self):
        rd = build("A1")
        assert simple_reflection(rd, 1, (1,)) == (-1,)

    def test_a2_column_subtraction(self):
        rd = build("A2")
        assert simple_reflection(rd, 1, (1, 0)) == (-1, 1)

    @given(type_and_weight())
    def test_involution(self, tw):
        t, lam = tw
        rd = build(t)
        for i in range(1, rd.rank + 1):
            assert simple_reflection(rd, i, simple_reflection(rd, i, lam)) == tuple(lam)

    def test_index_range(self):
        rd = build("A2")
        with pytest.raises(ValueError):
            simple_reflection(rd, 0, (1, 1))
        with pytest.raises(ValueError):
            simple_reflection(rd, 3, (1, 1))

    @pytest.mark.parametrize("t", SMALL_TYPES + ["F4", "E6"])
    def test_matrix_determinant(self, t):
        rd = build(t)
        for i in range(1, rd.rank + 1):
            assert det(reflection_matrix(rd, i)) == -1


class TestMakeDominant:
    def test_fixed_point(self):
        rd = build("A2")
        assert make_dominant(rd, (2, 3)) == ((2, 3), 1, 0)

    def test_a1(self):
        rd = build("A1")
        assert make_dominant(rd, (-3,)) == ((3,), -1, 1)

    def test_a2_single_step(self):
        rd = build("A2")
        assert make_dominant(rd, (-1, 2)) == ((1, 1), -1, 1)

    @given(type_and_weight())
    def test_idempotent_and_dominant(self, tw):
        t, lam = tw
        rd = build(t)
        dom, sign, steps = make_dominant(rd, lam)
        assert all(c >= 0 for c in dom)
        assert sign == (-1) ** (steps % 2)
        assert make_dominant(rd, dom) == (dom, 1, 0)

    @pytest.mark.parametrize("t", ["A1", "A3", "B3", "C4", "G2", "F4", "D5", "E6", "E8", "A1xB2"])
    def test_steps_count_the_coroots_lam_pairs_negatively(self, t):
        rd = build(t)
        rng = random.Random(t)
        for _ in range(20):
            lam = tuple(rng.randint(-9, 9) for _ in range(rd.rank))
            negative = sum(
                sum(c * x for c, x in zip(p.coroot, lam[rd.factor_slice(k)])) < 0
                for k, f in enumerate(rd.factors)
                for p in f.positive
            )
            assert make_dominant(rd, lam)[2] == negative <= rd.num_positive_roots
        assert make_dominant(rd, tuple(-c for c in rd.rho))[2] == rd.num_positive_roots

    @pytest.mark.parametrize("t", ["A2", "G2", "E8", "A1xB2"])
    def test_walk_past_every_positive_root_is_refused(self, monkeypatch, t):
        # a reflection that never reaches the dominant chamber
        rd = build(t)
        calls = []

        def stuck(cartan, coords, j):
            calls.append(j)
            return tuple(coords)

        monkeypatch.setattr(weyl, "_reflect", stuck)
        cap = rd.num_positive_roots
        with pytest.raises(InternalCheckError, match=f"iteration cap {cap} ") as exc:
            make_dominant(rd, (-1,) * rd.rank)
        assert exc.value.witness == {"type": t, "lambda": [-1] * rd.rank, "cap": cap}
        assert len(calls) == rd.num_positive_roots

    @given(type_and_weight())
    def test_height_never_decreases(self, tw):
        # <x, rho_check> strictly increases per step, so in total
        t, lam = tw
        rd = build(t)
        two_rho_check = []
        for k, f in enumerate(rd.factors):
            two_rho_check.extend(f.two_rho_check)
        dom, _, steps = make_dominant(rd, lam)
        before = pairing(lam, two_rho_check)
        after = pairing(dom, two_rho_check)
        assert after >= before
        assert (after == before) == (steps == 0)

    @given(type_and_weight())
    def test_output_is_orbit_unique(self, tw):
        t, lam = tw
        rd = build(t)
        dom, _, _ = make_dominant(rd, lam)
        orbit_dominants = {
            el.matrix.apply(lam)
            for el in enumerate_weyl(rd)
            if all(c >= 0 for c in el.matrix.apply(lam))
        }
        assert orbit_dominants == {dom}


class TestEnumerate:
    @pytest.mark.parametrize(
        "t,n",
        [("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48), ("C3", 48),
         ("D4", 192), ("G2", 12), ("F4", 1152), ("A1xA2", 12)],
    )
    def test_counts(self, t, n):
        els = list(enumerate_weyl(build(t)))
        assert len(els) == n
        assert len({el.matrix for el in els}) == n

    def test_signs_match_determinants_and_words(self):
        for el in enumerate_weyl(build("B2")):
            assert el.sign == det(el.matrix)
            assert el.sign == (-1) ** len(el.word)

    def test_cap_refusal_names_cap_and_order(self):
        rd = build("E8")
        with pytest.raises(CapExceeded) as exc:
            next(iter(enumerate_weyl(rd)))
        assert "5000000" in str(exc.value).replace(",", "")
        assert "696729600" in str(exc.value)

    def test_cap_override(self):
        els = enumerate_weyl(build("A2"), cap=None)
        assert len(list(els)) == 6


class TestCoxeterElement:
    # the product of the reference's reflection matrices against the
    # library's Coxeter number, read from the highest root's height
    @pytest.mark.parametrize("t", ["A1", "A2", "A5", "B2", "B4", "C3", "D4", "G2", "F4", "E6"])
    def test_order_is_coxeter_number(self, t):
        rd = build(t)
        assert matrix_order(coxeter_element(rd)) == rd.coxeter_numbers[0]

    def test_e8_order(self):
        rd = build("E8")
        assert matrix_order(coxeter_element(rd)) == 30

    @pytest.mark.parametrize("t", ["A1", "A2", "B3", "D4", "G2"])
    def test_determinant(self, t):
        rd = build(t)
        assert det(coxeter_element(rd)) == (-1) ** rd.rank


class TestDualityInvolution:
    def test_a1_everything_self_dual(self):
        rd = build("A1")
        for k in range(6):
            assert duality_involution(rd, (k,)) == (k,)

    def test_a2_swaps_fundamental_weights(self):
        rd = build("A2")
        assert duality_involution(rd, (1, 0)) == (0, 1)
        assert duality_involution(rd, (2, 5)) == (5, 2)

    def test_c3_trivial(self):
        rd = build("C3")
        rng = random.Random(3)
        for _ in range(20):
            lam = tuple(rng.randint(0, 6) for _ in range(3))
            assert duality_involution(rd, lam) == lam

    @given(type_and_weight())
    def test_involution_on_dominants(self, tw):
        t, lam = tw
        rd = build(t)
        dom, _, _ = make_dominant(rd, lam)
        assert duality_involution(rd, duality_involution(rd, dom)) == dom
