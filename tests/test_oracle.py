import hashlib
import itertools
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxchar import oracle, rootdata
from coxchar.character import char_at_coxeter, coxeter_lift_order
from coxchar.cyclotomic import CyclotomicInt
from coxchar.errors import CapExceeded, InternalCheckError, TheoremViolation
from coxchar.oracle import (
    BIT_COUNT_FROM,
    COUNT_SLICE,
    MAX_CONDUCTOR,
    CoxeterEvaluation,
    char_at_coxeter_oracle,
)
from coxchar.rootdata import build
from weyl_reference import enumerate_weyl, reference_signed_orbit_counts, simple_reflection


# 40 types: every family through rank 8 or more, and the exceptional types
DUAL_CHECK_TYPES = (
    [f"A{r}" for r in range(1, 12)]
    + [f"{x}{r}" for x in "BC" for r in range(2, 10)]
    + [f"D{r}" for r in range(4, 12)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def weyl_numerator(t, lam):
    """The exact Weyl numerator of a simple type at lambda."""
    return oracle._evaluation(build(t).factors[0]).numerator(lam)[0]


class TestWeylNumerator:
    def test_a1_denominator(self):
        num = weyl_numerator("A1", (0,))
        assert num == CyclotomicInt.from_poly(4, [0, 2])  # zeta_4 - zeta_4^-1 = 2i
        assert bool(num)

    def test_a1_singular_weight_vanishes(self):
        assert not weyl_numerator("A1", (1,))

    def test_a2_singular_weight_vanishes(self):
        assert not weyl_numerator("A2", (1, 0))

    def test_cap(self):
        with pytest.raises(CapExceeded) as exc:
            char_at_coxeter_oracle(build("E8"), (0,) * 8)
        assert "5000000" in str(exc.value).replace(",", "")

    def test_cap_refuses_before_any_orbit_walk(self, monkeypatch):
        def walk(f, start, n):
            raise AssertionError("orbit built before the cap check")

        monkeypatch.setattr(oracle, "_build_signed_orbit", walk)
        with pytest.raises(CapExceeded):
            char_at_coxeter_oracle(build("E8"), (0,) * 8)

    @pytest.mark.parametrize("t", ["C33", "A65", "A1xC33", "D34"])
    def test_conductor_above_a_byte_is_refused_before_any_orbit_walk(self, monkeypatch, t):
        # two residues mod N add up within a byte only for N <= 128;
        # C33, A65 and D34 have N = h * d = 132, and build in well under 1 s
        def walk(f, start, n):
            raise AssertionError("orbit built before the conductor check")

        monkeypatch.setattr(oracle, "_build_signed_orbit", walk)
        rd = build(t)
        name = rd.factors[-1].name
        with pytest.raises(CapExceeded, match=f"N = 132 of {name}"):
            char_at_coxeter_oracle(rd, (0,) * rd.rank, cap=None)

    @pytest.mark.parametrize("t", ["A10", "A11", "A15", "A1xA15", "A16", "A40", "B8", "E8"])
    def test_orbit_over_byte_budget_refused_before_any_walk(self, monkeypatch, t):
        # |W| * (rank + 1) bytes: A10 needs 439 MB, B8 93 MB, E8 6.3 GB
        def walk(f, start, n):
            raise AssertionError("orbit built before the byte budget check")

        monkeypatch.setattr(oracle, "_build_signed_orbit", walk)
        rd = build(t)
        size = sum(f.weyl_order * (f.rank + 1) for f in rd.factors)
        assert size > oracle.ORBIT_BYTE_BUDGET
        with pytest.raises(CapExceeded, match=f"{size} bytes for {t} exceed the budget"):
            char_at_coxeter_oracle(rd, (0,) * rd.rank, cap=None)

    def test_factors_that_hash_alike_get_their_own_evaluation(self, fresh_evaluations):
        # SimpleFactor hashes on (family, rank) alone; equality still
        # compares every field, so a mutant is not served the real entry
        f = build("F4").factors[0]
        mutant = f._replace(coxeter_number=f.coxeter_number + 1)
        assert hash(mutant) == hash(f) and mutant != f
        real, other = oracle._evaluation(f), oracle._evaluation(mutant)
        assert other is not real and oracle._evaluation(f) is real
        assert (real.conductor, other.conductor) == (12, 13)

    @pytest.mark.parametrize("t, n", [("C32", 128), ("A63", 128)])
    def test_conductors_up_to_128_pass_the_check(self, t, n):
        # past the conductor check, the orbit of either is over the byte budget
        rd = build(t)
        assert oracle._evaluation(rd.factors[0]).conductor == n <= MAX_CONDUCTOR
        with pytest.raises(CapExceeded, match="exceed the budget"):
            oracle._check_cap(rd, None)

    @pytest.mark.parametrize("t", DUAL_CHECK_TYPES)
    def test_conductor_is_the_lift_order_of_the_dual_type(self, t):
        # t has order h * d in the simply connected cover, d the order of
        # [rho_check] in P_check/Q_check; on the dual root datum (B <-> C)
        # that is the order of [rho] in P/Q, which coxeter_lift_order reads
        # from the dual type's root table, while the oracle reads d from
        # this type's minuscule nodes
        dual = t.translate(str.maketrans("BC", "CB"))
        lift = coxeter_lift_order(build(dual))[0].lift_order
        assert oracle._evaluation(build(t).factors[0]).conductor == lift

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


    @pytest.mark.parametrize("t", ["A2", "B3", "G2", "C3", "A4", "F4", "D5"])
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


SIMPLE_TYPES_TO_RANK_8 = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{x}{r}" for x in "BC" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


class TestPacking:
    @pytest.mark.parametrize(
        "n, bias, bits", [(4, 4, 16), (36, 108, 16), (30, 150, 32), (1681, 10086, 32), (12, 24, 64)]
    )
    def test_reduce_fields(self, n, bias, bits):
        fmt = {16: "H", 32: "I", 64: "Q"}[bits]
        values = list(range(2 * bias + 1))
        packed = int.from_bytes(struct.pack(f"{len(values)}{fmt}", *values), sys.byteorder)
        ones = rootdata._ones(len(values), bits // 8)
        reduced = rootdata._reduce_fields(packed, n, bias, bits, ones)
        fields = memoryview(reduced.to_bytes(len(values) * bits // 8, sys.byteorder)).cast(fmt)
        assert list(fields) == [v % n for v in values]


DIFFERENTIAL_TYPES = [t for t in SIMPLE_TYPES_TO_RANK_8 if build(t).weyl_order <= 10**5] + ["D7"]
# (N, det(w0)) of types that cover both signs of the mirror and both
# parities of N; E6 is the benchmark's hot type
MIRRORS = {"E6": (12, 1), "A4": (5, 1), "A2": (3, -1), "B3": (6, -1)}


class TestByteResidues:
    @pytest.mark.parametrize("t, digest", [
        ("A2", "28fa5fe4bb528d3e50ac639c58bbe82ad73b24bef527ef2066c2459ef5c071df"),
        ("B3", "017f7c2cc191d9725677cfdde5b415e7a8882dd7529695cd759aa551a992664e"),
        ("G2", "410bd899ca6f813f2fddff1e4c59f1a24bb1518e340e19fa161e2d206ebc66a0"),
        ("C4", "4e6da5d2b4ee480f1351d029015e070b419e4fd1cf013a904043b3e9eb61ca16"),
        ("F4", "89e9a609aa7a1cba3bb51be8f4646aaef0257263c8dfbe3406b7ab49d605d46e"),
        ("D5", "89fc4fa02d3729acc71f651e48bce6ec8c8e731b967d0f913b1ed15854c7feb5"),
        ("E6", "8a4f06f84f12287c7f19227033efba5d695d5ad1421453795799c313e403a0ea"),
        ("E7", "2ae314c502117a301bd681f374a3d62a8d3ff9ddda1e785f75aec2f9382d493b"),
    ])
    def test_orbit_bytes_are_pinned(self, t, digest):
        # every det +1 column, then every det -1 column, in coordinate order
        plus, minus = oracle._evaluation(build(t).factors[0])._signed_orbit()
        assert hashlib.sha256(b"".join(plus) + b"".join(minus)).hexdigest() == digest

    @pytest.mark.parametrize("n", [2, 4, 9, 36, 48, 49, 64, 100, 128])
    def test_kernel_matches_bytewise_sum(self, n):
        # up to 9 terms, so every n with room = 255 // (n - 1) < 9 folds,
        # room = 2 (n = 128) after every term
        rng = random.Random(n)
        size = 300
        for terms in range(1, 10):
            cols = [bytes(rng.randrange(256) for _ in range(size)) for _ in range(terms)]
            ms = [rng.choice([0, n, -n, 3 * n]) if rng.random() < 0.3 else rng.randint(-500, 500)
                  for _ in range(terms)]
            want = bytes(sum(m * c[p] for m, c in zip(ms, cols)) % n for p in range(size))
            assert oracle._byte_residues(n, list(zip(ms, cols)), size) == want

    @pytest.mark.parametrize("top", ["half", "all"])
    @pytest.mark.parametrize("n", [2, 3, 12, 36, 128])
    @pytest.mark.parametrize("size", [0, 1, BIT_COUNT_FROM - 1, BIT_COUNT_FROM, COUNT_SLICE - 1,
                                      COUNT_SLICE, COUNT_SLICE + 1, 3 * COUNT_SLICE + 5])
    def test_histogram_matches_bytes_count(self, size, n, top):
        # both counting paths, every slice boundary, and both the
        # numerator's residues 0..N/2 and the denominator's N
        rng = random.Random(size * n)
        fold = bytes(b % n for b in range(256))
        plus, minus = (rng.randbytes(size).translate(fold) for _ in range(2))
        top = n // 2 + 1 if top == "half" else n
        want = [plus.count(k) - minus.count(k) for k in range(top)]
        assert oracle._signed_histogram(n, (1,), ((plus,), (minus,)), top) == want

    @pytest.mark.parametrize("t", DIFFERENTIAL_TYPES)
    def test_histogram_matches_reference(self, t):
        rd = build(t)
        ev = CoxeterEvaluation.for_factor(rd.factors[0])
        n, r = ev.conductor, rd.rank
        # no type here has r > 255 // (N - 1), so the kernel never folds
        # between terms; test_kernel_matches_bytewise_sum covers the fold
        rng = random.Random(r * n)
        mus = [
            rd.rho,
            (0,) * r,
            tuple(n * rng.randint(-2, 2) for _ in range(r)),  # every m = 0
            tuple((0, -1, n, -n - 3, 2 * n + 1)[i % 5] for i in range(r)),
        ] + [tuple(rng.randint(-2 * n, 2 * n) for _ in range(r)) for _ in range(3)]
        full = [ev.signed_orbit_counts(mu) for mu in mus]  # every residue counted
        ev.denominator()  # reads det(w0): from here on only residues 0..N/2 are counted
        if t in MIRRORS:
            assert (n, ev._mirror) == MIRRORS[t]
        for mu, counts in zip(mus, full):
            assert ev.signed_orbit_counts(mu) == counts == reference_signed_orbit_counts(ev, mu)


def _first_mirror_break(counts):
    """The first k at which neither counts[-k] = counts[k] nor
    counts[-k] = -counts[k] has held at every residue up to k, or None
    if one of the two holds throughout."""
    n = len(counts)
    breaks = [next((k for k in range(n) if counts[-k] != s * counts[k]), None) for s in (1, -1)]
    return None if None in breaks else max(breaks)


def _with_byte(ev, sign_class, coord, pos, value):
    """Replace one residue byte of the cached orbit."""
    orbit = [list(cols) for cols in ev._signed_orbit()]
    col = bytearray(orbit[sign_class][coord])
    col[pos] = value
    orbit[sign_class][coord] = bytes(col)
    ev._orbit = tuple(tuple(cols) for cols in orbit)


# every simple type to rank 8 the oracle takes at its default caps
ORACLE_TYPES = [
    t for t in SIMPLE_TYPES_TO_RANK_8
    if build(t).weyl_order <= oracle.DEFAULT_WEYL_CAP
    and CoxeterEvaluation.for_factor(build(t).factors[0]).conductor <= MAX_CONDUCTOR
]


class TestMirror:
    def test_oracle_types_at_default_caps(self):
        assert ORACLE_TYPES == (
            [f"A{r}" for r in range(1, 9)]  # A8: N = 9, |W| = 362,880
            + [f"{x}{r}" for x in "BC" for r in range(2, 8)]
            + [f"D{r}" for r in range(4, 8)]
            + ["E6", "E7", "F4", "G2"]
        )
        for t in ("B8", "C8", "D8"):
            with pytest.raises(CapExceeded):
                char_at_coxeter_oracle(build(t), (0,) * 8)
        for t in ORACLE_TYPES + ["A9"]:  # every type under the Weyl cap fits the byte budget
            oracle._check_cap(build(t), oracle.DEFAULT_WEYL_CAP)

    @pytest.mark.parametrize("t", ORACLE_TYPES)
    def test_sign_read_from_the_denominator_is_det_w0(self, t):
        # det(w0) = (-1)^l(w0), and l(w0) = |positive roots|
        f = build(t).factors[0]
        ev = oracle._evaluation(f)
        ev.denominator()
        assert ev._mirror == (-1) ** len(f.positive)

    @pytest.mark.parametrize("t, sign_class", [("E6", 0), ("E6", 1), ("A2", 0), ("A2", 1)])
    def test_unmirrored_denominator_is_refused(self, t, sign_class):
        # moving one point's rho-pairing from k != -k onto 0 breaks the
        # mirror: counts[0] is 0 if det(w0) = -1, and counts[k] changes
        # while counts[-k] does not
        f = build(t).factors[0]
        ev = CoxeterEvaluation.for_factor(f)
        n = ev.conductor
        cols = ev._signed_orbit()[sign_class]
        pos = next(p for p in range(len(cols[0])) if 2 * sum(c[p] for c in cols) % n)
        _with_byte(ev, sign_class, 0, pos, (cols[0][pos] - sum(c[pos] for c in cols)) % n)
        counts = reference_signed_orbit_counts(ev, (1,) * f.rank)
        k = _first_mirror_break(counts)
        assert k is not None
        with pytest.raises(InternalCheckError, match="not mirrored") as exc:
            ev.denominator()
        assert exc.value.witness == {"factor": t, "conductor": n, "k": k, "count": counts[k],
                                     "mirror_count": counts[-k]}

    @pytest.mark.parametrize("target", [0, 6])
    @pytest.mark.parametrize("sign_class", [0, 1])
    def test_numerator_counting_a_self_mirrored_residue_is_refused(self, target, sign_class):
        # C3: N = 12 and det(w0) = -1, so residues 0 and 6 must count 0;
        # one point of a class moved onto the target residue counts +-1
        f = build("C3").factors[0]
        ev = CoxeterEvaluation.for_factor(f)
        ev.denominator()
        assert (ev.conductor, ev._mirror) == (12, -1)
        mu = (1, 2, 1)
        cols = ev._signed_orbit()[sign_class]
        pos = next(p for p in range(len(cols[0]))
                   if sum(m * c[p] for m, c in zip(mu, cols)) % 12 not in (0, 6))
        pairing = sum(m * c[pos] for m, c in zip(mu, cols))
        _with_byte(ev, sign_class, 0, pos, (cols[0][pos] + target - pairing) % 12)
        with pytest.raises(InternalCheckError, match=f"residue {target} = -{target} mod 12") as exc:
            ev.signed_orbit_counts(mu)
        assert exc.value.witness == {"factor": "C3", "conductor": 12, "mu": list(mu),
                                     "k": target, "count": 1 - 2 * sign_class}


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
        # B3: |W_{<=1}| = |W(A2)| = 6, so a dropped last block loses 6 points
        real_tree = oracle._coset_tree

        def lossy(cartan, k):
            tree = real_tree(cartan, k)
            return tree[:-1] if k == 2 else tree

        monkeypatch.setattr(oracle, "_coset_tree", lossy)
        with pytest.raises(InternalCheckError, match="orbit size 42 != Weyl order 48") as exc:
            char_at_coxeter_oracle(build("B3"), (1, 0, 2))
        assert exc.value.witness == {"factor": "B3", "orbit_size": 42, "weyl_order": 48}

    def test_singular_start_is_refused(self):
        f = build("A2").factors[0]
        with pytest.raises(InternalCheckError, match="not strictly dominant") as exc:
            oracle._build_signed_orbit(f, (1, 2), 9)  # <alpha_1, x> = 0
        assert exc.value.witness == {"factor": "A2", "start": [1, 2], "pairings": [0, 3]}

    @pytest.mark.parametrize("t", ["A2", "B3", "G2", "D4", "F4"])
    def test_wrong_reflection_is_refused(self, monkeypatch, t):
        # the first block of the last level reflected by s_1 instead of
        # s_r: the right size, but s_1 fixes the sum of the W_{<r}-orbit
        # and s_r does not
        real_tree = oracle._coset_tree
        f = build(t).factors[0]

        def misdirected(cartan, k):
            tree = real_tree(cartan, k)
            if k == f.rank - 1:
                parent, j = tree[0]
                assert j == k
                tree[0] = (parent, 0)
            return tree

        monkeypatch.setattr(oracle, "_coset_tree", misdirected)
        ev = CoxeterEvaluation.for_factor(f)
        with pytest.raises(InternalCheckError, match="sums to"):
            oracle._build_signed_orbit(f, ev.weight_exponents, ev.conductor)

    @pytest.mark.parametrize("t", ["A2", "B3", "G2", "D4", "F4"])
    @pytest.mark.parametrize("mutant", ["dropped neighbour", "doubled multipliers"])
    def test_wrong_byte_reflection_is_refused(self, monkeypatch, t, mutant):
        # the build's reflections are its only calls of the kernel: one
        # that drops the last neighbour term of x_j, or doubles every
        # multiplier, leaves a reflected column whose residues do not
        # add up to its block's exact sum mod N
        real_residues = oracle._byte_residues
        mutants = {
            "dropped neighbour": lambda n, terms, size: real_residues(n, terms[:-1], size),
            "doubled multipliers": lambda n, terms, size: real_residues(
                n, [(2 * m, col) for m, col in terms], size
            ),
        }
        monkeypatch.setattr(oracle, "_byte_residues", mutants[mutant])
        ev = CoxeterEvaluation.for_factor(build(t).factors[0])
        with pytest.raises(InternalCheckError, match="residues summing to"):
            oracle._build_signed_orbit(ev.factor, ev.weight_exponents, ev.conductor)

    def test_exponent_that_is_not_whole_is_refused(self):
        # E6: d = 1, read at the minuscule nodes 1 and 6; an odd <omega_4, 2 rho_check>
        # would put omega_4 off the character of P/Q that those nodes give
        f = build("E6").factors[0]
        two = f.two_rho_check
        bad = f._replace(two_rho_check=two[:3] + (two[3] + 1,) + two[4:])
        with pytest.raises(InternalCheckError, match="does not clear") as exc:
            CoxeterEvaluation.for_factor(bad)
        assert exc.value.witness == {"factor": "E6", "conductor": 12,
                                     "two_rho_check": list(bad.two_rho_check)}

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
            assert bool(weyl_numerator(t, (0,) * rd.rank))

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            char_at_coxeter_oracle(build("E8"), (0,) * 8)

    def test_product_multiplies(self):
        rd = build("A1xA1")
        assert char_at_coxeter_oracle(rd, (2, 2)) == 1
        assert char_at_coxeter_oracle(rd, (2, 0)) == -1


def float_shadow(t, lam):
    """The double-precision quotient of Weyl sums that the oracle checks
    against its exact value."""
    ev = oracle._evaluation(build(t).factors[0])
    return ev.numerator(lam)[1] / ev.denominator()[1]


class TestFloatShadow:
    # char_at_coxeter_oracle returns only when its shadow agrees within 1e-6
    def test_a1(self):
        assert abs(float_shadow("A1", (2,)) - (-1)) < 1e-9
        assert abs(float_shadow("A1", (0,)) - 1) < 1e-9
        assert char_at_coxeter_oracle(build("A1"), (2,)) == -1

    def test_a2_singular(self):
        assert abs(float_shadow("A2", (1, 0))) < 1e-9
        assert char_at_coxeter_oracle(build("A2"), (1, 0)) == 0


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
