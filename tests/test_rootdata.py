from math import factorial

import pytest

from coxchar import rootdata
from coxchar.errors import InternalCheckError
from coxchar.lattice import IntMatrix
from coxchar.rootdata import RootPair, build, pairing, parse_cartan_type
from weyl_reference import det

ALL_SIMPLE = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


class TestParse:
    def test_simple(self):
        assert str(parse_cartan_type("A1")) == "A1"
        assert str(parse_cartan_type("E8")) == "E8"

    def test_product(self):
        ct = parse_cartan_type("A1xB3xG2")
        assert ct.factors == (("A", 1), ("B", 3), ("G", 2))

    @pytest.mark.parametrize(
        "bad", ["", "A0", "B1", "C1", "D3", "D2", "E5", "E9", "F5", "G3", "H2", "a1", "A1y B2", "A1x"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cartan_type(bad)


class TestBuildExamples:
    def test_a1(self):
        rd = build("A1")
        assert rd.rank == 1
        assert rd.coxeter_numbers == (2,)
        assert rd.num_positive_roots == 1
        assert rd.center.invariant_factors == (2,)

    def test_g2(self):
        rd = build("G2")
        assert rd.coxeter_numbers == (6,)
        assert rd.num_positive_roots == 6
        assert rd.center.invariant_factors == ()

    def test_c3_rho_pairings(self):
        rd = build("C3")
        assert rd.rho == (1, 1, 1)
        for p in rd.positive_roots():
            if p.height == 1:  # simple roots
                assert pairing(rd.rho, p.coroot) == 1

    def test_a2_positive_roots(self):
        rd = build("A2")
        assert sorted(p.simple_coords for p in rd.positive_roots()) == [
            (0, 1), (1, 0), (1, 1)]

    def test_a1_root_is_twice_omega(self):
        (p,) = build("A1").positive_roots()
        assert p.root == (2,)

    def test_b2_roots_and_highest_coroot(self):
        rd = build("B2")
        assert rd.num_positive_roots == 4
        assert rd.factors[0].highest_coroot.coroot_height == 3  # h - 1


class TestCoxeterNumbers:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_family(self, n):
        assert build(f"A{n}").coxeter_numbers == (n + 1,)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_b_family(self, n):
        # shared with the odd orthogonal group on the dual side
        assert build(f"B{n}").coxeter_numbers == (2 * n,)
        assert build(f"C{n}").coxeter_numbers == (2 * n,)

    def test_exceptional(self):
        assert build("E8").coxeter_numbers == (30,)
        assert build("E7").coxeter_numbers == (18,)
        assert build("E6").coxeter_numbers == (12,)
        assert build("F4").coxeter_numbers == (12,)


class TestCenters:
    def test_d4(self):
        assert build("D4").center.invariant_factors == (2, 2)

    def test_d5(self):
        assert build("D5").center.invariant_factors == (4,)

    def test_e8_trivial(self):
        assert build("E8").center.invariant_factors == ()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_family(self, n):
        assert build(f"A{n}").center.invariant_factors == (n + 1,)

    @pytest.mark.parametrize("family, rank", [("A", 2), ("D", 4), ("E", 8)])
    def test_build_rejects_a_center_of_the_wrong_order(self, monkeypatch, family, rank):
        # the Smith form of 2A has order 2^r |P/Q|, never 1 + #{i : c_i = 1};
        # __wrapped__ runs the build past the factor cache
        smith = rootdata.quotient
        monkeypatch.setattr(rootdata, "quotient", lambda r, basis: smith(r, basis.scale(2)))
        with pytest.raises(InternalCheckError, match=r"\|P/Q\| != 1 \+ #\{i : c_i = 1\}") as exc:
            rootdata._build_factor.__wrapped__(family, rank)
        cartan = IntMatrix.from_rows(rootdata._cartan(family, rank))
        order = abs(det(cartan))
        assert exc.value.witness == {
            "factor": f"{family}{rank}",
            "identity": "|P/Q| = 1 + #{i : c_i = 1} for the highest coroot c",
            "lhs": 2**rank * order,
            "rhs": order,
        }


class TestInvariants:
    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_rho_pairs_to_one_with_simple_coroots(self, t):
        rd = build(t)
        simple = [p for p in rd.positive_roots() if p.height == 1]
        assert len(simple) == rd.rank
        for p in simple:
            assert pairing(rd.rho, p.coroot) == 1

    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_num_roots_is_rank_times_h(self, t):
        rd = build(t)
        assert 2 * rd.num_positive_roots == rd.rank * rd.coxeter_numbers[0]

    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_center_order_is_det_cartan(self, t):
        rd = build(t)
        assert rd.center.order == abs(det(rd.cartan))

    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_highest_coroot_height(self, t):
        f = build(t).factors[0]
        assert f.highest_coroot.coroot_height == f.coxeter_number - 1

    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_rho_is_the_only_integral_point_of_the_open_alcove(self, t):
        # x_j >= 1 and <x, beta_vee> < h for every positive coroot, found
        # by a depth-first search that fills coordinates left to right and
        # prunes as soon as the unfilled ones, all at their least value 1,
        # push some pairing up to h
        coroots = [p.coroot for p in build(t).positive_roots()]
        r = len(coroots[0])
        h = 2 * len(coroots) // r
        points = []

        def fill(prefix):
            if len(prefix) == r:
                points.append(tuple(prefix))
                return
            x = 1
            while all(pairing(prefix + [x] + [1] * (r - len(prefix) - 1), c) < h for c in coroots):
                fill(prefix + [x])
                x += 1

        fill([])
        assert points == [(1,) * r]

    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_every_root_pairs_two_with_own_coroot(self, t):
        for p in build(t).positive_roots():
            assert pairing(p.root, p.coroot) == 2

    @pytest.mark.parametrize("t", ["A3", "B3", "C3", "D4", "F4", "G2"])
    def test_closure_is_closed(self, t):
        # re-running string closure on the output adds nothing
        f = build(t).factors[0]
        a = f.cartan
        r = f.rank
        roots = {p.simple_coords for p in f.positive}
        for b in roots:
            for i in range(r):
                pair = sum(a[i][j] * b[j] for j in range(r))
                p = 0
                probe = list(b)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    p += 1
                up = list(b)
                up[i] += 1
                if p - pair >= 1:
                    assert tuple(up) in roots
                else:
                    assert tuple(up) not in roots


def reference_lengths(family, rank):
    """Half the squared length of each simple root: 1 short, ratio long."""
    return {
        "B": [2] * (rank - 1) + [1],
        "C": [1] * (rank - 1) + [2],
        "F": [2, 2, 1, 1],
        "G": [1, 3],
    }.get(family, [1] * rank)


def reference_positive_roots(a, d):
    """Positive roots by string closure in simple coordinates, with each
    coroot from the squared lengths: beta_vee = sum_j b_j (d_j / d_beta)
    alpha_j_vee, where (beta, beta) = 2 d_beta."""
    rank = len(a)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for b in layer:
            for i in range(rank):
                pairing_i = sum(a[i][j] * b[j] for j in range(rank))
                p = 0
                probe = list(b)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in known:
                        break
                    p += 1
                if p - pairing_i >= 1:
                    up = list(b)
                    up[i] += 1
                    if tuple(up) not in known:
                        known.add(tuple(up))
                        nxt.append(tuple(up))
        layer = nxt
    gram = [[a[k][j] * d[k] for k in range(rank)] for j in range(rank)]  # (alpha_j, alpha_k)
    pairs = []
    for b in sorted(known, key=lambda t: (sum(t), t)):
        len2 = sum(b[j] * b[k] * gram[j][k] for j in range(rank) for k in range(rank))
        assert len2 % 2 == 0
        coroot = []
        for j in range(rank):
            q, r = divmod(b[j] * d[j], len2 // 2)
            assert r == 0
            coroot.append(q)
        fw = tuple(sum(a[i][j] * b[j] for j in range(rank)) for i in range(rank))
        pairs.append(RootPair(root=fw, simple_coords=b, coroot=tuple(coroot)))
    return pairs


class TestRootTable:
    @pytest.mark.parametrize("t", ALL_SIMPLE + ["A20", "B12", "C12", "D13"])
    def test_matches_string_closure(self, t):
        f = build(t).factors[0]
        a = [list(f.cartan[i]) for i in range(f.rank)]
        d = reference_lengths(f.family, f.rank)
        assert f.positive == tuple(reference_positive_roots(a, d))

    @pytest.mark.parametrize("t", ALL_SIMPLE)
    def test_weyl_order_closed_form(self, t):
        f = build(t).factors[0]
        n = f.rank
        expected = {
            "A": factorial(n + 1),
            "B": 2**n * factorial(n),
            "C": 2**n * factorial(n),
            "D": 2 ** (n - 1) * factorial(n),
            "E": {6: 51840, 7: 2903040, 8: 696729600}.get(n),
            "F": 1152,
            "G": 12,
        }[f.family]
        assert f.weyl_order == expected


class TestBourbakiMatrices:
    def test_b2(self):
        assert build("B2").cartan == IntMatrix.from_rows([[2, -1], [-2, 2]])

    def test_c2(self):
        assert build("C2").cartan == IntMatrix.from_rows([[2, -2], [-1, 2]])

    def test_g2(self):
        assert build("G2").cartan == IntMatrix.from_rows([[2, -3], [-1, 2]])

    def test_f4(self):
        assert build("F4").cartan == IntMatrix.from_rows(
            [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
        )

    def test_e8_node_two_hangs_off_node_four(self):
        a = build("E8").cartan
        assert a[1][3] == a[3][1] == -1
        assert a[0][2] == a[2][0] == -1
        assert a[0][1] == a[1][0] == 0


class TestProducts:
    def test_concatenation(self):
        rd = build("A1xA1")
        assert rd.rank == 2
        assert rd.coxeter_numbers == (2, 2)
        assert rd.rho == (1, 1)
        assert rd.center.order == 4

    def test_mixed_product(self):
        rd = build("A2xB2")
        assert rd.coxeter_numbers == (3, 4)
        assert rd.num_positive_roots == 3 + 4
        assert rd.center.order == 3 * 2
        assert [p.coroot for p in rd.positive_roots()][0][2:] == (0, 0)

    def test_embed(self):
        rd = build("A1xA2")
        assert rd.embed(1, (5, 7)) == (0, 5, 7)
        assert rd.factor_slice(1) == slice(1, 3)


class TestPairing:
    def test_zero_weight(self):
        assert pairing((0, 0), (3, 4)) == 0

    def test_a2_example(self):
        # <omega1 + omega2, coroot of alpha1 + alpha2> = 2
        rd = build("A2")
        theta = [p for p in rd.positive_roots() if p.height == 2][0]
        assert pairing((1, 1), theta.coroot) == 2

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            pairing((1,), (1, 2))


class TestWeightValidation:
    def test_length(self):
        with pytest.raises(ValueError):
            build("A2").validate_weight((1,))

    def test_dominance(self):
        with pytest.raises(ValueError):
            build("A2").validate_weight((1, -1), dominant=True)
