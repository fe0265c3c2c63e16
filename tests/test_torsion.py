import random
import signal
import tracemalloc
from contextlib import contextmanager
from itertools import product
from math import comb, gcd

import pytest

from coxchar import torsion
from coxchar.errors import CapExceeded
from coxchar.lattice import IntMatrix, quotient
from coxchar.rootdata import RootDatum, build, pairing
from coxchar.torsion import (
    DualityReport,
    OrbitReport,
    char_group_of_torsion,
    classify_regular_orbits,
    duality_report,
)
from coxchar.weyl import _reflect
from weyl_reference import enumerate_weyl


def torsion_points(rd, n):
    """The coweight-side presentation P_vee / n Q_vee, built independently
    of ``duality_report``: in the fundamental-coweight basis the simple
    coroots are the columns of A^T, so it is ZZ^r modulo n * A^T."""
    return quotient(rd.rank, IntMatrix.from_rows(zip(*rd.cartan)).scale(n))


class TestPresentations:
    def test_a1_examples(self):
        rd = build("A1")
        assert torsion_points(rd, 2).invariant_factors == (4,)
        assert torsion_points(rd, 1).invariant_factors == (2,)
        assert char_group_of_torsion(rd, 2).invariant_factors == (4,)

    def test_a2_order(self):
        assert torsion_points(build("A2"), 3).order == 27

    def test_b2_order(self):
        assert char_group_of_torsion(build("B2"), 4).order == 32

    def test_n1_gives_center(self):
        for t in ["A3", "B3", "D4", "G2"]:
            rd = build(t)
            assert char_group_of_torsion(rd, 1).invariant_factors == rd.center.invariant_factors

    @pytest.mark.parametrize("t", ["A1", "A3", "B2", "C3", "D4", "G2", "F4", "A1xA2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_order_formula(self, t, n):
        rd = build(t)
        expect = n**rd.rank * rd.center.order
        assert torsion_points(rd, n).order == expect
        assert char_group_of_torsion(rd, n).order == expect

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            char_group_of_torsion(build("A1"), 0)


class TestDualityReport:
    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_no_trials(self, trials):
        # zero trials would check nothing and still report passed
        with pytest.raises(ValueError, match="trials"):
            duality_report(build("A2"), 3, trials=trials)

    def test_a1_all_n(self):
        rd = build("A1")
        for n in range(1, 13):
            rep = duality_report(rd, n, trials=100)
            assert rep.passed
            assert rep.invariant_factors_weight_side == (2 * n,)

    def test_g2_trivial_center(self):
        rd = build("G2")
        for n in (2, 3, 4, 7):
            rep = duality_report(rd, n, trials=100)
            assert rep.passed
            assert rep.invariant_factors_weight_side == (n, n)

    def test_a2_n2_order(self):
        rep = duality_report(build("A2"), 2, trials=100)
        assert rep.passed
        factors = rep.invariant_factors_weight_side
        total = 1
        for d in factors:
            total *= d
        assert total == 12

    def test_e8_at_the_coxeter_number(self):
        # 30^8 classes: the certificate builds no class, so it has no bound
        rep = duality_report(build("E8"), 30, trials=10)
        assert rep.passed
        assert rep.invariant_factors_weight_side == (30,) * 8


# (type, n) -> (x, x2, reflection) of the first failing trial at seed 5,
# 300 trials, when the check runs on the wrong side or with the wrong
# reflection; every trial draws x and then m, so these pin the draw order
TRANSLATE_WITNESSES = {
    ("B2", 2): ([-4, -5], [-6, -1]),
    ("B2", 3): ([5, -2], [-4, 4]),
    ("B2", 4): ([-7, -9], [-11, -1]),
    ("B3", 2): ([1, 6, -3], [-5, 10, -7]),
    ("B3", 3): ([-1, 2, 7], [-16, 17, -5]),
    ("B3", 4): ([2, 12, -5], [-10, 20, -13]),
    ("C3", 2): ([1, 6, -3], [-5, 14, -9]),
    ("C3", 3): ([-1, 2, 7], [-16, 20, -2]),
    ("C3", 4): ([2, 12, -5], [-10, 28, -17]),
}
REFLECTION_WITNESSES = {
    ("B2", 2): ([-4, -5], [-6, -1], 1),
    ("B2", 3): ([5, -2], [-4, 4], 1),
    ("B2", 4): ([-7, -9], [-11, -1], 1),
    ("B3", 2): ([-1, 1, -3], [-1, 11, -19], 2),
    ("B3", 3): ([-1, 2, 7], [-16, 17, -5], 2),
    ("B3", 4): ([-1, 3, -5], [-1, 23, -37], 2),
    ("C3", 2): ([-1, 1, -3], [-1, 15, -15], 2),
    ("C3", 3): ([-3, 4, -1], [-12, 19, -10], 2),
    ("C3", 4): ([-1, 3, -5], [-1, 31, -29], 2),
}


def transposed_reflect(cartan, coords, j):
    """s_j with A^T in place of A: c_k -> c_k - c_j * A[j][k]."""
    cj = coords[j]
    return tuple(c - cj * cartan[j][k] for k, c in enumerate(coords))


def check_on_the_coweight_side(monkeypatch):
    """Project onto P_vee / n Q_vee, the quotient by n A^T: x2 - x = n A m
    is not in that span unless A is symmetric."""
    monkeypatch.setattr(torsion, "char_group_of_torsion", torsion_points)


def reflect_with_the_transpose(monkeypatch):
    monkeypatch.setattr(torsion, "_reflect", transposed_reflect)


class TestWellDefinedCanFail:
    @pytest.mark.parametrize("t,n", sorted(TRANSLATE_WITNESSES))
    def test_translate_branch(self, monkeypatch, t, n):
        check_on_the_coweight_side(monkeypatch)
        rep = duality_report(build(t), n, trials=300, seed=5)
        x, x2 = TRANSLATE_WITNESSES[t, n]
        assert rep.isomorphic and not rep.action_well_defined and not rep.passed
        assert rep.witness == {"x": x, "x2": x2, "reflection": None}

    @pytest.mark.parametrize("t,n", sorted(REFLECTION_WITNESSES))
    def test_reflection_branch(self, monkeypatch, t, n):
        reflect_with_the_transpose(monkeypatch)
        rep = duality_report(build(t), n, trials=300, seed=5)
        x, x2, j = REFLECTION_WITNESSES[t, n]
        assert rep.isomorphic and not rep.action_well_defined and not rep.passed
        assert rep.witness == {"x": x, "x2": x2, "reflection": j}


SIMPLE_TYPES_TO_RANK_8 = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{x}{r}" for x in "BC" for r in range(2, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


class TestClassify:
    def test_a1_n2(self):
        o = classify_regular_orbits(build("A1"), 2)
        assert o.total_classes == 4
        assert o.regular_classes == 2
        assert o.regular_orbits == 1
        assert o.regular_orbits_with_image_order_n == 1
        assert o.rho_in_distinguished_orbit

    def test_a2_n3(self):
        o = classify_regular_orbits(build("A2"), 3)
        assert o.total_classes == 27
        assert o.regular_orbits_with_image_order_n == 1
        assert o.rho_in_distinguished_orbit

    def test_n1_nothing_regular(self):
        for t in ["A1", "B2", "G2"]:
            o = classify_regular_orbits(build(t), 1)
            assert o.regular_orbits == 0
            assert not o.rho_in_distinguished_orbit

    def test_below_coxeter_number_no_distinguished_orbit(self):
        # at n < h every class pairs to zero mod n with some coroot
        o = classify_regular_orbits(build("A2"), 2)
        assert o.regular_orbits == 0

    def test_e8_at_the_coxeter_number(self):
        # 30^8 classes, counted from the alcove alone
        o = classify_regular_orbits(build("E8"), 30)
        assert o.total_classes == 30**8
        assert o.regular_orbits_with_image_order_n == 1
        assert o.rho_in_distinguished_orbit

    @pytest.mark.parametrize("t,n", [("A1", 10**6), ("A2", 5 * 10**5), ("E8", 125_000)])
    def test_census_at_the_table_limit(self, t, n):
        # rank * n = 10^6: one table of n entries per factor
        rd = build(t)
        with time_budget(5):
            o = classify_regular_orbits(rd, n)
        assert o.total_classes == n**rd.rank * rd.center.order
        assert o.regular_orbits > 0

    @pytest.mark.parametrize("t,n", [("A1", 10**6 + 1), ("E8", 125_001)])
    def test_census_refused_past_the_table_limit(self, t, n):
        with pytest.raises(CapExceeded, match=f"rank \\* n = {build(t).rank * n} exceeds"):
            classify_regular_orbits(build(t), n)

    @pytest.mark.parametrize("t", ["A2", "B3", "G2", "D4", "A1xA1"])
    def test_rho_moved_off_the_distinguished_orbit(self, monkeypatch, t):
        # at n = h every regular class lies in the orbit of [rho], so the
        # classes off it are singular; a census that reads one of them in
        # place of rho still finds one distinguished orbit, without rho
        rd = build(t)
        n = rd.factors[0].coxeter_number
        assert classify_regular_orbits(rd, n).rho_in_distinguished_orbit
        for moved in [(0,) * rd.rank, (0,) + (1,) * (rd.rank - 1)]:
            monkeypatch.setattr(RootDatum, "rho", property(lambda self: moved))
            o = classify_regular_orbits(rd, n)
            assert o.regular_orbits_with_image_order_n == 1
            assert not o.rho_in_distinguished_orbit

    @pytest.mark.parametrize("t,n", [("D5", 8), ("B5", 10), ("C5", 10), ("A6", 7)])
    def test_census_near_the_cap(self, t, n):
        # 131,072 / 200,000 / 200,000 / 823,543 classes: one free regular orbit
        rd = build(t)
        o = classify_regular_orbits(rd, n)
        assert o.total_classes == n**rd.rank * rd.center.order
        assert o.regular_orbits == 1
        assert o.regular_classes == rd.weyl_order
        assert o.regular_orbits_with_image_order_n == 1
        assert o.rho_in_distinguished_orbit

    def test_a1_at_the_cap_within_budget(self):
        # Z/2n with n = 31 * 127^2: k is regular unless n | k, orbits {k, -k},
        # and the orbit has image order n when gcd(k, n) = 1
        n = 499_999
        with time_budget(5):
            o = classify_regular_orbits(build("A1"), n)
        assert o.total_classes == 2 * n
        assert o.regular_classes == 2 * n - 2
        assert o.regular_orbits == n - 1
        assert o.regular_orbits_with_image_order_n == 30 * 127 * 126
        assert not o.rho_in_distinguished_orbit

    def test_a2_at_the_cap_within_budget(self):
        # n = 577 is prime to 3, so P/nQ = P/nP x P/Q; in fundamental-weight
        # coordinates (a, b) mod n the coroots pair to a, b and a + b
        n = 577
        with time_budget(5):
            o = classify_regular_orbits(build("A2"), n)
        assert o.total_classes == 3 * n**2
        assert o.regular_classes == 3 * (n - 1) * (n - 2)
        assert o.regular_orbits == o.regular_classes // 6
        assert o.regular_orbits_with_image_order_n == o.regular_orbits
        assert not o.rho_in_distinguished_orbit

    @pytest.mark.parametrize("t,n", [("A1", 10_007), ("A2", 83)])
    def test_memory_is_a_few_bytes_per_class(self, t, n):
        # nearly every class is regular here; the count keeps one table of
        # n - h + 1 entries per factor and nothing per class of P/nQ
        rd = build(t)
        tracemalloc.start()
        try:
            o = classify_regular_orbits(rd, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert o.regular_classes > o.total_classes // 2
        assert peak <= 16 * o.total_classes

    @pytest.mark.parametrize("t", SIMPLE_TYPES_TO_RANK_8)
    def test_one_free_regular_orbit_at_the_coxeter_number(self, t):
        # at n = h the open alcove holds rho alone; E8 has 30^8 classes,
        # counted without enumerating any
        rd = build(t)
        h = rd.factors[0].coxeter_number
        with time_budget(1):
            o = classify_regular_orbits(rd, h)
        assert o.total_classes == h**rd.rank * rd.center.order
        assert o.regular_classes == rd.weyl_order
        assert o.regular_orbits == 1
        assert o.regular_orbits_with_image_order_n == 1
        assert o.rho_in_distinguished_orbit

    @pytest.mark.parametrize("r", range(1, 9))
    def test_type_a_orbits_are_binomial(self, r):
        # every c_i is 1: the mu >= 1 with sum mu_i <= n - 1 number C(n - 1, r)
        rd = build(f"A{r}")
        for n in range(1, 3 * (r + 1) + 10):
            o = classify_regular_orbits(rd, n)
            assert o.regular_orbits == comb(n - 1, r), n
            assert o.regular_classes == rd.weyl_order * comb(n - 1, r), n


@contextmanager
def time_budget(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_classify(rd, n):
    """Weight-coordinate BFS over every W-orbit of P/nQ, singular or not."""
    group = char_group_of_torsion(rd, n)
    coroots = [p.coroot for p in rd.positive_roots()]
    rho_key = group.project(rd.rho)
    seen = set()
    total = regular_classes = regular_orbits = distinguished = 0
    rho_in_distinguished = False
    for residues in product(*(range(d) for d in group.invariant_factors)):
        total += 1
        if residues in seen:
            continue
        rep = group.section(residues)
        orbit = {residues}
        frontier = [rep]
        while frontier:
            x = frontier.pop()
            for j in range(rd.rank):
                y = _reflect(rd.cartan, x, j)
                key = group.project(y)
                if key not in orbit:
                    orbit.add(key)
                    frontier.append(y)
        seen |= orbit
        if all(pairing(rep, c) % n != 0 for c in coroots):
            regular_classes += len(orbit)
            regular_orbits += 1
            if gcd(n, *rep) == 1:
                distinguished += 1
                rho_in_distinguished |= rho_key in orbit
    assert total == group.order
    return OrbitReport(
        type_string=rd.type_string,
        n=n,
        total_classes=total,
        regular_classes=regular_classes,
        regular_orbits=regular_orbits,
        regular_orbits_with_image_order_n=distinguished,
        rho_in_distinguished_orbit=rho_in_distinguished and distinguished == 1,
    )


DIFFERENTIAL_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4",
    "A1xA1", "A2xG2", "B2xA1",
]


@pytest.mark.parametrize("t", DIFFERENTIAL_TYPES)
def test_classify_matches_reference(t):
    rd = build(t)
    h = max(f.coxeter_number for f in rd.factors)
    checked = 0
    for n in range(1, h + 3):
        if n**rd.rank * rd.center.order > 60_000:
            continue
        assert classify_regular_orbits(rd, n) == reference_classify(rd, n), n
        checked += 1
    assert checked >= h


@pytest.mark.parametrize("t", ["E8", "F4", "G2"])
def test_trivial_group_at_n1(t):
    rd = build(t)
    assert char_group_of_torsion(rd, 1).invariant_factors == ()
    o = classify_regular_orbits(rd, 1)
    assert o == reference_classify(rd, 1)
    assert (o.total_classes, o.regular_classes, o.regular_orbits) == (1, 0, 0)


def bump_highest_coroot(rd, k, i):
    """``rd`` with coefficient i of the highest coroot of factor k raised by 1."""
    f = rd.factors[k]
    c = list(f.highest_coroot.coroot)
    c[i] += 1
    bumped = f._replace(highest_coroot=f.highest_coroot._replace(coroot=tuple(c)))
    return rd._replace(factors=rd.factors[:k] + (bumped,) + rd.factors[k + 1 :])


@pytest.mark.parametrize("t,i", [("B3", 0), ("B3", 2), ("G2", 1), ("A1xA1", 0)])
def test_a_bumped_highest_coroot_disagrees_with_the_reference(t, i):
    # the count reads only the highest coroots, so the differential check
    # above must catch one wrong coefficient: at n = h the alcove is empty
    rd = build(t)
    n = rd.factors[0].coxeter_number
    assert classify_regular_orbits(rd, n) == reference_classify(rd, n)
    o = classify_regular_orbits(bump_highest_coroot(rd, 0, i), n)
    assert o != reference_classify(rd, n)
    assert o.regular_orbits == 0


class TestRegularityIsWeylInvariant:
    @pytest.mark.parametrize("t,n", [("A2", 3), ("B2", 4), ("G2", 6), ("A1xA1", 2)])
    def test_orbitwise_constant(self, t, n):
        rd = build(t)
        coroots = [p.coroot for p in rd.positive_roots()]

        def regular(x):
            return all(pairing(x, c) % n != 0 for c in coroots)

        rng = random.Random(5)
        els = list(enumerate_weyl(rd))
        for _ in range(40):
            x = tuple(rng.randrange(0, 3 * n) for _ in range(rd.rank))
            rx = regular(x)
            for el in els:
                assert regular(el.matrix.apply(x)) == rx


def reference_duality_report(rd, n, trials=1000, seed=0, reflect=_reflect):
    """One trial at a time on weight-coordinate tuples, each projected by
    ``FiniteAbelianGroup.project``."""
    tp = torsion_points(rd, n)
    cg = torsion.char_group_of_torsion(rd, n)
    rng = random.Random(seed)
    witness = None
    r = rd.rank
    for _ in range(trials):
        x = tuple(rng.randrange(-3 * n, 3 * n + 1) for _ in range(r))
        m = tuple(rng.randrange(-2, 3) for _ in range(r))
        shift = rd.cartan.apply(m)
        x2 = tuple(a + n * b for a, b in zip(x, shift))
        if cg.project(x) != cg.project(x2):
            witness = {"x": list(x), "x2": list(x2), "reflection": None}
            break
        for j in range(r):
            if cg.project(reflect(rd.cartan, x, j)) != cg.project(reflect(rd.cartan, x2, j)):
                witness = {"x": list(x), "x2": list(x2), "reflection": j + 1}
                break
        if witness is not None:
            break
    return DualityReport(
        type_string=rd.type_string,
        n=n,
        invariant_factors_coweight_side=tp.invariant_factors,
        invariant_factors_weight_side=cg.invariant_factors,
        isomorphic=tp.invariant_factors == cg.invariant_factors,
        action_well_defined=witness is None,
        trials=trials,
        witness=witness,
    )


# trial counts and first failures on either side of trial 256, and deep
# past it, pin the draw order over long runs
CHUNK = 256
TRIAL_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 1000]
DUALITY_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
    "D4", "D5", "G2", "F4", "E6", "A1xA2", "B2xG2",
]


def ns_under_the_cap(rd):
    return [n for n in range(1, 13) if n**rd.rank * rd.center.order <= 10**6]


@pytest.mark.parametrize("t", DUALITY_TYPES)
def test_duality_report_matches_reference(t):
    rd = build(t)
    for n in ns_under_the_cap(rd):
        for i, trials in enumerate(TRIAL_COUNTS):
            seed = 7 * n + i
            rep = duality_report(rd, n, trials=trials, seed=seed)
            assert rep.as_dict() == reference_duality_report(rd, n, trials, seed).as_dict()
            assert rep.passed, (n, trials, rep.witness)


class QuietRandom(random.Random):
    """random.Random whose m draws come out 0 (x2 = x, so nothing can
    fail) for the first ``quiet`` trials; the stream is consumed as usual."""

    quiet = 0

    def seed(self, *args, **kwargs):
        self.m_draws = 0
        super().seed(*args, **kwargs)

    def randrange(self, start, stop=None, step=1):
        value = super().randrange(start, stop, step)
        if (start, stop) == (-2, 3):
            self.m_draws += 1
            if self.m_draws <= self.quiet:
                return 0
        return value


@pytest.mark.parametrize("patch", [check_on_the_coweight_side, reflect_with_the_transpose])
@pytest.mark.parametrize("t", ["B2", "B3", "C3", "B2xG2"])
def test_failing_reports_match_reference(monkeypatch, patch, t):
    # the first failure lands at the first trial, on either side of trial
    # CHUNK, and deep past it
    rd = build(t)
    patch(monkeypatch)
    reflect = transposed_reflect if patch is reflect_with_the_transpose else _reflect
    monkeypatch.setattr(random, "Random", QuietRandom)
    kinds = set()
    for n in range(1, 13):
        for quiet in [0, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK // 2]:
            QuietRandom.quiet = quiet * rd.rank
            rep = duality_report(rd, n, trials=1000, seed=n)
            assert rep.as_dict() == reference_duality_report(rd, n, 1000, n, reflect).as_dict()
            kinds.add(rep.witness and rep.witness["reflection"] is None)
    # every run fails: the coweight side on translates, the transpose on reflections
    assert None not in kinds and (patch is check_on_the_coweight_side) in kinds


def test_far_reflection_gets_a_witness(monkeypatch):
    # the transposed reflection fails the certificate, so the trials run;
    # scaled far past any coordinate bound, it still yields the reference's
    # witness, since each trial is projected as plain weight vectors
    def far_reflect(cartan, coords, j):
        return [1001 * c for c in transposed_reflect(cartan, coords, j)]

    monkeypatch.setattr(torsion, "_reflect", far_reflect)
    rd = build("B3")
    rep = duality_report(rd, 4, trials=10)
    assert rep.witness is not None
    assert rep.as_dict() == reference_duality_report(rd, 4, 10, reflect=far_reflect).as_dict()


def test_memory_does_not_grow_with_trials(monkeypatch):
    # the coweight side fails the certificate and every m draw is 0, so
    # every trial is drawn and passes
    rd = build("B3")
    check_on_the_coweight_side(monkeypatch)
    monkeypatch.setattr(random, "Random", QuietRandom)
    monkeypatch.setattr(QuietRandom, "quiet", 20_000 * rd.rank)

    def peak(trials):
        tracemalloc.start()
        try:
            rep = duality_report(rd, 5, trials=trials, seed=1)
            assert not rep.action_well_defined and rep.witness is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2_000)  # warm the caches and buffers the first long run fills once
    assert peak(20_000) <= 2 * peak(2_000)


@pytest.mark.parametrize("patch", [check_on_the_coweight_side, reflect_with_the_transpose])
@pytest.mark.parametrize("t", ["B2", "B3", "C3"])
def test_certificate_catches_what_the_trials_miss(monkeypatch, patch, t):
    # every m draw is 0, so x2 = x and no trial can fail
    rd = build(t)
    patch(monkeypatch)
    monkeypatch.setattr(random, "Random", QuietRandom)
    monkeypatch.setattr(QuietRandom, "quiet", 300 * rd.rank)
    for n in (2, 3, 4):
        rep = duality_report(rd, n, trials=300, seed=5)
        assert rep.isomorphic
        assert not rep.action_well_defined and not rep.passed
        assert rep.witness is None


class NoDraws(random.Random):
    def randrange(self, *args, **kwargs):
        raise AssertionError("a passing duality report drew a trial")


@pytest.mark.parametrize(
    "t,ns", [(t, range(1, 13)) for t in DUALITY_TYPES] + [("E8", [30]), ("A16", [2])]
)
def test_passing_reports_draw_nothing(monkeypatch, t, ns):
    monkeypatch.setattr(random, "Random", NoDraws)
    rd = build(t)
    for n in ns:
        assert duality_report(rd, n, trials=1000, seed=n).passed, n


def bumped_char_group(rd, n):
    """The quotient by n * A with entry (0, 0) raised by 1."""
    rows = [list(row) for row in rd.cartan.scale(n)]
    rows[0][0] += 1
    return quotient(rd.rank, IntMatrix.from_rows(rows))


@pytest.mark.parametrize("t", ["A1", "A2", "B3", "G2", "A1xA2"])
def test_a_bumped_weight_side_is_not_isomorphic(monkeypatch, t):
    # the coweight side is read from the center, so a wrong weight-side
    # Smith form shows against it
    rd = build(t)
    monkeypatch.setattr(torsion, "char_group_of_torsion", bumped_char_group)
    for n in (1, 2, 3):
        rep = duality_report(rd, n, trials=50)
        assert rep.invariant_factors_coweight_side == torsion_points(rd, n).invariant_factors
        assert not rep.isomorphic, n
