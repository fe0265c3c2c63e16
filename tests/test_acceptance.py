"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Everything asserts exact equality; the only tolerances are the
float-shadow guards (1e-6, pinned here and inside the oracle).
"""

import itertools
import random
import time

import pytest

from coxchar.character import (
    char_at_coxeter,
    coxeter_lift_order,
    fs_indicator,
    regularity_test,
    rho_central_character,
    verify_principal_cocharacter,
)
from coxchar.cyclotomic import CyclotomicInt, cyclotomic_polynomial, divide_exact
from coxchar.oracle import _evaluation, char_at_coxeter_oracle
from coxchar.rootdata import build
from coxchar.torsion import classify_regular_orbits, duality_report
from weyl_reference import reference_signed_orbit_counts

CRITERION_1_TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D4", "G2", "F4",
]

RANK_LE_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

RANK_LE_4 = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D4", "F4", "G2",
]


def dominant_weights_with_sum_at_most(rank: int, bound: int):
    """All nonnegative integer tuples of the given length with sum <= bound."""
    if rank == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in dominant_weights_with_sum_at_most(rank - 1, bound - head):
            yield (head,) + tail


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {n}: PASS  ({text})")


@pytest.fixture(scope="module", autouse=True)
def prebuilt_data():
    # share root datum construction across criteria so timed sections
    # measure the checks, not the table building
    for t in RANK_LE_8:
        build(t)


def test_criterion_1_theorem_range_and_oracle_agreement():
    started = time.monotonic()
    checked = 0
    for t in CRITERION_1_TYPES:
        rd = build(t)
        for lam in dominant_weights_with_sum_at_most(rd.rank, 4):
            fast = char_at_coxeter(rd, lam).value
            assert fast in (-1, 0, 1)
            slow = char_at_coxeter_oracle(rd, lam)
            assert fast == slow, (t, lam, fast, slow)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"criterion 1 took {elapsed:.1f}s, budget is 5 minutes"
    report(1, f"{checked} weights across {len(CRITERION_1_TYPES)} types, {elapsed:.1f}s")


def test_criterion_2_e6_scaling():
    rd = build("E6")
    rng = random.Random(20240601)
    started = time.monotonic()
    for _ in range(100):
        lam = tuple(rng.randint(0, 5) for _ in range(6))
        fast = char_at_coxeter(rd, lam).value
        assert fast == char_at_coxeter_oracle(rd, lam)
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"E6 sweep took {elapsed:.1f}s, budget is 10 minutes"
    report(2, f"E6: 100 random weights vs oracle, {elapsed:.1f}s")


def test_criterion_2_e7_sweep():
    rd = build("E7")
    rng = random.Random(20240602)
    started = time.monotonic()
    for _ in range(3):
        lam = tuple(rng.randint(0, 3) for _ in range(7))
        assert char_at_coxeter(rd, lam).value == char_at_coxeter_oracle(rd, lam)
    elapsed = time.monotonic() - started
    # the last weight's histogram against multiply-add and Counter
    ev = _evaluation(rd.factors[0])
    mu = tuple(c + 1 for c in lam)
    assert ev.signed_orbit_counts(mu) == reference_signed_orbit_counts(ev, mu)
    assert elapsed < 60, f"E7 sweep took {elapsed:.1f}s, budget is 1 minute"
    report(2, f"E7: 3 random weights vs oracle, {elapsed:.1f}s")


def test_criterion_2_e8_fast_path():
    # regular weights are sparse for E8 (120 pairing constraints mod 30);
    # small coordinates give the best density, about 1 in 300
    rd = build("E8")
    rng = random.Random(20240603)
    started = time.monotonic()
    regular_found = 0
    sampled = 0
    while regular_found < 1000:
        lam = tuple(rng.randint(0, 5) for _ in range(8))
        sampled += 1
        assert sampled < 2_000_000, "regular weights should not be this rare"
        if not regularity_test(rd, lam)[0]:
            continue
        regular_found += 1
        rep = char_at_coxeter(rd, lam)
        assert rep.value in (-1, 1)
        assert rep.endpoint_is_rho is True
    elapsed = time.monotonic() - started
    assert elapsed < 15, f"E8 fast path took {elapsed:.1f}s, budget is 15 s"
    report(2, f"E8: 1000 regular weights fast-path ({sampled} sampled), {elapsed:.1f}s")


def test_criterion_3_closed_form_families():
    rd = build("A1")
    values = [char_at_coxeter(rd, (k,)).value for k in range(16)]
    assert values == [1, 0, -1, 0] * 4
    oracle_values = [char_at_coxeter_oracle(rd, (k,)) for k in range(16)]
    assert oracle_values == values

    rd2 = build("A2")
    assert char_at_coxeter(rd2, (1, 0)).value == 0
    assert char_at_coxeter(rd2, (0, 1)).value == 0
    assert char_at_coxeter(rd2, (1, 1)).value == -1  # trace of the adjoint at the
    # regular order-3 torus element: 2 + 3(omega + omega^2) = -1
    assert char_at_coxeter_oracle(rd2, (1, 1)) == -1
    report(3, "A1 cycle (1,0,-1,0); A2 standard 0, adjoint -1")


def test_criterion_4_symplectic_and_spin_rules():
    for n in range(2, 10):
        cc = rho_central_character(build(f"C{n}"))
        expect_nontrivial = n % 4 in (1, 2)  # the (-1)^(n(n+1)/2) rule
        assert (cc.order == 2) == expect_nontrivial, (n, cc)
    for n in range(2, 10):
        lam = (0,) * (n - 1) + (1,)
        fs = fs_indicator(build(f"B{n}"), lam)
        assert fs == (1 if n % 4 in (0, 3) else -1), (n, fs)
    report(4, "C2..C9 central character rule; B2..B9 spin-representation rule")


def test_criterion_5_principal_cocharacter_suite():
    started = time.monotonic()
    for t in RANK_LE_8:
        rd = build(t)
        simple = [p for p in rd.positive_roots() if p.height == 1]
        assert len(simple) == rd.rank
        for p in simple:
            assert sum(a * b for a, b in zip(rd.rho, p.coroot)) == 1
        for rep in verify_principal_cocharacter(rd):
            assert rep.rho_pairings_all_one
            assert rep.adjoint_order == rep.coxeter_number
            assert rep.regular
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 5 took {elapsed:.3f}s, budget is 1 second"
    report(5, f"{len(RANK_LE_8)} types, {elapsed * 1000:.0f}ms")


def test_criterion_6_lift_order_biconditional():
    for t in RANK_LE_8:
        rd = build(t)
        (rep,) = coxeter_lift_order(rd)  # raises if the equivalence fails
        assert rep.matches_h == (rho_central_character(rd).order == 1), t
    report(6, f"lift-order/central-character equivalence on {len(RANK_LE_8)} types")


def test_criterion_7_torsion_duality_suite():
    started = time.monotonic()
    cases = 0
    for t in RANK_LE_4:
        rd = build(t)
        for n in range(1, 13):
            rep = duality_report(rd, n, trials=1000, seed=1000 * n + rd.rank)
            assert rep.isomorphic, (t, n, rep)
            assert rep.action_well_defined, (t, n, rep.witness)
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 2, f"torsion duality suite took {elapsed:.2f}s, budget is 2 s"
    report(
        7,
        f"{cases} (type, n) cases, each an exact certificate of r(r+1) projections"
        f" (1000 trials drawn only on failure), {elapsed:.2f}s",
    )


def test_criterion_8_unique_regular_orbit_at_coxeter_number():
    started = time.monotonic()
    for t in CRITERION_1_TYPES:
        rd = build(t)
        h = rd.coxeter_numbers[0]
        assert h**rd.rank * rd.center.order <= 10**6, f"{t} outside the stated bound"
        orbits = classify_regular_orbits(rd, h)
        assert orbits.regular_orbits_with_image_order_n == 1, (t, orbits)
        assert orbits.rho_in_distinguished_orbit, (t, orbits)
    elapsed = time.monotonic() - started
    report(8, f"{len(CRITERION_1_TYPES)} types at n = h, {elapsed:.1f}s")


def test_criterion_9_cyclotomic_core():
    started = time.monotonic()
    for n in range(1, 201):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    if a:
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], f"product of divisors failed at {n}"

    rng = random.Random(20240604)
    pool = [4, 5, 8, 12, 36]
    for _ in range(10_000):
        n = rng.choice(pool)
        deg = len(cyclotomic_polynomial(n)) - 1
        a = CyclotomicInt(n, tuple(rng.randint(-99, 99) for _ in range(deg)))
        b = CyclotomicInt(n, tuple(rng.randint(-99, 99) for _ in range(deg)))
        if not b:
            continue
        assert divide_exact(a * b, b) == a

    # the oracle checks its float shadow on every call (1e-6) and raises
    # InternalCheckError when it strays: every call on the sweep returns
    for t in ["A1", "A2", "B2", "G2"]:
        rd = build(t)
        for lam in itertools.product(range(4), repeat=rd.rank):
            assert char_at_coxeter_oracle(rd, lam) in (-1, 0, 1)
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"criterion 9 took {elapsed:.1f}s, budget is 10 s"
    report(9, f"Phi products to N=200, 10^4 division round-trips, shadows, {elapsed:.1f}s")
