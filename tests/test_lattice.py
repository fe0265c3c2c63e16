import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from coxchar.lattice import IntMatrix, _smith, quotient
from coxchar.rootdata import build
from weyl_reference import det, identity, matmul


def mat(rows):
    return IntMatrix.from_rows(rows)


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(zip(*m))


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) of ``_smith`` as matrices."""
    u, d, v = _smith(m)
    return mat(u), mat(d), mat(v)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Reference: the exact inverse of a matrix with determinant +-1, by
    Gauss-Jordan elimination over the rationals."""
    n = m.rows
    if n != m.cols:
        raise ValueError("inverse of non-square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return IntMatrix(tuple(out))


def minor_gcd_invariant_factors(m: IntMatrix) -> list[int]:
    """Independent oracle: d_k = gcd of all k x k minors, f_k = d_k / d_{k-1}."""
    out = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                sub = mat([[m[i][j] for j in cols] for i in rows])
                g = gcd(g, det(sub))
        if g == 0:
            out.append(0)
            prev = 0
        else:
            out.append(g // prev if prev else 0)
            prev = g
    return out


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form(identity(2))
        assert d == identity(2)

    def test_already_snf(self):
        _, d, _ = smith_normal_form(mat([[2, 0], [0, 4]]))
        assert d == mat([[2, 0], [0, 4]])

    def test_one_by_one(self):
        _, d, _ = smith_normal_form(mat([[2]]))
        assert d == mat([[2]])

    def test_classic_example(self):
        # invariant factors (2, 6, 12): derived by hand from gcds of minors
        # (gcd of entries 2, gcd of 2x2 minors 12, |det| 144)
        m = mat([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
        u, d, v = smith_normal_form(m)
        assert [d[i][i] for i in range(3)] == [2, 6, 12]
        assert matmul(matmul(u, m), v) == d

    @given(small_matrices)
    def test_transform_relation(self, rows):
        m = mat(rows)
        u, d, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert det(u) in (-1, 1)
        assert det(v) in (-1, 1)
        diag = [d[i][i] for i in range(min(d.rows, d.cols))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d[i][j] == 0

    @given(small_matrices)
    def test_against_minor_gcd_oracle(self, rows):
        m = mat(rows)
        _, d, _ = smith_normal_form(m)
        diag = [d[i][i] for i in range(min(d.rows, d.cols))]
        assert diag == minor_gcd_invariant_factors(m)


square3 = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3
)


class TestQuotient:
    def test_z_mod_2(self):
        g = quotient(1, mat([[2]]))
        assert g.invariant_factors == (2,)
        assert g.order == 2

    def test_z2_mod_diag2(self):
        g = quotient(2, mat([[2, 0], [0, 2]]))
        assert g.invariant_factors == (2, 2)

    def test_weight_lattice_mod_twice_roots_rank1(self):
        # P = Z*omega, 2Q spanned by 2*alpha = 4*omega: cyclic of order 4
        g = quotient(1, mat([[4]]))
        assert g.invariant_factors == (4,)

    def test_infinite_index_rejected(self):
        with pytest.raises(ValueError):
            quotient(2, mat([[1, 1], [1, 1]]))
        with pytest.raises(ValueError):
            quotient(2, mat([[1], [0]]))

    def test_trivial_quotient(self):
        g = quotient(2, identity(2))
        assert g.invariant_factors == () and g.order == 1 and g.exponent == 1
        assert g.project((5, -3)) == ()

    @given(square3)
    def test_order_is_abs_det(self, rows):
        m = mat(rows)
        assume(det(m) != 0)
        assert quotient(3, m).order == abs(det(m))

    @given(square3, st.lists(st.integers(-50, 50), min_size=3, max_size=3),
           st.lists(st.integers(-50, 50), min_size=3, max_size=3))
    def test_projection_additive(self, rows, v, w):
        m = mat(rows)
        assume(det(m) != 0)
        g = quotient(3, m)
        pv, pw = g.project(v), g.project(w)
        pvw = g.project([a + b for a, b in zip(v, w)])
        assert pvw == tuple(
            (a + b) % d for a, b, d in zip(pv, pw, g.invariant_factors)
        )

    @given(square3, st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_kernel_contains_sublattice(self, rows, coeffs):
        m = mat(rows)
        assume(det(m) != 0)
        g = quotient(3, m)
        member = m.apply(coeffs)  # integer combination of basis columns
        assert g.project(member) == tuple(0 for _ in g.invariant_factors)

    @given(square3)
    def test_section_is_right_inverse(self, rows):
        m = mat(rows)
        assume(det(m) != 0)
        g = quotient(3, m)
        assume(g.order <= 200)
        count = 0
        for residues in itertools.product(*(range(d) for d in g.invariant_factors)):
            assert g.project(g.section(residues)) == residues
            count += 1
        assert count == g.order


class TestIntMatrix:
    def test_det(self):
        # the tests' own determinant, the reference for |P/Q| = |det A|
        assert det(mat([[1, 2], [3, 4]])) == -2
        assert det(mat([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])) == -144

    def test_inverse_unimodular(self):
        m = mat([[2, 1], [1, 1]])
        assert det(m) == 1
        assert matmul(m, inverse_unimodular(m)) == identity(2)

    def test_inverse_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            inverse_unimodular(mat([[2, 0], [0, 2]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mat([[1, 2]]).apply((1, 2, 3))


RANK_LE_8_AND_PRODUCTS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "A1xA2", "B2xG2", "A3xD4", "G2xF4", "E6xA2", "A1xA1xA1"]
)


@pytest.mark.parametrize("t", RANK_LE_8_AND_PRODUCTS)
def test_section_map_is_the_exact_inverse(t):
    # the section of each unit residue vector, read off B V D^-1, is the
    # column of U^-1 (solved for over the rationals) at that invariant
    # factor, on both torsion presentations
    rd = build(t)
    for n in range(1, 13):
        for basis in (rd.cartan.scale(n), transpose(rd.cartan).scale(n)):
            u, d, _ = smith_normal_form(basis)
            u_inv = transpose(inverse_unimodular(u))
            kept = [u_inv[i] for i in range(rd.rank) if d[i][i] >= 2]
            g = quotient(rd.rank, basis)
            units = [[int(i == j) for j in range(len(kept))] for i in range(len(kept))]
            assert [g.section(e) for e in units] == kept, n
