"""Whole-group Weyl enumeration, kept for the tests as a reference.

The library never lists a Weyl group: the oracle walks one orbit along
a parabolic chain and the census walks residue classes.  These helpers
enumerate every element as an integer matrix, which is slow but plain,
so the tests can check those walkers against a brute-force sum.  The
matrices, their identity, product and determinant are built here,
since the library keeps no matrix form of a Weyl group element and
computes no determinant.  One simple reflection of a weight, which the
library applies only inside ``make_dominant``, is here too, and so is a
second way to compute the oracle's histogram, by multiply-adds over
16-bit fields and a Counter.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from coxchar.errors import CapExceeded, InternalCheckError
from coxchar.lattice import IntMatrix
from coxchar.rootdata import RootDatum, Weight
from coxchar.weyl import _reflect

DEFAULT_ENUMERATION_CAP = 5_000_000


class WeylElement(NamedTuple):
    matrix: IntMatrix
    sign: int
    word: tuple[int, ...]  # 1-based simple indices


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    return IntMatrix.from_rows([[sum(map(mul, row, col)) for col in zip(*b)] for row in a])


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination: the tests' own
    reference for |P/Q| = |det A|, which the library does not compute."""
    n = m.rows
    if n != m.cols:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reflection_matrix(rd: RootDatum, i: int) -> IntMatrix:
    """Matrix of the simple reflection s_i (1-based) on weight coordinates."""
    j = i - 1
    return IntMatrix.from_rows(
        [[int(k == c) - (c == j) * rd.cartan[k][j] for c in range(rd.rank)] for k in range(rd.rank)]
    )


def coxeter_element(rd: RootDatum) -> IntMatrix:
    """Matrix of the product s_1 s_2 ... s_r of the simple reflections."""
    m = identity(rd.rank)
    for i in range(1, rd.rank + 1):
        m = matmul(m, reflection_matrix(rd, i))
    return m


def enumerate_weyl(
    rd: RootDatum, cap: int | None = DEFAULT_ENUMERATION_CAP
) -> Iterator[WeylElement]:
    """Yield every Weyl group element exactly once (BFS closure).

    Elements are deduplicated by their integer matrix, the canonical
    form.  Refuses upfront when the group order exceeds ``cap`` (pass
    ``cap=None`` to override); E8 exceeds the default cap.
    """
    order = rd.weyl_order
    if cap is not None and order > cap:
        raise CapExceeded(
            f"Weyl group of {rd.type_string} has {order} elements, "
            f"above the enumeration cap {cap}; raise the cap to force this"
        )
    n = rd.rank
    gens = [reflection_matrix(rd, i) for i in range(1, n + 1)]
    ident = identity(n)
    seen = {ident}
    frontier = [WeylElement(ident, 1, ())]
    while frontier:
        nxt = []
        for el in frontier:
            yield el
            for i, g in enumerate(gens, start=1):
                m = matmul(el.matrix, g)
                if m not in seen:
                    seen.add(m)
                    nxt.append(WeylElement(m, -el.sign, el.word + (i,)))
        frontier = nxt
    if len(seen) != order:
        raise InternalCheckError(
            f"BFS closure produced {len(seen)} elements, expected {order}"
        )


def simple_reflection(rd: RootDatum, i: int, lam: Sequence[int]) -> Weight:
    """s_i(lam) = lam - <lam, alpha_i_vee> alpha_i, with i 1-based."""
    if not 1 <= i <= rd.rank:
        raise ValueError(f"simple index {i} out of range 1..{rd.rank}")
    lam = rd.validate_weight(lam)
    return _reflect(rd.cartan, lam, i - 1)


def reference_signed_orbit_counts(ev, mu: Sequence[int]) -> list[int]:
    """``CoxeterEvaluation.signed_orbit_counts`` by r big-integer
    multiply-adds over 16-bit fields and a ``Counter`` of the fields,
    folded mod N.

    Each coordinate's residues mod N are widened to 16-bit fields and mu
    is reduced mod N, so a field of the sum holds at most r * (N - 1)**2
    and never carries into the next.
    """
    n = ev.conductor
    counts = [0] * n
    for sign, cols in zip((1, -1), ev._signed_orbit()):
        size = len(cols[0])
        assert len(cols) * (n - 1) ** 2 < 1 << 16
        packed = [int.from_bytes(array("H", list(col)).tobytes(), sys.byteorder) for col in cols]
        total = sum(m % n * p for m, p in zip(mu, packed))
        fields = memoryview(total.to_bytes(2 * size, sys.byteorder)).cast("H")
        for v, c in Counter(fields).items():
            counts[v % n] += sign * c
    return counts


def matrix_order(m: IntMatrix, bound: int = 10_000) -> int:
    """Multiplicative order of an integer matrix (raises past the bound)."""
    ident = identity(m.rows)
    p = m
    for k in range(1, bound + 1):
        if p == ident:
            return k
        p = matmul(p, m)
    raise InternalCheckError(f"matrix order exceeds bound {bound}")
