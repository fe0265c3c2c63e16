"""Exact integer linear algebra: Smith normal form and lattice quotients.

Everything runs on Python's arbitrary-precision integers; there is no
floating point anywhere in this module.  Matrices are immutable and
row-major.  The central construction is ``quotient``, which presents a
finite quotient of ZZ^r by a full-rank sublattice as a finite abelian
group in invariant-factor form together with an explicit projection map
(and a section), the engine behind every lattice quotient in the package
(center of the group, torsion points of tori, character groups).
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalCheckError


class IntMatrix(tuple):
    """Immutable integer matrix: the tuple of its row tuples."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        m = cls(tuple(int(x) for x in row) for row in rows)
        if m and any(len(row) != len(m[0]) for row in m):
            raise ValueError("ragged rows")
        return m

    @property
    def rows(self) -> int:
        return len(self)

    @property
    def cols(self) -> int:
        return len(self[0]) if self else 0

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self)

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(tuple(k * x for x in row) for row in self)


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _row_sub(a: list[list[int]], i: int, t: int, q: int) -> None:
    a[i] = [x - q * y for x, y in zip(a[i], a[t])]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _col_sub(a: list[list[int]], j: int, t: int, q: int) -> None:
    for row in a:
        row[j] -= q * row[t]


def _smith(m: IntMatrix) -> tuple[list[list[int]], ...]:
    """Smith normal form: (U, D, V) as lists of rows, with U m V = D for
    U and V unimodular.

    D is diagonal with nonnegative entries satisfying d1 | d2 | ... ;
    trailing zeros indicate rank deficiency.  Deterministic: the pivot is
    always the nonzero entry of minimal absolute value (ties broken by
    position), so repeated runs give identical transforms.
    """
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    for t in range(min(nrows, ncols)):
        while True:
            # pivot: minimal |entry| over the trailing submatrix
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                _swap_rows(a, t, bi)
                _swap_rows(u, t, bi)
            if bj != t:
                _swap_cols(a, t, bj)
                _swap_cols(v, t, bj)

            clean = True
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        _row_sub(a, i, t, q)
                        _row_sub(u, i, t, q)
                    if a[i][t] != 0:
                        clean = False
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        _col_sub(a, j, t, q)
                        _col_sub(v, j, t, q)
                    if a[t][j] != 0:
                        clean = False
            if not clean:
                continue  # a strictly smaller pivot now exists; redo
            # pivot must divide the rest of the submatrix for the chain
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is not None:
                _row_sub(a, t, offender, -1)  # add offending row, re-reduce
                _row_sub(u, t, offender, -1)
                continue
            break
        if all(a[i][j] == 0 for i in range(t, nrows) for j in range(t, ncols)):
            break

    for t in range(min(nrows, ncols)):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    diag = [a[t][t] for t in range(min(nrows, ncols))]
    for t, (x, y) in enumerate(zip(diag, diag[1:])):
        if (y % x if x else y) != 0:  # 0 divides only 0
            rows = [list(row) for row in m]
            raise InternalCheckError(
                f"Smith form of {rows}: d_{t + 1} = {x} does not divide d_{t + 2} = {y}",
                witness={"matrix": rows, "diagonal": diag,
                         "identity": f"d_{t + 1} divides d_{t + 2}", "lhs": x, "rhs": y},
            )

    return u, a, v


class FiniteAbelianGroup(NamedTuple):
    """A quotient ZZ^rank / L in invariant-factor form, with maps.

    ``invariant_factors`` lists the d_i >= 2 with d1 | d2 | ... ; trivial
    factors are dropped.  ``project`` sends an ambient integer vector to
    its residue tuple; its kernel is exactly L.  ``section`` picks an
    ambient representative for a residue tuple.
    """

    ambient_rank: int
    invariant_factors: tuple[int, ...]
    u_rows: tuple[tuple[int, ...], ...]  # the row of U for each invariant factor
    basis: IntMatrix  # B, whose column span is L
    v_columns: tuple[tuple[int, ...], ...]  # the column of V for each invariant factor

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        """Largest element order (last invariant factor, or 1)."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def project(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        moduli = self.invariant_factors
        return tuple(sum(map(mul, row, v)) % d for row, d in zip(self.u_rows, moduli))

    def section(self, residues: Sequence[int]) -> tuple[int, ...]:
        """An ambient vector mapping onto the given residue tuple.

        The vector is U^-1 applied to the residues (0 at the trivial
        factors).  U B V = D makes column i of U^-1 equal to B V[:, i] / d_i,
        so it is sum_i r_i * B V[:, i] / d_i: B applied to
        sum_i r_i (e / d_i) V[:, i], with e the exponent, divided exactly by e.
        """
        if len(residues) != len(self.v_columns):
            raise ValueError("residue tuple length mismatch")
        e = self.exponent
        w = [0] * self.basis.cols
        for col, d, r in zip(self.v_columns, self.invariant_factors, residues):
            k = r % d * (e // d)
            w = [a + k * b for a, b in zip(w, col)]
        return tuple(x // e for x in self.basis.apply(w))


def quotient(ambient_rank: int, sublattice_basis: IntMatrix) -> FiniteAbelianGroup:
    """Present ZZ^ambient_rank modulo the column span of the basis.

    Raises ValueError when the columns span a sublattice of infinite
    index (rank-deficient basis).
    """
    if sublattice_basis.rows != ambient_rank:
        raise ValueError(
            f"basis has {sublattice_basis.rows} rows, ambient rank is {ambient_rank}"
        )
    u, d, v = _smith(sublattice_basis)
    diag = [d[i][i] for i in range(min(sublattice_basis.rows, sublattice_basis.cols))]
    diag += [0] * (ambient_rank - len(diag))
    if any(x == 0 for x in diag):
        raise ValueError("sublattice has infinite index (rank-deficient basis)")
    kept = tuple((i, di) for i, di in enumerate(diag) if di >= 2)
    return FiniteAbelianGroup(
        ambient_rank=ambient_rank,
        invariant_factors=tuple(di for _, di in kept),
        u_rows=tuple(tuple(u[i]) for i, _ in kept),
        basis=sublattice_basis,
        v_columns=tuple(tuple(row[i] for row in v) for i, _ in kept),
    )
