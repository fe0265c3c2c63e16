"""Weyl group actions on the weight lattice.

Elements act on fundamental-weight coordinates by exact integer
matrices; the sign of an element is the determinant of its matrix,
which equals (-1)^(reduced word length).  Simple-root indices in the
public API are 1-based (Bourbaki numbering, matching the README tables);
everything internal is 0-based.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import InternalCheckError
from .lattice import IntMatrix
from .rootdata import RootDatum, Weight

class WeylElement(NamedTuple):
    matrix: IntMatrix
    sign: int
    word: Optional[tuple[int, ...]] = None  # 1-based simple indices, when known


def reflection_matrix(rd: RootDatum, i: int) -> IntMatrix:
    """Matrix of the simple reflection s_i (1-based) on weight coordinates."""
    if not 1 <= i <= rd.rank:
        raise ValueError(f"simple index {i} out of range 1..{rd.rank}")
    j = i - 1
    n = rd.rank
    rows = []
    for k in range(n):
        row = [int(k == c) for c in range(n)]
        row[j] -= rd.cartan[k][j]
        rows.append(row)
    return IntMatrix.from_rows(rows)


def _reflect(cartan: IntMatrix, coords: Sequence[int], j: int) -> tuple[int, ...]:
    """Apply s_{j+1} in coordinates: c_k -> c_k - c_j * A[k][j]."""
    cj = coords[j]
    if cj == 0:
        return tuple(coords)
    return tuple(c - cj * cartan[k][j] for k, c in enumerate(coords))


def make_dominant(rd: RootDatum, lam: Sequence[int]) -> tuple[Weight, int, int]:
    """Reflect lam into the dominant chamber.

    Returns (dominant, sign, steps) where dominant = w(lam) for the
    product w of the applied reflections and sign = det(w) = (-1)^steps.
    Each step applies s_j at the smallest negative coordinate j, and s_j
    permutes the positive coroots other than alpha_j_vee (Humphreys,
    *Reflection Groups and Coxeter Groups* 1.4), so
    steps = #{beta > 0 : <lam, beta_vee> < 0} <= |Phi+|.
    """
    x = rd.validate_weight(lam)
    cap = rd.num_positive_roots
    steps = 0
    while True:
        j = next((k for k, c in enumerate(x) if c < 0), None)
        if j is None:
            return x, (-1) ** steps, steps
        if steps == cap:
            raise InternalCheckError(
                f"make_dominant exceeded its iteration cap {cap} on {lam} ({rd.type_string})",
                witness={"type": rd.type_string, "lambda": list(lam), "cap": cap},
            )
        x = _reflect(rd.cartan, x, j)
        steps += 1


def duality_involution(rd: RootDatum, lam: Sequence[int]) -> Weight:
    """Highest weight of the dual representation: the dominant form of -lam."""
    dominant, _, _ = make_dominant(rd, tuple(-c for c in lam))
    return dominant


def coxeter_element(rd: RootDatum) -> WeylElement:
    """The product s_1 s_2 ... s_r of the simple reflections, in order.

    Its matrix has multiplicative order exactly the Coxeter number; only
    order and determinant are canonical, the word is a fixed choice.
    """
    if not rd.is_simple:
        raise ValueError("Coxeter element is defined per simple factor")
    m = IntMatrix.identity(rd.rank)
    for i in range(1, rd.rank + 1):
        m = m @ reflection_matrix(rd, i)
    return WeylElement(m, (-1) ** rd.rank, tuple(range(1, rd.rank + 1)))

