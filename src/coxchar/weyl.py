"""The Weyl group's action on weights, one simple reflection at a time.

A simple reflection s_j acts on fundamental-weight coordinates through
column j of the Cartan matrix; no Weyl group element is ever stored,
as a matrix or otherwise.  ``make_dominant`` walks a weight into the dominant chamber and
reports the sign (-1)^steps of the element it applied, and
``duality_involution`` reads the dual highest weight from it.
Coordinates are 0-based internally.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalCheckError
from .lattice import IntMatrix
from .rootdata import RootDatum, Weight


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

