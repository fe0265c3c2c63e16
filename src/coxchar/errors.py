"""Exception hierarchy shared across the package.

Contract violations on user-supplied input raise plain ValueError; the
classes here mark conditions with dedicated CLI exit codes.
"""

from __future__ import annotations


class CoxcharError(Exception):
    """Base class for package-specific failures; ``witness`` data reproduces one."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class CapExceeded(CoxcharError):
    """A computation was refused because it would exceed a resource cap.

    The message names the cap and the actual (or estimated) size.
    CLI exit code 4.
    """


class TheoremViolation(CoxcharError):
    """An exact identity the library is built around failed to hold.

    This is deliberately loud: the oracle and the fast path must be able
    to falsify the mathematics, not assume it.  CLI exit code 3.
    """


class InternalCheckError(CoxcharError):
    """A defensive internal consistency check tripped (never expected).

    Examples: alcove reduction hitting a wall exactly, Weyl-orbit sign
    inconsistency, float shadow diverging from the exact value.
    CLI exit code 3.
    """
