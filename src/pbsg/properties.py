"""Shared vocabulary: decidable property names and the check report, a
verdict with its witness."""

from __future__ import annotations

from enum import Enum
from typing import Optional


class PropertyName(str, Enum):
    COMMUTATIVE = "commutative"
    SEMILATTICE = "semilattice"
    BAND = "band"
    GROUP = "group"
    LEFT_ZERO = "left-zero"
    RIGHT_ZERO = "right-zero"
    ZERO = "zero"
    NILPOTENT = "nilpotent"
    R_TRIVIAL = "r-trivial"
    CENTRAL_IDEMPOTENTS = "central-idempotents"
    REGULAR = "regular"
    COMPLETELY_REGULAR = "completely-regular"
    CLIFFORD = "clifford"
    LEFT_IDENTITY = "left-identity"
    RIGHT_IDENTITY = "right-identity"
    TWO_SIDED_IDENTITY = "two-sided-identity"


class CheckReport:
    """Outcome of one property decision: its verdict and its witness.  The
    caller names the property, so the report does not repeat it.

    ``witness`` carries whatever makes the verdict checkable: the witnessing
    element/generator for existential properties that hold, or the violating
    tuple for universal properties that fail.  It is None when there is
    nothing to exhibit (existential failure, universal success).
    """

    __slots__ = ("holds", "witness")

    def __init__(self, holds: bool, witness: Optional[dict] = None):
        if witness is not None and not isinstance(witness, dict):
            raise TypeError("witness must be a dict or None")
        self.holds = holds
        self.witness = witness
