"""Shared vocabulary: decidable property names, the check-report record and
the identity lists both identity deciders return."""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .pbij import ValueType


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
    """Outcome of one property decision.

    ``witness`` carries whatever makes the verdict checkable: the witnessing
    element/generator for existential properties that hold, or the violating
    tuple for universal properties that fail.  It is None when there is
    nothing to exhibit (existential failure, universal success).
    """

    __slots__ = ("prop", "holds", "witness")

    def __init__(self, prop: PropertyName, holds: bool, witness: Optional[dict] = None):
        if witness is not None and not isinstance(witness, dict):
            raise TypeError("witness must be a dict or None")
        self.prop = prop
        self.holds = holds
        self.witness = witness


class IdentityLists(ValueType):
    """Every left/right/two-sided identity of the closure, in discovery order.

    Identities are unique, so each tuple holds at most one element.
    """

    __slots__ = ("left", "right", "two_sided")

    def __init__(self, left: tuple, right: tuple, two_sided: tuple):
        self.left = left
        self.right = right
        self.two_sided = two_sided
