"""Generator-level property checkers.

These decide properties of the generated semigroup by quantifying only over
the generators and the points, never over the elements; each is validated
against the closure oracle by the test suite.  Identity-existence checks run
over the embedded total maps (degree n+1, sink absorbing), with all point
quantifiers ranging over the n+1 points including the sink, and witnesses
translated back to partial bijections.
"""

from __future__ import annotations

from typing import Optional

from .closure import GeneratorSet
from .pbij import PartialBijection
from .properties import CheckReport, PropertyName


def check_left_identity_exists(gens: GeneratorSet) -> CheckReport:
    """Does some generator's idempotent power act as a left identity?

    Holds iff for some i, every pair of points glued by ``a_i`` is glued by
    every ``a_j``, and gluing by ``a_i^2`` already implies gluing by ``a_i``.
    """
    acts = [g.embed() for g in gens.generators]
    points = range(gens.degree + 1)
    for i, a in enumerate(acts):
        aa = tuple(a[v] for v in a)
        if any(aa[x] == aa[y] and a[x] != a[y] for x in points for y in points):
            continue
        if all(
            a[x] != a[y] or b[x] == b[y]
            for b in acts
            for x in points
            for y in points
        ):
            el = gens.generators[i].idempotent_power()
            return CheckReport(
                PropertyName.LEFT_IDENTITY, True,
                {"generator": i + 1, "identity": el},
            )
    return CheckReport(PropertyName.LEFT_IDENTITY, False, None)


def check_right_identity_exists(gens: GeneratorSet) -> CheckReport:
    """Does some generator's idempotent power act as a right identity?

    Holds iff for some i and all j, gluing by ``a_j a_i`` implies gluing by
    ``a_j``.
    """
    acts = [g.embed() for g in gens.generators]
    points = range(gens.degree + 1)
    for i, a in enumerate(acts):
        ok = True
        for b in acts:
            c = tuple(a[v] for v in b)
            if any(c[x] == c[y] and b[x] != b[y] for x in points for y in points):
                ok = False
                break
        if ok:
            el = gens.generators[i].idempotent_power()
            return CheckReport(
                PropertyName.RIGHT_IDENTITY, True,
                {"generator": i + 1, "identity": el},
            )
    return CheckReport(PropertyName.RIGHT_IDENTITY, False, None)


class IdentitySummary:
    """The left, right and two-sided identity of the closure, each or None."""

    __slots__ = ("left", "right", "two_sided")

    def __init__(self, left: Optional[PartialBijection], right: Optional[PartialBijection],
                 two_sided: Optional[PartialBijection]):
        self.left = left
        self.right = right
        self.two_sided = two_sided


def enumerate_identities(gens: GeneratorSet) -> IdentitySummary:
    """The (at most one) left/right/two-sided identity, built directly.

    When a left identity exists it is the partial identity on the union of
    the generators' domains; the right identity lives on the union of the
    images.  The two-sided identity exists exactly when both do (and they
    then coincide).
    """
    n = gens.degree
    left = right = None
    if check_left_identity_exists(gens).holds:
        union_dom = frozenset().union(*(g.dom() for g in gens.generators))
        left = PartialBijection.partial_identity(n, union_dom)
    if check_right_identity_exists(gens).holds:
        union_img = frozenset().union(*(g.image() for g in gens.generators))
        right = PartialBijection.partial_identity(n, union_img)
    two = left if (left is not None and left == right) else None
    return IdentitySummary(left, right, two)


def _domain_intersection_check(gens: GeneratorSet, prop: PropertyName) -> CheckReport:
    for i, a in enumerate(gens.generators):
        da = a.dom()
        for j, b in enumerate(gens.generators):
            got = (a * b).dom()
            want = da & b.dom()
            if got != want:
                point = min(got ^ want)
                return CheckReport(
                    prop, False, {"i": i + 1, "j": j + 1, "point": point + 1}
                )
    return CheckReport(prop, True, None)


def check_completely_regular(gens: GeneratorSet) -> CheckReport:
    """Holds iff dom(a_i a_j) = dom(a_i) ∩ dom(a_j) for all generator pairs."""
    return _domain_intersection_check(gens, PropertyName.COMPLETELY_REGULAR)


def check_clifford(gens: GeneratorSet) -> CheckReport:
    # Same decision as completely regular: idempotents of partial bijections
    # always commute, so completely regular already forces Clifford here.
    return _domain_intersection_check(gens, PropertyName.CLIFFORD)


def check_band_semilattice(
    gens: GeneratorSet, prop: PropertyName = PropertyName.SEMILATTICE
) -> CheckReport:
    """Band and semilattice coincide here; both hold iff every generator is
    idempotent (products of partial identities stay partial identities)."""
    if prop not in (PropertyName.BAND, PropertyName.SEMILATTICE):
        raise ValueError("prop must be band or semilattice")
    for i, a in enumerate(gens.generators):
        for x, v in a.graph():
            if v != x:
                return CheckReport(prop, False, {"generator": i + 1, "point": x + 1})
    return CheckReport(prop, True, None)


def check_commutative(gens: GeneratorSet) -> CheckReport:
    """Holds iff the generators pairwise commute (which the closure inherits)."""
    gs = gens.generators
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            ab = gs[i] * gs[j]
            ba = gs[j] * gs[i]
            if ab != ba:
                point = min(x for x in range(gens.degree)
                            if ab.entries[x] != ba.entries[x])
                return CheckReport(
                    PropertyName.COMMUTATIVE, False,
                    {"i": i + 1, "j": j + 1, "point": point + 1},
                )
    return CheckReport(PropertyName.COMMUTATIVE, True, None)


#: Properties with a generator-level decision procedure.
GENERATOR_CHECKABLE = frozenset({
    PropertyName.COMMUTATIVE,
    PropertyName.BAND,
    PropertyName.SEMILATTICE,
    PropertyName.COMPLETELY_REGULAR,
    PropertyName.CLIFFORD,
    PropertyName.LEFT_IDENTITY,
    PropertyName.RIGHT_IDENTITY,
    PropertyName.TWO_SIDED_IDENTITY,
})


def run_generator_check(gens: GeneratorSet, prop: PropertyName) -> Optional[CheckReport]:
    """Dispatch to the matching fast checker, or None when only the closure
    oracle can decide the property."""
    if prop == PropertyName.COMMUTATIVE:
        return check_commutative(gens)
    if prop in (PropertyName.BAND, PropertyName.SEMILATTICE):
        return check_band_semilattice(gens, prop)
    if prop == PropertyName.COMPLETELY_REGULAR:
        return check_completely_regular(gens)
    if prop == PropertyName.CLIFFORD:
        return check_clifford(gens)
    if prop == PropertyName.LEFT_IDENTITY:
        return check_left_identity_exists(gens)
    if prop == PropertyName.RIGHT_IDENTITY:
        return check_right_identity_exists(gens)
    if prop == PropertyName.TWO_SIDED_IDENTITY:
        summary = enumerate_identities(gens)
        if summary.two_sided is not None:
            return CheckReport(prop, True, {"identity": summary.two_sided})
        return CheckReport(prop, False, None)
    return None
